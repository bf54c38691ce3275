#include "rules/tree_eval.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "automata/enumerate.h"
#include "automata/thompson.h"
#include "common/logging.h"
#include "rules/graph.h"

namespace spanners {

Status ValidateTreeRule(const ExtractionRule& rule) {
  if (!rule.IsSimple())
    return Status::InvalidArgument("tree-rule Eval requires a simple rule");
  if (!rule.IsSpanRgxRule())
    return Status::InvalidArgument("tree-rule Eval requires spanRGX bodies");
  if (!rule.IsSequential())
    return Status::InvalidArgument(
        "tree-rule Eval requires sequential formulas");
  if (!RuleGraph(rule).IsTreeLike())
    return Status::NotSupported("rule graph is not a tree rooted at doc");
  return Status::OK();
}

namespace {

constexpr size_t kDocNode = SIZE_MAX;  // pseudo-var id for the doc root

// ---- label items -----------------------------------------------------

struct Item {
  enum Kind : uint8_t { kLetter, kOpen, kClose } kind;
  char letter = 0;
  VarId var = 0;
  size_t match = 0;  // for kOpen/kClose: index of the matching bracket
};

// One assigned variable arranged into the spatial forest.
struct ForestNode {
  VarId var;
  Span span;
  int rank = 0;  // emission tie-break, permuted for indistinguishable sets
  std::vector<size_t> children;  // indexes into the forest array
};

// ---- compiled rule ----------------------------------------------------

struct BracketJump {
  StateId open_from;  // state holding the z⊢ transition
  StateId close_to;   // state after the matching ⊣z
};

struct CompiledFormula {
  VA va;
  // Per child variable: usable (open-state, post-close-state) pairs.
  std::map<VarId, std::vector<BracketJump>> jumps;
};

CompiledFormula Compile(const RgxPtr& formula) {
  CompiledFormula out;
  out.va = CompileToVa(formula);
  const VA& a = out.va;
  // For each open transition, find close transitions of the same variable
  // reachable through the (variable-free, spanRGX ⇒ Σ*) body.
  for (StateId q = 0; q < a.NumStates(); ++q) {
    for (const VaTransition& t : a.TransitionsFrom(q)) {
      if (t.kind != TransKind::kOpen) continue;
      // BFS from t.to over char/ε transitions.
      std::vector<bool> seen(a.NumStates(), false);
      std::vector<StateId> stack = {t.to};
      seen[t.to] = true;
      while (!stack.empty()) {
        StateId p = stack.back();
        stack.pop_back();
        for (const VaTransition& u : a.TransitionsFrom(p)) {
          if (u.kind == TransKind::kClose && u.var == t.var) {
            out.jumps[t.var].push_back({q, u.to});
          }
          if ((u.kind == TransKind::kChars ||
               u.kind == TransKind::kEpsilon) &&
              !seen[u.to]) {
            seen[u.to] = true;
            stack.push_back(u.to);
          }
        }
      }
    }
  }
  return out;
}

// ---- the evaluator ----------------------------------------------------

class TreeEvaluator {
 public:
  TreeEvaluator(const ExtractionRule& rule, const Document& doc,
                const ExtendedMapping& mu)
      : rule_(rule), doc_(doc), mu_(mu), graph_(rule) {}

  bool Run();

 private:
  const CompiledFormula& FormulaOf(size_t node_key);

  bool BuildForest(std::vector<ForestNode>* forest,
                   std::vector<size_t>* roots);
  // Emits items for the given forest nodes (ordered children of one
  // region); expands indistinguishable clusters by enumerating orders.
  bool EmitRegion(const std::vector<ForestNode>& forest,
                  std::vector<size_t> members, Pos from, Pos to,
                  std::vector<Item>* items);
  void EmitLetters(Pos from, Pos to, std::vector<Item>* items);
  bool EmitNode(const std::vector<ForestNode>& forest, size_t node,
                std::vector<Item>* items);

  bool Goal(size_t node_key, size_t i, size_t j);
  bool Simulate(const CompiledFormula& cf, size_t node_key, size_t i,
                size_t j);

  const ExtractionRule& rule_;
  const Document& doc_;
  const ExtendedMapping& mu_;
  RuleGraph graph_;

  std::map<size_t, CompiledFormula> compiled_;
  std::vector<Item> label_;
  std::map<std::tuple<size_t, size_t, size_t>, bool> memo_;
};

const CompiledFormula& TreeEvaluator::FormulaOf(size_t node_key) {
  auto it = compiled_.find(node_key);
  if (it != compiled_.end()) return it->second;
  RgxPtr formula = node_key == kDocNode
                       ? rule_.body()
                       : rule_.ConstraintFor(static_cast<VarId>(node_key))
                             .value_or(RgxNode::AnyStar());
  return compiled_.emplace(node_key, Compile(formula)).first->second;
}

// Arranges the assigned variables into a forest by rule-tree ancestry;
// rejects assignments inconsistent with the tree or with hierarchy.
bool TreeEvaluator::BuildForest(std::vector<ForestNode>* forest,
                                std::vector<size_t>* roots) {
  VarSet rule_vars = rule_.AllVars();
  std::vector<std::pair<VarId, Span>> assigned;
  for (VarId v : mu_.ConstrainedVars()) {
    if (mu_.StateOf(v) != ExtendedMapping::VarState::kAssigned) continue;
    Span s = *mu_.Get(v);
    if (!rule_vars.Contains(v)) return false;  // can never be produced
    if (!doc_.IsValidSpan(s)) return false;
    assigned.emplace_back(v, s);
  }

  // Ancestor test in the rule tree via reachability.
  auto is_ancestor = [this](VarId a, VarId b) {
    return graph_.ReachableFrom(graph_.NodeOf(a)).Contains(b);
  };

  // Pairwise consistency (the paper's up-front rejections).
  for (size_t i = 0; i < assigned.size(); ++i) {
    for (size_t k = i + 1; k < assigned.size(); ++k) {
      auto [va, sa] = assigned[i];
      auto [vb, sb] = assigned[k];
      if (is_ancestor(va, vb)) {
        if (!sb.ContainedIn(sa)) return false;
      } else if (is_ancestor(vb, va)) {
        if (!sa.ContainedIn(sb)) return false;
      } else {
        if (!sa.DisjointWith(sb)) return false;  // unrelated must not overlap
        if (sa == sb && !sa.IsEmpty()) return false;
      }
    }
  }

  // Build the forest: parent = nearest assigned ancestor.
  forest->clear();
  std::map<VarId, size_t> index;
  for (auto& [v, s] : assigned) {
    index[v] = forest->size();
    forest->push_back(ForestNode{v, s, static_cast<int>(forest->size()), {}});
  }
  roots->clear();
  for (auto& [v, s] : assigned) {
    // Parent in the forest = nearest assigned ancestor of v.
    VarId best = v;
    bool found = false;
    for (auto& [u, su] : assigned) {
      if (u == v || !is_ancestor(u, v)) continue;
      if (!found || is_ancestor(best, u)) {
        best = u;
        found = true;
      }
    }
    if (found) {
      (*forest)[index[best]].children.push_back(index[v]);
    } else {
      roots->push_back(index[v]);
    }
  }
  return true;
}

void TreeEvaluator::EmitLetters(Pos from, Pos to, std::vector<Item>* items) {
  for (Pos p = from; p < to; ++p)
    items->push_back(Item{Item::kLetter, doc_.at(p), 0, 0});
}

bool TreeEvaluator::EmitNode(const std::vector<ForestNode>& forest,
                             size_t node, std::vector<Item>* items) {
  const ForestNode& fn = forest[node];
  size_t open_idx = items->size();
  items->push_back(Item{Item::kOpen, 0, fn.var, 0});
  if (!EmitRegion(forest, fn.children, fn.span.begin, fn.span.end, items))
    return false;
  size_t close_idx = items->size();
  items->push_back(Item{Item::kClose, 0, fn.var, open_idx});
  (*items)[open_idx].match = close_idx;
  return true;
}

bool TreeEvaluator::EmitRegion(const std::vector<ForestNode>& forest,
                               std::vector<size_t> members, Pos from, Pos to,
                               std::vector<Item>* items) {
  // Order members spatially; equal empty spans are indistinguishable and
  // stay in arbitrary (but fixed) order — the caller retries permutations
  // only through Run()'s cluster expansion. Here we order by
  // (begin, end, var) which fixes one representative order.
  std::sort(members.begin(), members.end(), [&forest](size_t a, size_t b) {
    const ForestNode& na = forest[a];
    const ForestNode& nb = forest[b];
    if (na.span.begin != nb.span.begin) return na.span.begin < nb.span.begin;
    if (na.span.end != nb.span.end) return na.span.end < nb.span.end;
    return na.rank < nb.rank;
  });
  Pos pos = from;
  for (size_t m : members) {
    const Span& s = forest[m].span;
    if (s.begin < pos) return false;  // overlap slipped through
    EmitLetters(pos, s.begin, items);
    if (!EmitNode(forest, m, items)) return false;
    pos = s.end;
  }
  if (pos > to) return false;
  EmitLetters(pos, to, items);
  return true;
}

bool TreeEvaluator::Run() {
  // ⊥ for a variable outside the rule is trivially satisfied; assigned
  // ones were checked in BuildForest.
  std::vector<ForestNode> forest;
  std::vector<size_t> roots;
  if (!BuildForest(&forest, &roots)) return false;

  // Indistinguishable clusters: groups of unrelated empty-span siblings
  // sharing a position. Try every permutation of each group (groups are
  // tiny in practice; the paper coalesces them instead).
  // We realise this by permuting var ids within the groups.
  std::vector<std::vector<size_t>> groups;  // forest indexes
  {
    std::map<std::pair<size_t, Pos>, std::vector<size_t>> by_parent_pos;
    // Identify siblings with identical empty spans: group per (parent,
    // position). Roots count as siblings of the virtual doc parent.
    std::map<size_t, size_t> parent_of;
    for (size_t i = 0; i < forest.size(); ++i)
      for (size_t c : forest[i].children) parent_of[c] = i;
    for (size_t i = 0; i < forest.size(); ++i) {
      if (!forest[i].span.IsEmpty()) continue;
      size_t parent = parent_of.count(i) ? parent_of[i] : SIZE_MAX;
      by_parent_pos[{parent, forest[i].span.begin}].push_back(i);
    }
    for (auto& [key, v] : by_parent_pos)
      if (v.size() > 1) groups.push_back(v);
  }

  // Permutation expansion: members of a group share an empty span and are
  // mutually unordered ("indistinguishable" in the paper, which coalesces
  // them); we instead try every emission order by permuting their ranks.
  std::function<bool(size_t)> try_groups = [&](size_t gi) -> bool {
    if (gi == groups.size()) {
      label_.clear();
      memo_.clear();
      if (!EmitRegion(forest, roots, 1, doc_.length() + 1, &label_))
        return false;
      return Goal(kDocNode, 0, label_.size());
    }
    std::vector<size_t>& group = groups[gi];
    std::vector<size_t> perm = group;  // slot order receiving the ranks
    std::vector<int> base_ranks;
    for (size_t m : group) base_ranks.push_back(forest[m].rank);
    std::sort(perm.begin(), perm.end());
    do {
      for (size_t k = 0; k < group.size(); ++k)
        forest[perm[k]].rank = base_ranks[k];
      if (try_groups(gi + 1)) return true;
    } while (std::next_permutation(perm.begin(), perm.end()));
    for (size_t k = 0; k < group.size(); ++k)
      forest[group[k]].rank = base_ranks[k];
    return false;
  };
  return try_groups(0);
}

bool TreeEvaluator::Goal(size_t node_key, size_t i, size_t j) {
  auto key = std::make_tuple(node_key, i, j);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  memo_[key] = false;  // provisional (no cycles: child depth increases)
  bool result = Simulate(FormulaOf(node_key), node_key, i, j);
  memo_[key] = result;
  return result;
}

bool TreeEvaluator::Simulate(const CompiledFormula& cf,
                             size_t /*node_key*/, size_t i, size_t j) {
  const VA& a = cf.va;
  const size_t num_states = a.NumStates();
  // Visited (state, idx) pairs, BFS.
  std::vector<std::vector<bool>> seen(num_states,
                                      std::vector<bool>(j - i + 1, false));
  std::vector<std::pair<StateId, size_t>> stack;
  auto push = [&](StateId q, size_t idx) {
    if (!seen[q][idx - i]) {
      seen[q][idx - i] = true;
      stack.emplace_back(q, idx);
    }
  };
  push(a.initial(), i);
  StateId final_state = a.SingleFinal();

  while (!stack.empty()) {
    auto [q, idx] = stack.back();
    stack.pop_back();
    if (q == final_state && idx == j) return true;

    for (const VaTransition& t : a.TransitionsFrom(q)) {
      switch (t.kind) {
        case TransKind::kEpsilon:
          push(t.to, idx);
          break;
        case TransKind::kChars:
          if (idx < j && label_[idx].kind == Item::kLetter &&
              t.chars.Contains(label_[idx].letter))
            push(t.to, idx + 1);
          break;
        case TransKind::kOpen: {
          VarId z = t.var;
          switch (mu_.StateOf(z)) {
            case ExtendedMapping::VarState::kBottom:
              break;  // z may not be instantiated
            case ExtendedMapping::VarState::kAssigned: {
              // Consumable only at z's pinned open item.
              if (idx >= j || label_[idx].kind != Item::kOpen ||
                  label_[idx].var != z)
                break;
              size_t close_idx = label_[idx].match;
              if (close_idx >= j) break;  // bracket leaks out of interval
              if (!Goal(z, idx + 1, close_idx)) break;
              for (const BracketJump& bj : cf.jumps.count(z)
                                               ? cf.jumps.at(z)
                                               : std::vector<BracketJump>{}) {
                if (bj.open_from == q) push(bj.close_to, close_idx + 1);
              }
              break;
            }
            case ExtendedMapping::VarState::kUnconstrained: {
              // Guess the extent [idx, j') — but it may not swallow a
              // partial bracket; Goal(z, ...) fails naturally then.
              auto jumps_it = cf.jumps.find(z);
              if (jumps_it == cf.jumps.end()) break;
              for (size_t jp = idx; jp <= j; ++jp) {
                if (!Goal(z, idx, jp)) continue;
                for (const BracketJump& bj : jumps_it->second)
                  if (bj.open_from == q) push(bj.close_to, jp);
              }
              break;
            }
          }
          break;
        }
        case TransKind::kClose:
          break;  // closes are consumed by bracket jumps only
      }
    }
  }
  return false;
}

}  // namespace

bool EvalTreeRule(const ExtractionRule& rule, const Document& doc,
                  const ExtendedMapping& mu) {
  SPANNERS_DCHECK(ValidateTreeRule(rule).ok());
  TreeEvaluator ev(rule, doc, mu);
  return ev.Run();
}

MappingSet EnumerateTreeRule(const ExtractionRule& rule,
                             const Document& doc) {
  MappingEnumerator e(rule.AllVars(), doc,
                      [&rule, &doc](const ExtendedMapping& mu) {
                        return EvalTreeRule(rule, doc, mu);
                      });
  return e.Drain();
}

}  // namespace spanners
