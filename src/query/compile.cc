#include "query/compile.h"

#include <cstring>
#include <optional>
#include <utility>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "common/arena.h"
#include "common/logging.h"
#include "obs/span.h"

namespace spanners {
namespace query {

namespace {

/// Per-operator inclusive time (a node's span covers its children — join
/// time includes the build/probe scans it drives), so query.join_ns on a
/// join-rooted tree reads as whole-document algebra time and the inner
/// operators show where it went.
struct QueryMetrics {
  obs::Histogram* union_ns;
  obs::Histogram* project_ns;
  obs::Histogram* select_ns;
  obs::Histogram* join_ns;
};

const QueryMetrics& Metrics() {
  static const QueryMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    QueryMetrics m;
    m.union_ns = r.GetHistogram("query.union_ns");
    m.project_ns = r.GetHistogram("query.project_ns");
    m.select_ns = r.GetHistogram("query.select_ns");
    m.join_ns = r.GetHistogram("query.join_ns");
    return m;
  }();
  return m;
}

}  // namespace

// ---- physical operator tree ---------------------------------------------

/// Base of the lowered operators. Evaluate() pushes every result mapping
/// of `doc` into `sink` exactly once (the uniqueness invariant every node
/// maintains, so no global dedup pass is needed). Transient operator state
/// (join tables, dedup sets) lives in scratch->query_arena, which the
/// CompiledQuery resets once per document — leaf extraction resets only
/// scratch->arena, so operator state survives nested scans.
class PhysicalNode {
 public:
  virtual ~PhysicalNode() = default;

  const VarSet& vars() const { return vars_; }
  virtual void Evaluate(const Document& doc, engine::PlanScratch* scratch,
                        MappingSink& sink) const = 0;
  virtual void Describe(std::string* out) const = 0;
  /// Appends the scan leaves' plans in Describe() order.
  virtual void CollectScans(
      std::vector<std::shared_ptr<const engine::ExtractionPlan>>* out)
      const = 0;

 protected:
  explicit PhysicalNode(VarSet vars) : vars_(std::move(vars)) {}

 private:
  VarSet vars_;
};

namespace {

using engine::ExtractionPlan;
using engine::PlanCache;
using engine::PlanScratch;

using NodePtr = std::shared_ptr<const PhysicalNode>;

// Flattens a mapping into the canonical var-sorted tuple form the flat
// sets hash. `buf` must hold at least m.size() tuples.
uint32_t ToTuples(const Mapping& m, SpanTuple* buf) {
  uint32_t n = 0;
  for (const Mapping::Entry& e : m.entries())
    buf[n++] = SpanTuple{e.var, e.span.begin, e.span.end};
  return n;
}

// µ_a ∪ µ_b for mappings already known compatible, merged into `entries`
// (recycled pool storage) by a linear merge.
Mapping MergeCompatible(const Mapping& a, const Mapping& b,
                        std::vector<Mapping::Entry> entries) {
  entries.clear();
  auto ai = a.entries().begin(), ae = a.entries().end();
  auto bi = b.entries().begin(), be = b.entries().end();
  while (ai != ae && bi != be) {
    if (ai->var < bi->var) {
      entries.push_back(*ai++);
    } else if (bi->var < ai->var) {
      entries.push_back(*bi++);
    } else {
      entries.push_back(*ai);  // shared var: both agree
      ++ai, ++bi;
    }
  }
  entries.insert(entries.end(), ai, ae);
  entries.insert(entries.end(), bi, be);
  return Mapping::FromSortedEntries(std::move(entries));
}

// Forwards only first occurrences; duplicates are recycled. The tuple
// buffer and the set's storage live in the query arena.
class DedupSink : public MappingSink {
 public:
  DedupSink(Arena* arena, size_t max_vars, MappingSink& next)
      : set_(arena),
        buf_(arena->AllocateArray<SpanTuple>(max_vars > 0 ? max_vars : 1)),
        next_(next) {}

  bool Push(Mapping m) override {
    if (!set_.Insert(buf_, ToTuples(m, buf_))) {
      MappingPool::RecycleInto(next_.pool(), std::move(m));
      return true;
    }
    return next_.Push(std::move(m));
  }
  MappingPool* pool() override { return next_.pool(); }

 private:
  FlatMappingSet set_;
  SpanTuple* buf_;
  MappingSink& next_;
};

class ScanNode final : public PhysicalNode {
 public:
  explicit ScanNode(std::shared_ptr<const ExtractionPlan> plan)
      : PhysicalNode(plan->vars()), plan_(std::move(plan)) {}

  void Evaluate(const Document& doc, PlanScratch* scratch,
                MappingSink& sink) const override {
    plan_->ExtractTo(doc, scratch, sink);
  }
  void Describe(std::string* out) const override {
    *out += "scan[" + plan_->pattern() + "]";
  }
  void CollectScans(
      std::vector<std::shared_ptr<const ExtractionPlan>>* out) const override {
    out->push_back(plan_);
  }

 private:
  std::shared_ptr<const ExtractionPlan> plan_;
};

// Residual union (operands that did not fuse into one VA): children
// evaluate sequentially through a shared dedup.
class UnionNode final : public PhysicalNode {
 public:
  UnionNode(NodePtr a, NodePtr b)
      : PhysicalNode(a->vars().Union(b->vars())),
        left_(std::move(a)),
        right_(std::move(b)) {}

  void Evaluate(const Document& doc, PlanScratch* scratch,
                MappingSink& sink) const override {
    obs::ObsSpan span(Metrics().union_ns, "query.union");
    DedupSink dedup(&scratch->query_arena, vars().size(), sink);
    left_->Evaluate(doc, scratch, dedup);
    // A trip during the left operand makes the whole union dead work.
    if (scratch->cancel != nullptr && scratch->cancel->tripped()) return;
    right_->Evaluate(doc, scratch, dedup);
  }
  void Describe(std::string* out) const override {
    *out += "union(";
    left_->Describe(out);
    *out += ", ";
    right_->Describe(out);
    *out += ")";
  }
  void CollectScans(
      std::vector<std::shared_ptr<const ExtractionPlan>>* out) const override {
    left_->CollectScans(out);
    right_->CollectScans(out);
  }

 private:
  NodePtr left_, right_;
};

// Residual projection: project each streamed mapping, dedup (projection
// can collapse distinct inputs), forward.
class ProjectNode final : public PhysicalNode {
 public:
  // vars() doubles as the effective keep set (keep ∩ input vars).
  ProjectNode(NodePtr input, VarSet keep)
      : PhysicalNode(input->vars().Intersect(keep)),
        input_(std::move(input)) {}

  void Evaluate(const Document& doc, PlanScratch* scratch,
                MappingSink& sink) const override {
    obs::ObsSpan span(Metrics().project_ns, "query.project");
    DedupSink dedup(&scratch->query_arena, vars().size(), sink);
    struct Projector final : MappingSink {
      const VarSet& keep;
      MappingSink& next;
      Projector(const VarSet& k, MappingSink& n) : keep(k), next(n) {}
      bool Push(Mapping m) override {
        MappingPool* p = next.pool();
        std::vector<Mapping::Entry> entries = MappingPool::AcquireFrom(p);
        for (const Mapping::Entry& e : m.entries())
          if (keep.Contains(e.var)) entries.push_back(e);
        Mapping projected = Mapping::FromSortedEntries(std::move(entries));
        MappingPool::RecycleInto(p, std::move(m));
        return next.Push(std::move(projected));
      }
      MappingPool* pool() override { return next.pool(); }
    } projector(vars(), dedup);
    input_->Evaluate(doc, scratch, projector);
  }
  void Describe(std::string* out) const override {
    *out += "project[" + vars().ToString() + "](";
    input_->Describe(out);
    *out += ")";
  }
  void CollectScans(
      std::vector<std::shared_ptr<const ExtractionPlan>>* out) const override {
    input_->CollectScans(out);
  }

 private:
  NodePtr input_;
};

// String-equality selection ς=_{x,y}: keeps mappings assigning both
// variables spans with equal document content.
class SelectEqNode final : public PhysicalNode {
 public:
  SelectEqNode(NodePtr input, VarId x, VarId y)
      : PhysicalNode(input->vars()), input_(std::move(input)), x_(x), y_(y) {}

  void Evaluate(const Document& doc, PlanScratch* scratch,
                MappingSink& sink) const override {
    obs::ObsSpan span(Metrics().select_ns, "query.select");
    struct Filter final : MappingSink {
      const Document& doc;
      VarId x, y;
      MappingSink& next;
      Filter(const Document& d, VarId vx, VarId vy, MappingSink& n)
          : doc(d), x(vx), y(vy), next(n) {}
      bool Push(Mapping m) override {
        std::optional<Span> sx = m.Get(x), sy = m.Get(y);
        if (!sx || !sy || doc.content(*sx) != doc.content(*sy)) {
          MappingPool::RecycleInto(next.pool(), std::move(m));
          return true;
        }
        return next.Push(std::move(m));
      }
      MappingPool* pool() override { return next.pool(); }
    } filter(doc, x_, y_, sink);
    input_->Evaluate(doc, scratch, filter);
  }
  void Describe(std::string* out) const override {
    *out += "select_eq[" + Variable::Name(x_) + "=" + Variable::Name(y_) +
            "](";
    input_->Describe(out);
    *out += ")";
  }
  void CollectScans(
      std::vector<std::shared_ptr<const ExtractionPlan>>* out) const override {
    input_->CollectScans(out);
  }

 private:
  NodePtr input_;
  VarId x_, y_;
};

// Natural join. The left (build) side is materialized and indexed in the
// query arena; the right (probe) side streams through. Because the
// paper's mappings are partial, hashing only covers build mappings that
// assign *every* shared variable (the common case — functional fragments
// are total): a probe total on the shared set is compatible with a total
// build mapping iff their shared span tuples are byte-equal, which one
// chained-hash lookup decides. Mappings missing a shared variable fall
// back to a compatibility scan. Output pairs merge by linear entry merge
// and dedup (distinct pairs can union to the same mapping).
class JoinNode final : public PhysicalNode {
 public:
  JoinNode(NodePtr build, NodePtr probe)
      : PhysicalNode(build->vars().Union(probe->vars())),
        shared_(build->vars().Intersect(probe->vars())),
        build_(std::move(build)),
        probe_(std::move(probe)) {}

  void Evaluate(const Document& doc, PlanScratch* scratch,
                MappingSink& sink) const override {
    obs::ObsSpan span(Metrics().join_ns, "query.join");
    Arena* arena = &scratch->query_arena;
    MappingPool* pool = sink.pool();

    // 1. Materialize the build side; its mappings draw from the shared
    // pool and are recycled back once the probe phase is done with them.
    std::vector<Mapping> build;
    VectorSink collect(&build, pool);
    build_->Evaluate(doc, scratch, collect);
    // A trip during the build makes it a partial, meaningless relation:
    // skip indexing and probing (the caller reads the token and discards).
    if (scratch->cancel != nullptr && scratch->cancel->tripped()) {
      if (pool != nullptr) pool->RecycleAll(&build);
      return;
    }
    if (build.empty()) return;  // ⋈ with ∅ is ∅; skip the probe entirely

    // 2. Index it: chained hash over shared-var key tuples for mappings
    // total on shared_, a scan list for the rest.
    const uint32_t nshared = static_cast<uint32_t>(shared_.size());
    Index index(arena, build, shared_, nshared);

    // 3. Stream the probe side through the index into a dedup. The
    // prober polls the token itself: its compatibility scans are
    // O(|build|) per probe mapping, a loop no leaf evaluator bounds.
    DedupSink dedup(arena, vars().size(), sink);
    Prober prober(index, build, shared_, nshared, arena, dedup,
                  scratch->cancel);
    probe_->Evaluate(doc, scratch, prober);

    // Output mappings were merged copies; the build side is dead now.
    if (pool != nullptr) pool->RecycleAll(&build);
  }

  void Describe(std::string* out) const override {
    *out += "join(";
    build_->Describe(out);
    *out += ", ";
    probe_->Describe(out);
    *out += ")";
  }
  void CollectScans(
      std::vector<std::shared_ptr<const ExtractionPlan>>* out) const override {
    build_->CollectScans(out);
    probe_->CollectScans(out);
  }

 private:
  // Writes µ's spans on the shared variables into `key` (var-sorted).
  // Returns false when µ leaves some shared variable unassigned.
  static bool SharedKey(const Mapping& m, const VarSet& shared, SpanTuple* key) {
    uint32_t n = 0;
    for (VarId v : shared) {
      std::optional<Span> s = m.Get(v);
      if (!s) return false;
      key[n++] = SpanTuple{v, s->begin, s->end};
    }
    return true;
  }

  struct Index {
    uint32_t mask = 0;
    int32_t* heads = nullptr;      // capacity slots, -1 == empty
    int32_t* next = nullptr;       // chain links, one per total mapping
    uint32_t* total = nullptr;     // indices into the build vector
    uint64_t* hashes = nullptr;    // key hash per total mapping
    SpanTuple* keys = nullptr;     // n_total × nshared key tuples
    uint32_t n_total = 0;
    std::vector<uint32_t> partial;  // build indices missing a shared var

    Index(Arena* arena, const std::vector<Mapping>& build,
          const VarSet& shared, uint32_t nshared) {
      const uint32_t n = static_cast<uint32_t>(build.size());
      total = arena->AllocateArray<uint32_t>(n);
      // Sized for the all-total upper bound so one classification pass
      // can write each key in place.
      keys = arena->AllocateArray<SpanTuple>(
          size_t{n} * nshared > 0 ? size_t{n} * nshared : 1);
      for (uint32_t i = 0; i < n; ++i) {
        SpanTuple* slot = keys + size_t{n_total} * nshared;
        if (SharedKey(build[i], shared, slot))
          total[n_total++] = i;
        else
          partial.push_back(i);
      }
      uint32_t capacity = 16;
      while (capacity < 2 * n_total) capacity *= 2;
      mask = capacity - 1;
      heads = arena->AllocateArray<int32_t>(capacity);
      std::memset(heads, 0xff, capacity * sizeof(int32_t));
      next = arena->AllocateArray<int32_t>(n_total ? n_total : 1);
      hashes = arena->AllocateArray<uint64_t>(n_total ? n_total : 1);
      for (uint32_t t = 0; t < n_total; ++t) {
        hashes[t] = FlatMappingSet::Hash(keys + size_t{t} * nshared, nshared);
        const size_t bucket = hashes[t] & mask;
        next[t] = heads[bucket];
        heads[bucket] = static_cast<int32_t>(t);
      }
    }
  };

  class Prober final : public MappingSink {
   public:
    Prober(const Index& index, const std::vector<Mapping>& build,
           const VarSet& shared, uint32_t nshared, Arena* arena,
           MappingSink& next, CancelToken* cancel)
        : index_(index),
          build_(build),
          shared_(shared),
          nshared_(nshared),
          key_(arena->AllocateArray<SpanTuple>(nshared > 0 ? nshared : 1)),
          next_(next),
          gauge_(cancel, arena) {}

    bool Push(Mapping p) override {
      MappingPool* pool = next_.pool();
      // Returning false stops the probe-side producer; the join output so
      // far is partial and the caller discards it via the token.
      if (gauge_.ShouldStop()) {
        MappingPool::RecycleInto(pool, std::move(p));
        return false;
      }
      if (SharedKey(p, shared_, key_)) {
        // Hash path over total build mappings.
        const uint64_t h = FlatMappingSet::Hash(key_, nshared_);
        for (int32_t t = index_.heads[h & index_.mask]; t >= 0;
             t = index_.next[t]) {
          if (gauge_.ShouldStop()) break;
          if (index_.hashes[t] != h) continue;
          const SpanTuple* bk =
              index_.keys + static_cast<size_t>(t) * nshared_;
          if (std::memcmp(bk, key_, nshared_ * sizeof(SpanTuple)) != 0)
            continue;
          const Mapping& b = build_[index_.total[t]];
          next_.Push(MergeCompatible(b, p, MappingPool::AcquireFrom(pool)));
        }
      } else {
        // Probe missing a shared variable: compatibility scan over every
        // total build mapping.
        for (uint32_t t = 0; t < index_.n_total; ++t) {
          if (gauge_.ShouldStop()) break;
          const Mapping& b = build_[index_.total[t]];
          if (p.CompatibleWith(b))
            next_.Push(MergeCompatible(b, p, MappingPool::AcquireFrom(pool)));
        }
      }
      // Partial build mappings always need the compatibility scan.
      for (uint32_t i : index_.partial) {
        if (gauge_.ShouldStop()) break;
        const Mapping& b = build_[i];
        if (p.CompatibleWith(b))
          next_.Push(MergeCompatible(b, p, MappingPool::AcquireFrom(pool)));
      }
      MappingPool::RecycleInto(pool, std::move(p));
      return true;
    }
    // Probe mappings are consumed here, so their storage cycles through
    // the downstream pool: producers draw from it, Push recycles into it.
    MappingPool* pool() override { return next_.pool(); }

   private:
    const Index& index_;
    const std::vector<Mapping>& build_;
    const VarSet& shared_;
    uint32_t nshared_;
    SpanTuple* key_;
    MappingSink& next_;
    CancelGauge gauge_;
  };

  VarSet shared_;
  NodePtr build_, probe_;
};

// ---- lowering -----------------------------------------------------------

// A subtree still representable as one automaton: the VA, the equivalent
// formula when every constituent had one (keeps the plan's fragment
// analysis exact), and the canonical text as cache key.
struct VaPart {
  VA va;
  RgxPtr rgx;
  std::string key;
};

// Exactly one of the two members is set.
struct Lowered {
  std::optional<VaPart> va;
  NodePtr node;
};

// Cached (keyed) or private plan construction, the single wrapper both
// leaf kinds and scan boundaries share. `canonical` is the expression
// text; the cache entry lives under QueryPlanCacheKey(canonical) so it
// can never alias a raw pattern cached via GetOrCompile, while the plan
// itself keeps the unprefixed text as its display pattern.
Result<std::shared_ptr<const ExtractionPlan>> CachedPlan(
    const std::string& canonical, PlanCache* cache,
    const PlanCache::PlanFactory& factory) {
  if (cache != nullptr)
    return cache->GetOrInsert(QueryPlanCacheKey(canonical), factory);
  Result<ExtractionPlan> plan = factory();
  if (!plan.ok()) return plan.status();
  return std::make_shared<const ExtractionPlan>(std::move(plan).value());
}

Result<std::shared_ptr<const ExtractionPlan>> PlanFor(
    const VaPart& part, PlanCache* cache) {
  return CachedPlan(part.key, cache, [&part]() -> Result<ExtractionPlan> {
    Spanner s = part.rgx != nullptr ? Spanner::FromRgx(part.rgx)
                                    : Spanner::FromVa(part.va);
    return ExtractionPlan::FromSpanner(std::move(s), part.key);
  });
}

Result<NodePtr> ToNode(Lowered lowered, PlanCache* cache) {
  if (lowered.node != nullptr) return lowered.node;
  SPANNERS_ASSIGN_OR_RETURN(std::shared_ptr<const ExtractionPlan> plan,
                            PlanFor(*lowered.va, cache));
  return NodePtr(std::make_shared<ScanNode>(std::move(plan)));
}

Result<Lowered> Lower(const ExprPtr& expr, PlanCache* cache) {
  switch (expr->kind()) {
    case SpannerExpr::Kind::kPattern: {
      // The leaf plan goes through the cache even when the leaf later
      // fuses into a larger automaton, so its compilation is shared.
      VaPart part{VA(), expr->rgx(), expr->ToString()};
      SPANNERS_ASSIGN_OR_RETURN(std::shared_ptr<const ExtractionPlan> plan,
                                PlanFor(part, cache));
      part.va = plan->spanner().va();
      return Lowered{std::move(part), nullptr};
    }
    case SpannerExpr::Kind::kRules: {
      const std::string key = expr->ToString();
      SPANNERS_ASSIGN_OR_RETURN(
          std::shared_ptr<const ExtractionPlan> plan,
          CachedPlan(key, cache, [&expr, &key] {
            return ExtractionPlan::FromRuleProgram(expr->rules(), key);
          }));
      return Lowered{VaPart{plan->spanner().va(), plan->spanner().rgx(), key},
                     nullptr};
    }
    case SpannerExpr::Kind::kUnion: {
      SPANNERS_ASSIGN_OR_RETURN(Lowered a, Lower(expr->child(0), cache));
      SPANNERS_ASSIGN_OR_RETURN(Lowered b, Lower(expr->child(1), cache));
      if (a.va.has_value() && b.va.has_value()) {
        // Theorem 4.5 pushdown: one ε-branch automaton, one scan.
        RgxPtr rgx = (a.va->rgx != nullptr && b.va->rgx != nullptr)
                         ? RgxNode::Disj(a.va->rgx, b.va->rgx)
                         : nullptr;
        return Lowered{VaPart{UnionVa(a.va->va, b.va->va), std::move(rgx),
                              expr->ToString()},
                       nullptr};
      }
      SPANNERS_ASSIGN_OR_RETURN(NodePtr na, ToNode(std::move(a), cache));
      SPANNERS_ASSIGN_OR_RETURN(NodePtr nb, ToNode(std::move(b), cache));
      return Lowered{std::nullopt, std::make_shared<UnionNode>(na, nb)};
    }
    case SpannerExpr::Kind::kProject: {
      SPANNERS_ASSIGN_OR_RETURN(Lowered in, Lower(expr->child(0), cache));
      if (in.va.has_value()) {
        // π pushdown into the automaton (dropped variables stay
        // run-checked); no RGX form survives projection.
        return Lowered{VaPart{ProjectVa(in.va->va, expr->keep()), nullptr,
                              expr->ToString()},
                       nullptr};
      }
      SPANNERS_ASSIGN_OR_RETURN(NodePtr n, ToNode(std::move(in), cache));
      return Lowered{std::nullopt,
                     std::make_shared<ProjectNode>(n, expr->keep())};
    }
    case SpannerExpr::Kind::kNaturalJoin: {
      // Deliberately not JoinVa: the product construction carries the
      // exponential state blow-up the paper predicts, so join always
      // evaluates relationally over the two children's streams.
      SPANNERS_ASSIGN_OR_RETURN(Lowered a, Lower(expr->child(0), cache));
      SPANNERS_ASSIGN_OR_RETURN(Lowered b, Lower(expr->child(1), cache));
      SPANNERS_ASSIGN_OR_RETURN(NodePtr na, ToNode(std::move(a), cache));
      SPANNERS_ASSIGN_OR_RETURN(NodePtr nb, ToNode(std::move(b), cache));
      return Lowered{std::nullopt, std::make_shared<JoinNode>(na, nb)};
    }
    case SpannerExpr::Kind::kSelectEq: {
      SPANNERS_ASSIGN_OR_RETURN(Lowered in, Lower(expr->child(0), cache));
      SPANNERS_ASSIGN_OR_RETURN(NodePtr n, ToNode(std::move(in), cache));
      return Lowered{std::nullopt, std::make_shared<SelectEqNode>(
                                       n, expr->eq_x(), expr->eq_y())};
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

// ---- CompiledQuery ------------------------------------------------------

std::string QueryPlanCacheKey(const std::string& canonical_text) {
  return ")" + canonical_text;
}

CompiledQuery::CompiledQuery(std::shared_ptr<const PhysicalNode> root,
                             VarSet vars, std::string text)
    : root_(std::move(root)), vars_(std::move(vars)), text_(std::move(text)) {}

Result<CompiledQuery> CompiledQuery::Compile(
    const ExprPtr& expr, const QueryCompileOptions& options) {
  SPANNERS_CHECK(expr != nullptr);
  SPANNERS_ASSIGN_OR_RETURN(Lowered lowered, Lower(expr, options.cache));
  SPANNERS_ASSIGN_OR_RETURN(NodePtr root,
                            ToNode(std::move(lowered), options.cache));
  return CompiledQuery(std::move(root), expr->vars(), expr->ToString());
}

std::string CompiledQuery::PlanString() const {
  std::string out;
  root_->Describe(&out);
  return out;
}

std::vector<std::shared_ptr<const engine::ExtractionPlan>>
CompiledQuery::scan_plans() const {
  std::vector<std::shared_ptr<const engine::ExtractionPlan>> out;
  root_->CollectScans(&out);
  return out;
}

size_t CompiledQuery::num_scans() const { return scan_plans().size(); }

MappingSet CompiledQuery::Extract(const Document& doc) const {
  engine::PlanScratch scratch;
  std::vector<Mapping> out;
  ExtractSortedInto(doc, &scratch, &out);
  return MappingSet(std::move(out));
}

void CompiledQuery::ExtractSortedInto(const Document& doc,
                                      engine::PlanScratch* scratch,
                                      std::vector<Mapping>* out) const {
  scratch->pool.RecycleAll(out);  // previous results refill the pool
  scratch->query_arena.Reset();
  VectorSink sink(out, &scratch->pool);
  root_->Evaluate(doc, scratch, sink);
  std::sort(out->begin(), out->end());
}

void CompiledQuery::ExtractTo(const Document& doc,
                              engine::PlanScratch* scratch,
                              MappingSink& sink) const {
  scratch->query_arena.Reset();
  root_->Evaluate(doc, scratch, sink);
}

}  // namespace query
}  // namespace spanners
