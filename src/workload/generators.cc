#include "workload/generators.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parse.h"
#include "rgx/analysis.h"
#include "rgx/parser.h"

namespace spanners {
namespace workload {

Document RandomDocument(std::string_view letters, size_t length,
                        std::mt19937* rng) {
  SPANNERS_CHECK(!letters.empty());
  std::uniform_int_distribution<size_t> pick(0, letters.size() - 1);
  std::string text;
  text.reserve(length);
  for (size_t i = 0; i < length; ++i) text.push_back(letters[pick(*rng)]);
  return Document(std::move(text));
}

namespace {

// Recursive generator. `vars` is the pool still available on this branch
// (consumed when sequential_only / functional_only to keep varsets
// disjoint across concatenations and single-use under stars).
RgxPtr Gen(const RandomRgxOptions& o, size_t depth,
           std::vector<VarId>* vars, std::mt19937* rng) {
  std::uniform_int_distribution<int> kind_pick(0, 9);
  std::uniform_int_distribution<size_t> letter_pick(0, o.letters.size() - 1);
  int kind = depth == 0 ? kind_pick(*rng) % 3 : kind_pick(*rng);
  switch (kind) {
    case 0:
      return RgxNode::Epsilon();
    case 1:
    case 2:
      return RgxNode::Lit(o.letters[letter_pick(*rng)]);
    case 3:
    case 4: {  // concatenation
      RgxPtr left = Gen(o, depth - 1, vars, rng);
      RgxPtr right = Gen(o, depth - 1, vars, rng);
      if ((o.sequential_only || o.functional_only) &&
          !RgxVars(left).DisjointWith(RgxVars(right)))
        return left;  // discard the clashing half
      return RgxNode::Concat(left, right);
    }
    case 5:
    case 6: {  // disjunction
      RgxPtr left = Gen(o, depth - 1, vars, rng);
      RgxPtr right = Gen(o, depth - 1, vars, rng);
      if (o.functional_only && !(RgxVars(left) == RgxVars(right)))
        return left;  // functional disjuncts must bind the same variables
      return RgxNode::Disj(left, right);
    }
    case 7: {  // star
      if (o.sequential_only || o.functional_only) {
        // Variable-free body required.
        RandomRgxOptions letters_only = o;
        letters_only.num_vars = 0;
        std::vector<VarId> none;
        return RgxNode::Star(Gen(letters_only, depth - 1, &none, rng));
      }
      return RgxNode::Star(Gen(o, depth - 1, vars, rng));
    }
    default: {  // variable
      if (vars->empty()) return RgxNode::Lit(o.letters[letter_pick(*rng)]);
      std::uniform_int_distribution<size_t> var_pick(0, vars->size() - 1);
      size_t i = var_pick(*rng);
      VarId x = (*vars)[i];
      if (o.sequential_only || o.functional_only)
        vars->erase(vars->begin() + i);  // single use per branch
      if (o.span_rgx_only) return RgxNode::SpanVar(x);
      RgxPtr body = Gen(o, depth == 0 ? 0 : depth - 1, vars, rng);
      if (RgxVars(body).Contains(x)) body = RgxNode::AnyStar();
      return RgxNode::Var(x, body);
    }
  }
}

}  // namespace

RgxPtr RandomRgx(const RandomRgxOptions& options, std::mt19937* rng) {
  std::vector<VarId> vars;
  for (size_t i = 0; i < options.num_vars; ++i)
    vars.push_back(Variable::Intern("x" + std::to_string(i)));
  RgxPtr out = Gen(options, options.max_depth, &vars, rng);
  if (options.sequential_only) {
    SPANNERS_DCHECK(IsSequential(out));
  }
  return out;
}

VA RandomVa(size_t num_states, size_t num_vars, std::string_view letters,
            std::mt19937* rng) {
  SPANNERS_CHECK(num_states >= 2);
  VA a;
  a.AddStates(num_states);
  a.SetInitial(0);
  a.AddFinal(static_cast<StateId>(num_states - 1));
  std::uniform_int_distribution<StateId> state_pick(
      0, static_cast<StateId>(num_states - 1));
  std::uniform_int_distribution<size_t> letter_pick(0, letters.size() - 1);
  std::uniform_int_distribution<int> kind_pick(0, 9);

  // A skeleton path guarantees satisfiability most of the time.
  for (StateId q = 0; q + 1 < num_states; ++q)
    a.AddChar(q, CharSet::Of(letters[letter_pick(*rng)]), q + 1);

  size_t extra = num_states * 2;
  for (size_t i = 0; i < extra; ++i) {
    StateId from = state_pick(*rng);
    StateId to = state_pick(*rng);
    int kind = kind_pick(*rng);
    if (kind < 4) {
      a.AddChar(from, CharSet::Of(letters[letter_pick(*rng)]), to);
    } else if (kind < 6) {
      a.AddEpsilon(from, to);
    } else if (num_vars > 0) {
      std::uniform_int_distribution<size_t> var_pick(0, num_vars - 1);
      VarId x = Variable::Intern("v" + std::to_string(var_pick(*rng)));
      if (kind % 2 == 0) {
        a.AddOpen(from, x, to);
      } else {
        a.AddClose(from, x, to);
      }
    }
  }
  return a.Trimmed();
}

Document LandRegistryDocument(const LandRegistryOptions& options) {
  std::mt19937 rng(options.seed);
  static const char* kFirst[] = {"John", "Marcelo", "Mark",  "Ana",
                                 "Lucia", "Pedro",   "Sofia", "Diego"};
  std::uniform_int_distribution<size_t> name_pick(0, 7);
  std::uniform_int_distribution<int> id_pick(1, 999);
  std::uniform_int_distribution<int> tax_pick(1000, 99999);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  std::string text;
  for (size_t i = 0; i < options.rows; ++i) {
    bool buyer = coin(rng) < options.buyer_probability;
    text += buyer ? "Buyer: " : "Seller: ";
    text += kFirst[name_pick(rng)];
    text += ", ID" + std::to_string(id_pick(rng));
    if (buyer) {
      text += ", P" + std::to_string(id_pick(rng));
    } else if (coin(rng) < options.tax_probability) {
      text += ", $" + std::to_string(tax_pick(rng));
    }
    text += "\n";
  }
  return Document(std::move(text));
}

RgxPtr SellerNameRgx() {
  static const RgxPtr kRgx =
      ParseRgx(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  return kRgx;
}

RgxPtr SellerNameTaxRgx() {
  // Σ*·"Seller: "·x{R1}·","·R1·(", $"·y{digits} ∨ ε)·"\n"·Σ*  with
  // R1 = (Σ − {, \n})*.
  static const RgxPtr kRgx =
      ParseRgx(
          ".*Seller: (x{[^,\\n]*}),[^,\\n]*(, \\$(y{[0-9]*})|\\e)\\n.*")
          .ValueOrDie();
  return kRgx;
}

Document ServerLogDocument(const LogOptions& options) {
  std::mt19937 rng(options.seed);
  static const char* kMethods[] = {"GET", "POST", "PUT"};
  static const char* kPaths[] = {"/", "/a", "/a/b", "/index", "/q/r/s"};
  static const char* kCauses[] = {"timeout", "refused", "oom"};
  std::uniform_int_distribution<int> host_pick(1, 20);
  std::uniform_int_distribution<size_t> m_pick(0, 2);
  std::uniform_int_distribution<size_t> p_pick(0, 4);
  std::uniform_int_distribution<size_t> c_pick(0, 2);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  std::string text;
  for (size_t i = 0; i < options.lines; ++i) {
    bool err = coin(rng) < options.error_probability;
    text += "host" + std::to_string(host_pick(rng));
    text += " ";
    text += kMethods[m_pick(rng)];
    text += " ";
    text += kPaths[p_pick(rng)];
    text += err ? " 500" : " 200";
    if (err) {
      text += " err=";
      text += kCauses[c_pick(rng)];
    }
    text += "\n";
  }
  return Document(std::move(text));
}

RgxPtr LogLineRgx() {
  // method + path + optional error cause; cause stays unassigned for
  // successful requests (mapping-based incomplete information).
  static const RgxPtr kRgx =
      ParseRgx(
          "(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) (p{[^ \\n]*}) "
          "[0-9]+( err=(c{[a-z]+})|\\e)\\n.*")
          .ValueOrDie();
  return kRgx;
}

std::vector<Document> NeedleCorpus(const NeedleOptions& options) {
  std::vector<Document> docs;
  docs.reserve(options.documents);
  static const char* kCodes[] = {"OOM", "TIMEOUT", "REFUSED", "EIO"};
  for (size_t d = 0; d < options.documents; ++d) {
    std::mt19937 rng(options.seed + static_cast<uint32_t>(d));
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> line_len(30, 60);
    std::uniform_int_distribution<int> letter(0, 25);
    const bool has_needle = coin(rng) < options.match_rate;

    std::vector<std::string> lines;
    size_t bytes = 0;
    while (bytes < options.doc_bytes) {
      std::string line;
      const int len = line_len(rng);
      for (int j = 0; j < len; ++j)
        line += j % 8 == 7 ? ' ' : static_cast<char>('a' + letter(rng));
      line += '\n';
      bytes += line.size();
      lines.push_back(std::move(line));
    }
    if (has_needle) {
      std::uniform_int_distribution<int> id_pick(1, 999);
      std::uniform_int_distribution<size_t> code_pick(0, 3);
      std::uniform_int_distribution<size_t> pos_pick(0, lines.size());
      std::string needle = "ALERT id=" + std::to_string(id_pick(rng)) +
                           " code=" + kCodes[code_pick(rng)] + "\n";
      lines.insert(lines.begin() + pos_pick(rng), std::move(needle));
    }
    std::string text;
    text.reserve(bytes + 24);
    for (const std::string& line : lines) text += line;
    docs.push_back(Document(std::move(text)));
  }
  return docs;
}

RgxPtr NeedleRgx() {
  static const RgxPtr kRgx =
      ParseRgx(".*ALERT id=(x{[0-9]+}) code=(y{[A-Z]+})\\n.*").ValueOrDie();
  return kRgx;
}

std::vector<Document> BombCorpus(const BombOptions& options) {
  std::vector<Document> docs;
  docs.reserve(options.documents);
  for (size_t d = 0; d < options.documents; ++d)
    docs.push_back(Document(std::string(options.doc_bytes, 'a')));
  return docs;
}

std::string PathologicalRgxText() { return ".*x{a*}.*"; }

RgxPtr PathologicalRgx() {
  static const RgxPtr kRgx = ParseRgx(".*x{a*}.*").ValueOrDie();
  return kRgx;
}

namespace {

// "EVT00".."EVT99" (wider past 100): uppercase + digits, unspellable by
// the lowercase filler alphabet.
std::string FleetTag(size_t p) {
  std::string n = std::to_string(p);
  if (n.size() < 2) n.insert(n.begin(), '0');
  return "EVT" + n;
}

}  // namespace

PatternFleet MakePatternFleet(const FleetOptions& options) {
  PatternFleet fleet;
  fleet.patterns.reserve(options.num_patterns);
  for (size_t p = 0; p < options.num_patterns; ++p)
    fleet.patterns.push_back(".*" + FleetTag(p) +
                             " id=(x{[0-9]+}) code=(y{[A-Z]+})\\n.*");

  static const char* kCodes[] = {"OOM", "TIMEOUT", "REFUSED", "EIO"};
  fleet.documents.reserve(options.documents);
  for (size_t d = 0; d < options.documents; ++d) {
    std::mt19937 rng(options.seed + static_cast<uint32_t>(d));
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> line_len(30, 60);
    std::uniform_int_distribution<int> letter(0, 25);

    std::vector<std::string> lines;
    size_t bytes = 0;
    while (bytes < options.doc_bytes) {
      std::string line;
      const int len = line_len(rng);
      for (int j = 0; j < len; ++j)
        line += j % 8 == 7 ? ' ' : static_cast<char>('a' + letter(rng));
      line += '\n';
      bytes += line.size();
      lines.push_back(std::move(line));
    }
    // Each fleet member rolls independently, in pattern order, so the
    // corpus is identical however many of the patterns a run compiles.
    std::uniform_int_distribution<int> id_pick(1, 999);
    std::uniform_int_distribution<size_t> code_pick(0, 3);
    for (size_t p = 0; p < options.num_patterns; ++p) {
      if (coin(rng) >= options.match_rate) continue;
      std::uniform_int_distribution<size_t> pos_pick(0, lines.size());
      std::string needle = FleetTag(p) + " id=" +
                           std::to_string(id_pick(rng)) +
                           " code=" + kCodes[code_pick(rng)] + "\n";
      lines.insert(lines.begin() + pos_pick(rng), std::move(needle));
    }
    std::string text;
    text.reserve(bytes + 24);
    for (const std::string& line : lines) text += line;
    fleet.documents.push_back(Document(std::move(text)));
  }
  return fleet;
}

std::vector<Document> LandRegistryCorpus(const CorpusOptions& options) {
  std::vector<Document> docs;
  docs.reserve(options.documents);
  for (size_t i = 0; i < options.documents; ++i) {
    LandRegistryOptions o;
    o.rows = options.rows_per_document;
    o.seed = options.seed + static_cast<uint32_t>(i);
    docs.push_back(LandRegistryDocument(o));
  }
  return docs;
}

std::vector<Document> ServerLogCorpus(const CorpusOptions& options) {
  std::vector<Document> docs;
  docs.reserve(options.documents);
  for (size_t i = 0; i < options.documents; ++i) {
    LogOptions o;
    o.lines = options.rows_per_document;
    o.seed = options.seed + static_cast<uint32_t>(i);
    docs.push_back(ServerLogDocument(o));
  }
  return docs;
}

Result<PatternFleet> CorpusFromSpec(std::string_view spec) {
  std::vector<std::string_view> fields;
  for (size_t start = 0;;) {
    const size_t colon = spec.find(':', start);
    fields.push_back(spec.substr(start, colon - start));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  const std::string quoted = "corpus spec '" + std::string(spec) + "'";
  if (fields.size() > 4)
    return Status::InvalidArgument(quoted +
                                   ": expected KIND[:DOCS[:ROWS[:PATTERNS]]]");
  static constexpr const char* kNames[] = {"DOCS", "ROWS", "PATTERNS"};
  constexpr size_t kMaxCount = size_t{1} << 32;
  size_t counts[] = {1000, 4, 32};
  for (size_t i = 1; i < fields.size(); ++i)
    if (!ParseCount(fields[i], kMaxCount, &counts[i - 1]))
      return Status::InvalidArgument(
          quoted + ": " + kNames[i - 1] + " '" + std::string(fields[i]) +
          "' is not a count in [0, " + std::to_string(kMaxCount) + "]");
  const std::string_view kind = fields[0];
  const size_t docs = counts[0], rows = counts[1];

  PatternFleet out;
  if (kind == "land-registry" || kind == "server-log") {
    CorpusOptions o;
    o.documents = docs;
    o.rows_per_document = rows;
    out.documents = kind == "land-registry" ? LandRegistryCorpus(o)
                                            : ServerLogCorpus(o);
  } else if (kind == "needle") {
    NeedleOptions o;
    o.documents = docs;
    o.doc_bytes = rows * 45;
    out.documents = NeedleCorpus(o);
  } else if (kind == "fleet") {
    FleetOptions o;
    o.documents = docs;
    o.doc_bytes = rows * 45;
    o.num_patterns = std::max<size_t>(counts[2], 1);
    out = MakePatternFleet(o);
  } else if (kind == "bomb") {
    BombOptions o;
    o.documents = docs;
    if (fields.size() > 2) o.doc_bytes = rows * 45;
    out.documents = BombCorpus(o);
    out.patterns.push_back(PathologicalRgxText());
  } else {
    return Status::InvalidArgument(
        quoted + ": unknown kind '" + std::string(kind) +
        "' (expected land-registry, server-log, needle, fleet or bomb)");
  }
  return out;
}

}  // namespace workload
}  // namespace spanners
