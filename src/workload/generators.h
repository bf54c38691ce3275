// Workload generators for benchmarks and property tests: random documents,
// random (sequential / functional / arbitrary) RGX formulas, random VAs,
// and the paper's motivating document families (the Table 1 land-registry
// CSV and a synthetic server log).
#ifndef SPANNERS_WORKLOAD_GENERATORS_H_
#define SPANNERS_WORKLOAD_GENERATORS_H_

#include <random>
#include <string>

#include "automata/va.h"
#include "common/status.h"
#include "core/document.h"
#include "rgx/ast.h"
#include "rules/rule.h"

namespace spanners {
namespace workload {

/// A random document of `length` over the given letters.
Document RandomDocument(std::string_view letters, size_t length,
                        std::mt19937* rng);

struct RandomRgxOptions {
  size_t max_depth = 4;
  size_t num_vars = 2;           // drawn from x0..x{num_vars-1}
  std::string letters = "ab";
  bool sequential_only = false;  // produce only sequential formulas
  bool functional_only = false;  // produce only functional formulas
  bool span_rgx_only = false;    // variables wrap Σ* only
};

/// A random RGX obeying the requested fragment restrictions.
RgxPtr RandomRgx(const RandomRgxOptions& options, std::mt19937* rng);

/// A random VA with roughly `num_states` states over `num_vars` variables.
/// May be non-sequential; always trimmed.
VA RandomVa(size_t num_states, size_t num_vars, std::string_view letters,
            std::mt19937* rng);

// ---- Table 1: land-registry CSV --------------------------------------

struct LandRegistryOptions {
  size_t rows = 100;
  double tax_probability = 0.4;  // rows with the optional tax field
  double buyer_probability = 0.3;
  uint32_t seed = 42;
};

/// A CSV document shaped like the paper's Table 1:
///   "Seller: John, ID75\n" / "Buyer: Marcelo, ID832, P78\n" /
///   "Seller: Mark, ID7, $35000\n" ...
Document LandRegistryDocument(const LandRegistryOptions& options);

/// RGX extracting one seller name (the paper's §3.1 first example),
/// anchored to the whole document:  .*Seller: x{[^,\n]*},.*
RgxPtr SellerNameRgx();

/// RGX extracting a seller name plus the optional tax field (the paper's
/// §3.1 incomplete-information example): y stays unassigned when the row
/// has no tax field.
RgxPtr SellerNameTaxRgx();

// ---- synthetic server log ---------------------------------------------

struct LogOptions {
  size_t lines = 200;
  double error_probability = 0.2;
  uint32_t seed = 7;
};

/// Lines like "host12 GET /a/b 200\n" / "host3 POST /x 500 err=timeout\n".
Document ServerLogDocument(const LogOptions& options);

/// RGX extracting method + path (+ optional error cause) of one line.
RgxPtr LogLineRgx();

// ---- multi-document corpora (engine workloads) -------------------------

struct CorpusOptions {
  size_t documents = 1000;
  /// Rows (land registry) or lines (server log) per document.
  size_t rows_per_document = 4;
  uint32_t seed = 42;
};

/// `documents` independent Table-1-shaped CSV documents (each a small
/// batch of rows); document i is generated from seed + i, so the corpus is
/// reproducible and shards have varied sizes/content.
std::vector<Document> LandRegistryCorpus(const CorpusOptions& options);

/// `documents` independent server-log documents.
std::vector<Document> ServerLogCorpus(const CorpusOptions& options);

// ---- low-selectivity needle-in-haystack corpus --------------------------

struct NeedleOptions {
  size_t documents = 2000;
  /// Approximate filler bytes per document.
  size_t doc_bytes = 512;
  /// Fraction of documents carrying a needle line (the batch-extraction
  /// common case: most documents match nothing).
  double match_rate = 0.01;
  uint32_t seed = 99;
};

/// Documents of lowercase filler lines; with probability `match_rate` a
/// document additionally carries one needle line
/// "ALERT id=<digits> code=<CAPS>\n" at a random position. The filler
/// alphabet (a-z, space) cannot spell the needle literal, so the number
/// of matched documents equals the number of needle documents exactly.
/// Document i is generated from seed + i (reproducible, shard-varied).
std::vector<Document> NeedleCorpus(const NeedleOptions& options);

/// RGX extracting id + code from the needle line:
///   .*ALERT id=(x{[0-9]+}) code=(y{[A-Z]+})\n.*
RgxPtr NeedleRgx();

// ---- pathological cancellation workload ---------------------------------

struct BombOptions {
  size_t documents = 1;
  /// Bytes per document — one repeated letter, so PathologicalRgx()
  /// enumerates Θ(doc_bytes²) mappings per document.
  size_t doc_bytes = 1u << 15;
};

/// "Bomb" corpus: documents that are a single repeated 'a'. Against
/// PathologicalRgx() every a-run substring is a distinct span of x, so
/// extraction emits Θ(n²) mappings per document — evaluation runs
/// effectively forever at realistic sizes while every enumeration step
/// stays cheap. This is the workload proving deadlines, disconnects and
/// memory caps abort RUNNING work instead of waiting it out.
std::vector<Document> BombCorpus(const BombOptions& options);

/// The matching poison pattern, ".*x{a*}.*", as source text (what a
/// client registers) and parsed.
std::string PathologicalRgxText();
RgxPtr PathologicalRgx();

// ---- multi-query pattern fleet ------------------------------------------

struct FleetOptions {
  /// Resident queries in the fleet; each gets a distinct needle tag.
  size_t num_patterns = 32;
  size_t documents = 2000;
  /// Approximate filler bytes per document.
  size_t doc_bytes = 512;
  /// Per pattern, per document: probability of carrying that pattern's
  /// needle line.
  double match_rate = 0.01;
  uint32_t seed = 131;
};

/// The multi-query amortization workload: many low-selectivity needle
/// queries over ONE shared corpus. Pattern p extracts id + code from its
/// own tagged line "EVT<p> id=<digits> code=<CAPS>\n"; each document
/// independently carries each pattern's line with probability match_rate
/// (so a 32-pattern fleet at 1% sees ~0.3 needle lines per document and
/// every plan individually matches ~1% of the corpus). The lowercase
/// filler cannot spell a tag, so per-plan matched-document counts equal
/// needle counts exactly. Document i derives from seed + i
/// (reproducible, shard-varied).
struct PatternFleet {
  std::vector<std::string> patterns;  // RGX texts, one per fleet member
  std::vector<Document> documents;
};
PatternFleet MakePatternFleet(const FleetOptions& options);

// ---- corpus specs -------------------------------------------------------

/// The corpus a `KIND[:DOCS[:ROWS[:PATTERNS]]]` spec names (the
/// `--generate` argument of spanex and spanexd). KIND is land-registry,
/// server-log, needle (the 1%-match corpus), fleet (PATTERNS needle
/// queries over one corpus) or bomb (the Θ(n²) cancellation workload).
/// DOCS (default 1000) counts documents and ROWS (default 4) rows or
/// lines per document: ~45 filler bytes each for needle, fleet and bomb,
/// whose default is 32 KiB. PATTERNS (default 32; 0 means 1) sizes a
/// fleet. Returns the documents plus the kind's default patterns: the
/// fleet's queries, bomb's poison pattern, none for the other kinds.
/// InvalidArgument for an unknown kind, a field that is not a decimal
/// count, or a fifth field.
Result<PatternFleet> CorpusFromSpec(std::string_view spec);

}  // namespace workload
}  // namespace spanners

#endif  // SPANNERS_WORKLOAD_GENERATORS_H_
