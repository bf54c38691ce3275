// The composable query API end to end: build a spanner-algebra expression
// (union, natural join, string-equality selection, projection) over RGX
// and rule-program leaves, compile it through the shared plan cache —
// union/projection fuse into one automaton, join/selection lower to
// relational operators — and run it over a generated land-registry corpus
// on the batch engine.
//
//   build/example_query_algebra [docs]
#include <cstdlib>
#include <iostream>

#include "engine/engine.h"
#include "query/compile.h"
#include "query/parser.h"
#include "workload/generators.h"

using namespace spanners;
using namespace spanners::engine;

int main(int argc, char** argv) {
  size_t docs = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 500;
  workload::CorpusOptions copt;
  copt.documents = docs;
  Corpus corpus(workload::LandRegistryCorpus(copt));
  std::cout << "corpus: " << corpus.size() << " documents, "
            << corpus.TotalBytes() << " bytes\n";

  // Two extraction views of the same Table 1 rows: seller name with the
  // optional tax field, and seller name with the optional buyer id. The
  // natural join glues them on the shared seller variable x — one row of
  // incomplete information per (tax, buyer) combination.
  const char* kQuery =
      "join("
      "rgx(\".*Seller: (x{[^,\\n]*}),[^,\\n]*(, \\$(y{[0-9]*})|\\e)\\n.*\"), "
      "rgx(\".*Seller: (x{[^,\\n]*}), ID(z{[0-9]+})(,[^\\n]*|\\e)\\n.*\"))";

  Result<query::ExprPtr> expr = query::ParseQuery(kQuery);
  if (!expr.ok()) {
    std::cerr << "parse failed: " << expr.status().ToString() << "\n";
    return 1;
  }

  PlanCache cache;
  query::QueryCompileOptions qopts;
  qopts.cache = &cache;
  query::CompiledQuery q =
      query::CompiledQuery::Compile(expr.value(), qopts).ValueOrDie();
  std::cout << "query:   " << q.text() << "\n"
            << "plan:    " << q.PlanString() << "\n"
            << "scans:   " << q.num_scans() << "\n";

  // Compiling the same expression again is served from the cache.
  query::CompiledQuery::Compile(expr.value(), qopts).ValueOrDie();
  PlanCacheStats cs = cache.stats();
  std::cout << "cache:   " << cs.size << " plans, " << cs.hits << " hits, "
            << cs.misses << " misses\n";

  // The compiled query is a DocumentExtractor: the batch engine shards
  // the corpus across its threads and produces thread-count-independent
  // output exactly as it does for single-pattern plans.
  uint64_t reference = 0;
  for (size_t threads : {1, 8}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    BatchExtractor extractor(bopt);
    BatchResult result = extractor.Extract(q, corpus);
    if (threads == 1) reference = result.total_mappings;
    std::cout << threads << " thread(s): " << result.total_mappings
              << " mappings, " << result.MatchedDocuments()
              << " matched docs ("
              << (result.total_mappings == reference ? "identical"
                                                     : "DIFFERS")
              << ")\n";
  }

  BatchExtractor extractor;
  BatchResult result = extractor.Extract(q, corpus);
  std::cout << "\n" << TsvHeader(q.vars()) << "\n";
  size_t shown = 0;
  for (size_t i = 0; i < result.per_doc.size() && shown < 5; ++i)
    for (const Mapping& m : result.per_doc[i]) {
      std::cout << ToTsvRow(i, m, q.vars(), corpus[i]) << "\n";
      if (++shown >= 5) break;
    }
  return 0;
}
