// Umbrella header for the batch-extraction engine: compiled plans with
// one-time analysis (plan.h), a process-wide LRU plan cache
// (plan_cache.h), corpora and sharding (corpus.h), the FIFO thread pool
// (thread_pool.h), parallel corpus extraction
// (batch_extractor.h) and wire formatting (format.h).
//
// Quickstart:
//   auto plan = spanners::engine::ExtractionPlan::Compile(
//       ".*Seller: (x{[^,\n]*}),.*").ValueOrDie();
//   auto corpus = spanners::engine::Corpus::FromDelimited(csv_text);
//   spanners::engine::BatchExtractor extractor;
//   auto result = extractor.Extract(plan, corpus);
//   // result.per_doc[i] == sorted ⟦γ⟧_{d_i}, independent of thread count.
#ifndef SPANNERS_ENGINE_ENGINE_H_
#define SPANNERS_ENGINE_ENGINE_H_

#include "engine/batch_extractor.h"  // IWYU pragma: export
#include "engine/corpus.h"           // IWYU pragma: export
#include "engine/format.h"           // IWYU pragma: export
#include "engine/multi_query.h"      // IWYU pragma: export
#include "engine/plan.h"             // IWYU pragma: export
#include "engine/plan_cache.h"       // IWYU pragma: export
#include "engine/thread_pool.h"      // IWYU pragma: export

#endif  // SPANNERS_ENGINE_ENGINE_H_
