// The four workloads and the helpers they share. Each Run* generates its
// inputs from the seed, sets up (several times, reporting the median),
// measures for the requested seconds — untraced for the end-to-end
// metrics, or split into an untraced and a traced phase for the
// per-layer metrics — and checks every output outside the timed phases.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "layers.h"

namespace perfbench {

Result RunLogExtract(const Config& cfg, const Args& args);
Result RunFleetScan(const Config& cfg, const Args& args);
Result RunNeedleStore(const Config& cfg, const Args& args);
Result RunServedExtract(const Config& cfg, const Args& args);

/// Timings of the compile layer taken inside one set-up.
struct SetupTimes {
  uint64_t load_ns = 0, load_bytes = 0;  // Corpus::FromFile
  std::vector<double> compile_ns;        // ExtractionPlan::Compile, per plan
  uint64_t build_ns = 0;                 // MultiQueryExtractor construction

  void AddTo(LayerReport* layers) const;
};

/// A fleet and the time its construction took.
struct TimedFleet {
  explicit TimedFleet(
      const std::vector<std::shared_ptr<const ExtractionPlan>>& plans);
  std::unique_ptr<MultiQueryExtractor> fleet;
  uint64_t build_ns = 0;
};

/// The tag line prefix of fleet pattern p ("EVT07 id="), which the
/// lowercase filler of MakePatternFleet cannot spell.
std::string FleetTagLine(size_t p);

/// MakePatternFleet documents that carry exactly one tag line:
/// needles[t] holds `per_tag` documents with tag t, for every pattern t.
/// Planting these at fixed positions gives every request of a workload
/// the same evaluation work, where the generator's own per-document coin
/// would make it vary with the seed.
std::vector<std::vector<Document>> SingleTagNeedles(size_t num_patterns,
                                                    size_t per_tag,
                                                    size_t doc_bytes,
                                                    uint32_t seed);

/// Copies `corpus` into consecutive batches of `batch_docs` documents.
std::vector<Corpus> SplitBatches(const Corpus& corpus, size_t batch_docs);

/// Median µs of a one-document BatchExtractor::ExtractMulti call (one
/// worker) over the first `samples` documents of `batches`.
double OneDocCallUs(const MultiQueryExtractor& fleet,
                    const std::vector<Corpus>& batches, size_t samples);

/// Prints the ledger, fails the run when the layers leave more of the
/// wall unattributed than workloads.json's ledger_tolerance, and writes
/// the Chrome trace.
void FinishTrace(const Ledger& ledger, const SpanRecorder& rec,
                 const Args& args, const Config& cfg, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
