#include "workloads.h"

#include <cstdio>
#include <cstdlib>

#include "engine/batch_extractor.h"
#include "workload/generators.h"

namespace perfbench {

void SetupTimes::AddTo(LayerReport* layers) const {
  layers->Set("engine.corpus.load_mb_per_s",
              Ratio(load_bytes / 1e6, load_ns / 1e9));
  layers->Set("engine.plan.compile_us", Median(compile_ns) / 1e3);
  layers->Set("engine.multi_query.build_ms", build_ns / 1e6);
}

TimedFleet::TimedFleet(
    const std::vector<std::shared_ptr<const ExtractionPlan>>& plans) {
  const uint64_t t0 = NowNs();
  fleet = std::make_unique<MultiQueryExtractor>(plans);
  build_ns = NowNs() - t0;
}

std::string FleetTagLine(size_t p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "EVT%02zu id=", p);
  return buf;
}

std::vector<std::vector<Document>> SingleTagNeedles(size_t num_patterns,
                                                    size_t per_tag,
                                                    size_t doc_bytes,
                                                    uint32_t seed) {
  std::vector<std::vector<Document>> needles(num_patterns);
  size_t missing = num_patterns * per_tag;
  spanners::workload::FleetOptions gen;
  gen.num_patterns = num_patterns;
  gen.documents = 1024;
  gen.doc_bytes = doc_bytes;
  gen.match_rate = 1.0 / num_patterns;
  // Document i of a chunk derives from gen.seed + i, so chunks never share
  // a document; the offset keeps them apart from haystacks built on `seed`.
  gen.seed = seed + 0x40000000u;
  while (missing > 0) {
    for (Document& d : spanners::workload::MakePatternFleet(gen).documents) {
      const std::string& text = d.text();
      const size_t at = text.find("EVT");
      if (at == std::string::npos ||
          text.find("EVT", at + 3) != std::string::npos)
        continue;
      const size_t tag = std::strtoul(text.c_str() + at + 3, nullptr, 10);
      if (tag >= num_patterns || needles[tag].size() == per_tag) continue;
      needles[tag].push_back(std::move(d));
      if (--missing == 0) break;
    }
    gen.seed += static_cast<uint32_t>(gen.documents);
  }
  return needles;
}

std::vector<Corpus> SplitBatches(const Corpus& corpus, size_t batch_docs) {
  std::vector<Corpus> batches;
  for (size_t i = 0; i < corpus.size(); i += batch_docs) {
    Corpus batch;
    for (size_t j = i; j < std::min(corpus.size(), i + batch_docs); ++j)
      batch.Add(corpus[j]);
    batches.push_back(std::move(batch));
  }
  return batches;
}

double OneDocCallUs(const MultiQueryExtractor& fleet,
                    const std::vector<Corpus>& batches, size_t samples) {
  std::vector<Corpus> ones;
  for (const Corpus& batch : batches) {
    for (const Document& d : batch) {
      if (ones.size() == samples) break;
      Corpus one;
      one.Add(d);
      ones.push_back(std::move(one));
    }
  }
  spanners::engine::BatchExtractor extractor({1, 4, 16});
  std::vector<double> us;
  for (const Corpus& one : ones) {
    const uint64_t t0 = NowNs();
    extractor.ExtractMulti(fleet, one);
    us.push_back((NowNs() - t0) / 1e3);
  }
  return Median(us);
}

void FinishTrace(const Ledger& ledger, const SpanRecorder& rec,
                 const Args& args, const Config& cfg, Result* result) {
  std::fprintf(stderr, "perfbench: ledger %s\n", ledger.ToString().c_str());
  const double tolerance = cfg.Global("ledger_tolerance");
  if (ledger.UnattributedRatio() > tolerance) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "layers leave %.1f%% of the traced wall unattributed "
                  "(tolerance %.1f%%)",
                  100 * ledger.UnattributedRatio(), 100 * tolerance);
    result->Fail(msg);
  }
  const size_t max_events =
      static_cast<size_t>(cfg.Global("trace_max_events"));
  if (!args.trace_out.empty() &&
      !rec.WriteChromeTrace(args.trace_out, max_events))
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
}

}  // namespace perfbench
