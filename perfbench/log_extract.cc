// log-extract: offline batch over multi-line server-log documents with the
// 3-variable LogLineRgx. Every document matches, so the evaluator and row
// formatting do nearly all the work; gates pass everything through.
#include <random>

#include "engine/batch_extractor.h"
#include "engine/format.h"
#include "layers.h"
#include "rgx/printer.h"
#include "rgx/reference_eval.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spanners::engine::AppendMappingRow;
using spanners::engine::BatchExtractor;
using spanners::engine::BatchOptions;
using spanners::engine::OutputFormat;

struct State {
  Corpus corpus;
  std::shared_ptr<const ExtractionPlan> plan;
  std::unique_ptr<BatchExtractor> extractor;
  SetupTimes times;
};

size_t CountLines(const std::string& text) {
  size_t n = 0;
  for (char c : text) n += c == '\n';
  return n;
}

}  // namespace

Result RunLogExtract(const Config& cfg, const Args& args) {
  const CpuSet cpus(cfg.Size("cpus"));
  cpus.Pin();
  spanners::workload::CorpusOptions gen;
  gen.documents = cfg.Size("documents");
  gen.rows_per_document = cfg.Size("lines_per_document");
  gen.seed = args.seed;
  const std::vector<Document> docs = spanners::workload::ServerLogCorpus(gen);
  const std::string path = RunDir() + "/log.txt";
  const uint64_t file_bytes = WriteDelimited(docs, path);
  uint64_t corpus_bytes = 0;
  for (const Document& d : docs) corpus_bytes += d.text().size();
  const std::string pattern =
      spanners::ToPattern(spanners::workload::LogLineRgx());
  const size_t batch_docs = cfg.Size("batch_docs");
  const size_t threads = cfg.Size("threads");

  State st;
  auto setup = [&] {
    uint64_t t0 = NowNs();
    st.corpus = LoadDelimited(path);
    st.times.load_ns = NowNs() - t0;
    st.times.load_bytes = st.corpus.TotalBytes();
    t0 = NowNs();
    st.plan = CompilePlan(pattern);
    st.times.compile_ns.push_back(NowNs() - t0);
    st.extractor =
        std::make_unique<BatchExtractor>(BatchOptions{threads, 4, 16});
    // Warm-up: the first documents fill the plan's lazy DFA.
    Corpus warmup;
    for (size_t i = 0; i < cfg.Size("warmup_docs"); ++i)
      warmup.Add(st.corpus[i]);
    st.extractor->Extract(*st.plan, warmup);
  };
  const double setup_s = MedianSetupSeconds(
      cfg.Size("setup_repeats"), [&] { st = State(); }, setup);
  const std::vector<Corpus> batches = SplitBatches(st.corpus, batch_docs);
  const ExtractionPlan& plan = *st.plan;
  const spanners::VarSet& vars = plan.vars();

  // One request: ExtractStream over one batch, each mapping formatted as a
  // TSV row into a discarding sink that hashes it.
  std::vector<uint64_t> batch_hash(batches.size());
  std::vector<size_t> batch_first(batches.size());
  for (size_t b = 1; b < batches.size(); ++b)
    batch_first[b] = batch_first[b - 1] + batches[b - 1].size();
  std::string row;
  bool hashes_stable = true;
  size_t passes_checked = 0;
  auto call = [&](size_t b) {
    const Corpus& batch = batches[b];
    uint64_t h = Fnv1a("");
    st.extractor->ExtractStream(
        plan, batch,
        [&](size_t begin, size_t end,
            std::vector<std::vector<Mapping>>& per_doc) {
          for (size_t i = begin; i < end; ++i) {
            for (const Mapping& m : per_doc[i - begin]) {
              row.clear();
              AppendMappingRow(&row, OutputFormat::kTsv, batch_first[b] + i,
                               m, vars, batch[i]);
              h = Fnv1a(row, h);
            }
          }
        });
    if (passes_checked > 0 && batch_hash[b] != h) hashes_stable = false;
    batch_hash[b] = h;
    if (b + 1 == batches.size()) ++passes_checked;
  };

  Result result;
  LayerReport layers;
  if (!args.trace) {
    const ClosedLoop loop = RunClosedLoop(batches.size(), args.seconds,
                                          3, call);
    result.attempted = loop.call_us.size();
    EndToEnd e2e;
    e2e.docs_per_s = docs.size() / Median(loop.pass_s);
    e2e.latencies_us = loop.call_us;
    e2e.max_qps = batches.size() / Median(loop.pass_s);
    e2e.setup_s = setup_s;
    e2e.bytes_per_input_byte = static_cast<double>(file_bytes) / corpus_bytes;
    e2e.AddTo(&result);
  } else {
    // Driver phase, then the same documents decomposed by layer untraced
    // and traced (see layers.h).
    const ClosedLoop driver = RunClosedLoop(
        batches.size(), args.seconds * 0.3, 2, call);
    result.attempted = driver.call_us.size();
    PlanScratch scratch;
    std::vector<Mapping> out;
    LayerCounts counts;
    bool decomposed_matches = true;
    auto decomposed = [&](SpanRecorder& rec) {
      return [&](size_t b) {
        const Corpus& batch = batches[b];
        Scope root(rec, "bench.request", b);
        uint64_t h = Fnv1a("");
        for (size_t i = 0; i < batch.size(); ++i) {
          const uint64_t id = batch_first[b] + i;
          if (!PlanExtract(plan, batch[i], id, &scratch, &out, rec, &counts))
            continue;
          Scope span(rec, kFormat, id);
          for (const Mapping& m : out) {
            row.clear();
            AppendMappingRow(&row, OutputFormat::kTsv, id, m, vars, batch[i]);
            h = Fnv1a(row, h);
            ++counts.rows;
          }
        }
        if (h != batch_hash[b]) decomposed_matches = false;
      };
    };
    SpanRecorder off(false), on(true);
    const ClosedLoop plain = RunClosedLoop(batches.size(),
                                           args.seconds * 0.25, 2,
                                           decomposed(off));
    counts = LayerCounts();
    const ClosedLoop traced = RunClosedLoop(batches.size(),
                                            args.seconds * 0.25, 2,
                                            decomposed(on));
    const Ledger ledger = ComputeLedger(on);
    layers.FromLedger(ledger, counts);
    layers.Set("engine.batch_extractor.overhead_ratio",
               1 - Median(plain.pass_s) / Median(driver.pass_s));
    layers.Set("bench.trace_overhead_ratio",
               Median(traced.pass_s) / Median(plain.pass_s));
    layers.Set("engine.thread_pool.scaling_efficiency", 1.0);
    layers.Set("bench.gen_lag_p99_us", Quantile(driver.gap_us, 0.99));
    layers.Set("bench.req_p90_us", Quantile(driver.call_us, 0.9));
    layers.Set("bench.req_p99_us", Quantile(driver.call_us, 0.99));
    const TimedFleet one({st.plan});
    layers.Set("engine.batch_extractor.call_us",
               OneDocCallUs(*one.fleet, batches, cfg.Size("call_samples")));
    st.times.build_ns = one.build_ns;
    st.times.AddTo(&layers);
    FinishTrace(ledger, on, args, cfg, &result);
    if (!decomposed_matches)
      result.Fail("layer-by-layer rows differ from ExtractStream rows");
  }

  // ---- output checks (untimed) ------------------------------------------
  if (!hashes_stable) result.Fail("row hash differs between passes");
  PlanScratch scratch;
  for (size_t b = 0; b < batches.size(); ++b) {
    const Corpus& batch = batches[b];
    uint64_t h = Fnv1a("");
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto& sorted = plan.ExtractSorted(batch[i], &scratch);
      if (sorted.size() != CountLines(batch[i].text()))
        result.Fail("document " + std::to_string(batch_first[b] + i) +
                    ": " + std::to_string(sorted.size()) +
                    " mappings for " +
                    std::to_string(CountLines(batch[i].text())) + " lines");
      for (const Mapping& m : sorted) {
        row.clear();
        AppendMappingRow(&row, OutputFormat::kTsv, batch_first[b] + i, m,
                         vars, batch[i]);
        h = Fnv1a(row, h);
      }
    }
    if (h != batch_hash[b])
      result.Fail("batch " + std::to_string(b) +
                  ": streamed rows differ from per-document extraction");
  }
  std::mt19937 rng(args.seed);
  const size_t sample = args.trace ? 1 : cfg.Size("reference_sample");
  for (size_t k = 0; k < sample; ++k) {
    const size_t d = std::uniform_int_distribution<size_t>(
        0, docs.size() - 1)(rng);
    const auto reference = spanners::ReferenceEval(
        spanners::workload::LogLineRgx(), docs[d]).Sorted();
    std::string want, got;
    for (const Mapping& m : reference)
      AppendMappingRow(&want, OutputFormat::kTsv, d, m, vars, docs[d]);
    for (const Mapping& m : plan.ExtractSorted(docs[d], &scratch))
      AppendMappingRow(&got, OutputFormat::kTsv, d, m, vars, docs[d]);
    if (want != got)
      result.Fail("document " + std::to_string(d) +
                  ": rows differ from rgx/reference_eval");
  }
  if (args.trace) layers.AddTo(&result);
  return result;
}

}  // namespace perfbench
