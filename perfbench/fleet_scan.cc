// fleet-scan: offline batch of a 32-plan needle fleet over one shared
// corpus through BatchExtractor::ExtractMultiInto on a fixed worker count.
// One needle document is planted per request batch, so evaluation stays a
// small, equal share of every request; the shared Aho–Corasick pass, the
// per-plan gates and the batch driver do the rest.
#include <algorithm>
#include <random>

#include "engine/batch_extractor.h"
#include "engine/format.h"
#include "layers.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spanners::engine::AppendFleetMappingRow;
using spanners::engine::BatchExtractor;
using spanners::engine::BatchOptions;
using spanners::engine::MultiBatchResult;
using spanners::engine::OutputFormat;

struct State {
  Corpus corpus;
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  std::unique_ptr<MultiQueryExtractor> fleet;
  std::unique_ptr<BatchExtractor> extractor;
  MultiBatchResult result;  // refilled by every request
  SetupTimes times;
};

}  // namespace

Result RunFleetScan(const Config& cfg, const Args& args) {
  // Requests run on one CPU (with two workers there, the call also waits
  // for the host to schedule a second vCPU, and over ten runs docs_per_s
  // spread 0.20 and p99 2.97 of their medians). The traced run's scaling
  // probe uses `threads` CPUs.
  const size_t threads = cfg.Size("threads");
  const CpuSet cpus(threads);
  const int request_cpu = static_cast<int>(cpus.size()) - 1;
  cpus.Pin(request_cpu);
  const size_t num_patterns = cfg.Size("patterns");
  const size_t batch_docs = cfg.Size("batch_docs");
  const size_t num_batches = cfg.Size("batches");
  const size_t doc_bytes = cfg.Size("doc_bytes");

  spanners::workload::FleetOptions gen;
  gen.num_patterns = num_patterns;
  gen.documents = num_batches * (batch_docs - 1);
  gen.doc_bytes = doc_bytes;
  gen.match_rate = 0;
  gen.seed = args.seed;
  spanners::workload::PatternFleet haystack =
      spanners::workload::MakePatternFleet(gen);
  const auto needles = SingleTagNeedles(
      num_patterns, (num_batches + num_patterns - 1) / num_patterns,
      cfg.Size("needle_doc_bytes"), args.seed);
  std::vector<Document> docs;
  std::mt19937 rng(args.seed);
  size_t next_hay = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t at =
        std::uniform_int_distribution<size_t>(0, batch_docs - 1)(rng);
    for (size_t j = 0; j < batch_docs; ++j)
      docs.push_back(j == at ? needles[b % num_patterns][b / num_patterns]
                             : std::move(haystack.documents[next_hay++]));
  }
  const std::string path = RunDir() + "/fleet.txt";
  const uint64_t file_bytes = WriteDelimited(docs, path);
  uint64_t corpus_bytes = 0;
  for (const Document& d : docs) corpus_bytes += d.text().size();
  // Planted needles, by the generator's construction: plan p matches
  // exactly the documents carrying its tag line.
  std::vector<std::pair<size_t, size_t>> expected;  // (plan, doc)
  for (size_t i = 0; i < docs.size(); ++i)
    for (size_t p = 0; p < num_patterns; ++p)
      if (docs[i].text().find(FleetTagLine(p)) != std::string::npos)
        expected.push_back({p, i});
  std::sort(expected.begin(), expected.end());

  State st;
  auto setup = [&] {
    uint64_t t0 = NowNs();
    st.corpus = LoadDelimited(path);
    st.times.load_ns = NowNs() - t0;
    st.times.load_bytes = st.corpus.TotalBytes();
    for (const std::string& pattern : haystack.patterns) {
      t0 = NowNs();
      st.plans.push_back(CompilePlan(pattern));
      st.times.compile_ns.push_back(NowNs() - t0);
    }
    TimedFleet fleet(st.plans);
    st.fleet = std::move(fleet.fleet);
    st.times.build_ns = fleet.build_ns;
    st.extractor =
        std::make_unique<BatchExtractor>(BatchOptions{threads, 4, 16});
    // Warm-up: one streamed pass over the whole corpus fills every plan's
    // lazy DFA. It makes the set-up mostly CPU-bound work, whose time
    // repeats far better on a shared VM host than memory-bound work such
    // as the corpus load (or a materialized result of 32 x 50000 slots).
    st.extractor->ExtractMultiStream(
        *st.fleet, st.corpus,
        [](size_t, size_t, std::vector<std::vector<std::vector<Mapping>>>&) {
        });
  };
  const double setup_s = MedianSetupSeconds(
      cfg.Size("setup_repeats"), [&] { st = State(); }, setup);
  const std::vector<Corpus> batches = SplitBatches(st.corpus, batch_docs);
  const MultiQueryExtractor& fleet = *st.fleet;

  std::vector<size_t> batch_first(batches.size());
  for (size_t b = 1; b < batches.size(); ++b)
    batch_first[b] = batch_first[b - 1] + batches[b - 1].size();
  std::vector<uint64_t> batch_hash(batches.size());
  std::vector<std::pair<size_t, size_t>> found;  // first pass's matches
  uint64_t found_mappings = 0;
  bool hashes_stable = true;
  size_t passes = 0;
  std::string row;
  // One request: ExtractMultiInto over one batch, then every mapping of
  // every plan formatted as a fleet TSV row into a hashing sink.
  auto call_with = [&](BatchExtractor& extractor, size_t b) {
    const Corpus& batch = batches[b];
    extractor.ExtractMultiInto(fleet, batch, &st.result);
    uint64_t h = Fnv1a("");
    for (size_t p = 0; p < fleet.num_plans(); ++p) {
      const auto& per_doc = st.result.per_plan[p].per_doc;
      for (size_t i = 0; i < per_doc.size(); ++i) {
        if (per_doc[i].empty()) continue;
        if (passes == 0) {
          found.push_back({p, batch_first[b] + i});
          found_mappings += per_doc[i].size();
        }
        for (const Mapping& m : per_doc[i]) {
          row.clear();
          AppendFleetMappingRow(&row, OutputFormat::kTsv, p,
                                batch_first[b] + i, m, fleet.plan(p).vars(),
                                batch[i]);
          h = Fnv1a(row, h);
        }
      }
    }
    if (passes > 0 && batch_hash[b] != h) hashes_stable = false;
    batch_hash[b] = h;
    if (b + 1 == batches.size()) ++passes;
  };
  auto call = [&](size_t b) { call_with(*st.extractor, b); };

  Result result;
  LayerReport layers;
  if (!args.trace) {
    const ClosedLoop loop =
        RunClosedLoop(batches.size(), args.seconds, 3, call);
    result.attempted = loop.call_us.size();
    EndToEnd e2e;
    e2e.docs_per_s = docs.size() / Median(loop.pass_s);
    e2e.latencies_us = loop.call_us;
    e2e.max_qps = batches.size() / Median(loop.pass_s);
    e2e.setup_s = setup_s;
    e2e.bytes_per_input_byte = static_cast<double>(file_bytes) / corpus_bytes;
    e2e.AddTo(&result);
  } else {
    const ClosedLoop driver =
        RunClosedLoop(batches.size(), args.seconds * 0.25, 2, call);
    // Scaling probe: one worker, then `threads` workers, on `threads` CPUs.
    cpus.Pin();
    std::vector<ClosedLoop> scaling;
    for (const size_t workers : {size_t{1}, threads}) {
      BatchExtractor probe(BatchOptions{workers, 4, 16});
      scaling.push_back(
          RunClosedLoop(batches.size(), args.seconds * 0.1, 2,
                        [&](size_t b) { call_with(probe, b); }));
    }
    cpus.Pin(request_cpu);
    result.attempted = driver.call_us.size() + scaling[0].call_us.size() +
                       scaling[1].call_us.size();

    PlanScratch scratch;
    LayerCounts counts;
    bool decomposed_matches = true;
    const size_t group = cfg.Size("trace_group_docs");
    auto decomposed = [&](SpanRecorder& rec, FleetTracer& tracer) {
      return [&](size_t b) {
        const Corpus& batch = batches[b];
        Scope root(rec, "bench.request", b);
        uint64_t h = Fnv1a("");
        for (size_t begin = 0; begin < batch.size(); begin += group) {
          const size_t end = std::min(batch.size(), begin + group);
          const uint64_t first = batch_first[b] + begin;
          tracer.ExtractGroup(batch, begin, end, first, &scratch, rec,
                              &counts);
          for (const auto& [k, p] : tracer.found()) {
            Scope span(rec, kFormat, first + k);
            for (const Mapping& m : tracer.out(k, p)) {
              row.clear();
              AppendFleetMappingRow(&row, OutputFormat::kTsv, p, first + k,
                                    m, fleet.plan(p).vars(),
                                    batch[begin + k]);
              h = Fnv1a(row, h);
              ++counts.rows;
            }
          }
        }
        if (h != batch_hash[b]) decomposed_matches = false;
      };
    };
    SpanRecorder off(false), on(true);
    FleetTracer plain_tracer(fleet, group);
    const ClosedLoop plain = RunClosedLoop(
        batches.size(), args.seconds * 0.2, 2, decomposed(off, plain_tracer));
    counts = LayerCounts();
    FleetTracer traced_tracer(fleet, group);
    const ClosedLoop traced = RunClosedLoop(
        batches.size(), args.seconds * 0.25, 1, decomposed(on, traced_tracer));
    const Ledger ledger = ComputeLedger(on);
    layers.FromLedger(ledger, counts);

    layers.Set("engine.batch_extractor.overhead_ratio",
               1 - Median(plain.pass_s) / Median(driver.pass_s));
    layers.Set("engine.thread_pool.scaling_efficiency",
               Median(scaling[0].pass_s) /
                   (threads * Median(scaling[1].pass_s)));
    layers.Set("bench.trace_overhead_ratio",
               (ledger.wall_ns / 1e9 / traced.pass_s.size()) /
                   Median(plain.pass_s));
    layers.Set("bench.gen_lag_p99_us", Quantile(driver.gap_us, 0.99));
    layers.Set("bench.req_p90_us", Quantile(driver.call_us, 0.9));
    layers.Set("bench.req_p99_us", Quantile(driver.call_us, 0.99));
    layers.Set("engine.batch_extractor.call_us",
               OneDocCallUs(fleet, batches, cfg.Size("call_samples")));
    st.times.AddTo(&layers);
    FinishTrace(ledger, on, args, cfg, &result);
    if (!decomposed_matches)
      result.Fail("layer-by-layer rows differ from ExtractMultiInto rows");
  }

  // ---- output checks (untimed) ------------------------------------------
  if (!hashes_stable) result.Fail("row hash differs between passes");
  std::sort(found.begin(), found.end());
  if (found != expected)
    result.Fail("matched (plan, document) pairs differ from the planted "
                "needles: " + std::to_string(found.size()) + " found, " +
                std::to_string(expected.size()) + " planted");
  if (found_mappings != expected.size())
    result.Fail("a needle document yielded other than one mapping");
  if (args.trace) layers.AddTo(&result);
  return result;
}

}  // namespace perfbench
