// needle-store: selective single-pattern queries through
// BatchExtractor::ExtractIndexed over a checksummed segment and its trigram
// posting index. Every tag is planted in the same number of documents, so
// each query evaluates the same amount and its candidates stay far below
// 1% of the corpus; storage and the index do the rest.
#include <algorithm>
#include <filesystem>
#include <random>

#include "engine/batch_extractor.h"
#include "engine/format.h"
#include "layers.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spanners::engine::AppendMappingRow;
using spanners::engine::BatchExtractor;
using spanners::engine::BatchOptions;
using spanners::engine::OutputFormat;
using spanners::storage::NgramIndex;
using spanners::storage::SegmentStore;

template <typename T>
T OrDie(spanners::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

void CheckOk(const spanners::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

struct State {
  std::unique_ptr<SegmentStore> store;
  std::unique_ptr<NgramIndex> index;
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  std::unique_ptr<BatchExtractor> extractor;
  SetupTimes times;
  uint64_t write_ns = 0, seg_open_ns = 0, build_ns = 0, idx_open_ns = 0;
};

}  // namespace

Result RunNeedleStore(const Config& cfg, const Args& args) {
  const CpuSet cpus(cfg.Size("cpus"));
  cpus.Pin();
  const size_t num_tags = cfg.Size("patterns");
  const size_t per_tag = cfg.Size("docs_per_tag");
  const size_t num_docs = cfg.Size("documents");
  const size_t doc_bytes = cfg.Size("doc_bytes");

  spanners::workload::FleetOptions gen;
  gen.num_patterns = num_tags;
  gen.documents = num_docs - num_tags * per_tag;
  gen.doc_bytes = doc_bytes;
  gen.match_rate = 0;
  gen.seed = args.seed;
  spanners::workload::PatternFleet fleet_gen =
      spanners::workload::MakePatternFleet(gen);
  std::vector<Document> docs = std::move(fleet_gen.documents);
  for (auto& tag_docs :
       SingleTagNeedles(num_tags, per_tag, cfg.Size("needle_doc_bytes"),
                        args.seed))
    for (Document& d : tag_docs) docs.push_back(std::move(d));
  std::mt19937 rng(args.seed);
  std::shuffle(docs.begin(), docs.end(), rng);
  const std::string text_path = RunDir() + "/needle.txt";
  const std::string seg_path = RunDir() + "/needle.seg";
  const std::string idx_path = spanners::storage::IndexPathFor(seg_path);
  WriteDelimited(docs, text_path);
  uint64_t corpus_bytes = 0;
  for (const Document& d : docs) corpus_bytes += d.text().size();

  State st;
  auto setup = [&] {
    uint64_t t0 = NowNs();
    Corpus corpus = LoadDelimited(text_path);
    st.times.load_ns = NowNs() - t0;
    st.times.load_bytes = corpus.TotalBytes();
    t0 = NowNs();
    CheckOk(SegmentStore::Write(corpus, seg_path), "segment write");
    st.write_ns = NowNs() - t0;
    t0 = NowNs();
    st.store = std::make_unique<SegmentStore>(
        OrDie(SegmentStore::Open(seg_path), "segment open"));
    st.seg_open_ns = NowNs() - t0;
    t0 = NowNs();
    const NgramIndex built = NgramIndex::Build(*st.store);
    st.build_ns = NowNs() - t0;
    CheckOk(built.Save(idx_path), "index save");
    t0 = NowNs();
    st.index = std::make_unique<NgramIndex>(
        OrDie(NgramIndex::Open(idx_path, st.store->num_docs()), "index open"));
    st.idx_open_ns = NowNs() - t0;
    for (const std::string& pattern : fleet_gen.patterns) {
      t0 = NowNs();
      st.plans.push_back(CompilePlan(pattern));
      st.times.compile_ns.push_back(NowNs() - t0);
    }
    st.extractor = std::make_unique<BatchExtractor>(
        BatchOptions{cfg.Size("threads"), 4, 16});
    // Warm-up: one matching document through each plan's lazy DFA.
    for (size_t i = 0; i < st.store->num_docs(); ++i) {
      const std::string_view text = st.store->doc_view(i);
      const size_t at = text.find("EVT");
      if (at == std::string_view::npos) continue;
      const size_t tag = std::strtoul(text.data() + at + 3, nullptr, 10);
      if (tag < st.plans.size()) st.plans[tag]->lazy_dfa().Matches(text);
    }
  };
  const double setup_s = MedianSetupSeconds(
      cfg.Size("setup_repeats"), [&] { st = State(); }, setup);
  const SegmentStore& store = *st.store;
  const NgramIndex& index = *st.index;
  const uint64_t seg_bytes = std::filesystem::file_size(seg_path);
  const uint64_t idx_bytes = std::filesystem::file_size(idx_path);

  // Reference rows per tag from a full in-memory scan (untimed).
  std::vector<uint64_t> want_hash(num_tags);
  std::vector<size_t> want_docs(num_tags);
  {
    const Corpus corpus = store.ReadAll();
    BatchExtractor scan(BatchOptions{1, 4, 16});
    std::string row;
    for (size_t t = 0; t < num_tags; ++t) {
      const auto full = scan.Extract(*st.plans[t], corpus);
      uint64_t h = Fnv1a("");
      for (size_t i = 0; i < full.per_doc.size(); ++i) {
        want_docs[t] += !full.per_doc[i].empty();
        for (const Mapping& m : full.per_doc[i]) {
          row.clear();
          AppendMappingRow(&row, OutputFormat::kTsv, i, m,
                           st.plans[t]->vars(), corpus[i]);
          h = Fnv1a(row, h);
        }
      }
      want_hash[t] = h;
    }
  }

  // One request: the query for tag t through ExtractIndexed, then rows
  // formatted from the documents materialized out of the segment.
  std::vector<uint64_t> got_hash(num_tags);
  bool hashes_stable = true;
  size_t passes = 0;
  std::string row;
  uint64_t postings = 0, queries = 0;
  auto call = [&](size_t t) {
    spanners::engine::IndexedStats stats;
    const auto result =
        st.extractor->ExtractIndexed(*st.plans[t], store, &index, &stats);
    uint64_t h = Fnv1a("");
    for (size_t i = 0; i < result.per_doc.size(); ++i) {
      if (result.per_doc[i].empty()) continue;
      const Document doc = store.MaterializeDoc(i);
      for (const Mapping& m : result.per_doc[i]) {
        row.clear();
        AppendMappingRow(&row, OutputFormat::kTsv, i, m, st.plans[t]->vars(),
                         doc);
        h = Fnv1a(row, h);
      }
    }
    postings += stats.postings_touched;
    ++queries;
    if (passes > 0 && got_hash[t] != h) hashes_stable = false;
    got_hash[t] = h;
    if (t + 1 == num_tags) ++passes;
  };

  Result result;
  LayerReport layers;
  if (!args.trace) {
    const ClosedLoop loop = RunClosedLoop(num_tags, args.seconds, 3, call);
    result.attempted = loop.call_us.size();
    EndToEnd e2e;
    e2e.docs_per_s = static_cast<double>(num_docs) * num_tags /
                     Median(loop.pass_s);
    e2e.latencies_us = loop.call_us;
    e2e.max_qps = num_tags / Median(loop.pass_s);
    e2e.setup_s = setup_s;
    e2e.bytes_per_input_byte =
        static_cast<double>(seg_bytes + idx_bytes) / corpus_bytes;
    e2e.AddTo(&result);
  } else {
    const ClosedLoop driver =
        RunClosedLoop(num_tags, args.seconds * 0.3, 2, call);
    result.attempted = driver.call_us.size();
    PlanScratch scratch;
    std::vector<Mapping> out;
    LayerCounts counts;
    uint64_t matched = 0, cand = 0, lookups = 0;
    bool decomposed_matches = true;
    auto decomposed = [&](SpanRecorder& rec) {
      return [&](size_t t) {
        const ExtractionPlan& plan = *st.plans[t];
        Scope root(rec, "bench.request", t);
        spanners::storage::LookupStats lookup;
        spanners::storage::CandidateSet set;
        {
          Scope span(rec, kNgramIndex, t);
          set = index.Candidates(plan.prefilter(), &lookup);
        }
        ++lookups;
        cand += set.docs.size();
        uint64_t h = Fnv1a("");
        for (const uint32_t i : set.docs) {
          Document doc;
          {
            Scope span(rec, kSegment, i);
            doc = store.MaterializeDoc(i);
          }
          if (!PlanExtract(plan, doc, i, &scratch, &out, rec, &counts))
            continue;
          matched += !out.empty();
          Scope span(rec, kFormat, i);
          for (const Mapping& m : out) {
            row.clear();
            AppendMappingRow(&row, OutputFormat::kTsv, i, m, plan.vars(),
                             doc);
            h = Fnv1a(row, h);
            ++counts.rows;
          }
        }
        if (set.all || h != want_hash[t]) decomposed_matches = false;
      };
    };
    SpanRecorder off(false), on(true);
    const ClosedLoop plain =
        RunClosedLoop(num_tags, args.seconds * 0.25, 2, decomposed(off));
    counts = LayerCounts();
    matched = cand = lookups = 0;
    const ClosedLoop traced =
        RunClosedLoop(num_tags, args.seconds * 0.25, 2, decomposed(on));
    const Ledger ledger = ComputeLedger(on);
    layers.FromLedger(ledger, counts);
    layers.Set("engine.batch_extractor.overhead_ratio",
               1 - Median(plain.pass_s) / Median(driver.pass_s));
    layers.Set("engine.thread_pool.scaling_efficiency", 1.0);
    layers.Set("bench.trace_overhead_ratio",
               Median(traced.pass_s) / Median(plain.pass_s));
    layers.Set("bench.gen_lag_p99_us", Quantile(driver.gap_us, 0.99));
    layers.Set("bench.req_p90_us", Quantile(driver.call_us, 0.9));
    layers.Set("bench.req_p99_us", Quantile(driver.call_us, 0.99));
    const TimedFleet all(st.plans);
    st.times.build_ns = all.build_ns;
    std::vector<Corpus> sample(1);
    for (size_t i = 0; i < std::min<size_t>(cfg.Size("call_samples"),
                                            store.num_docs());
         ++i)
      sample[0].Add(store.MaterializeDoc(i));
    layers.Set("engine.batch_extractor.call_us",
               OneDocCallUs(*all.fleet, sample, cfg.Size("call_samples")));
    st.times.AddTo(&layers);
    auto self = [&](const char* layer) {
      const auto it = ledger.self_ns.find(layer);
      return it == ledger.self_ns.end() ? 0.0 : it->second;
    };
    const double mb = corpus_bytes / 1e6;
    layers.Set("storage.segment.write_mb_per_s", mb / (st.write_ns / 1e9));
    layers.Set("storage.segment.open_ms", st.seg_open_ns / 1e6);
    layers.Set("storage.segment.materialize_ns_per_doc",
               Ratio(self(kSegment), cand));
    layers.Set("storage.segment.bytes_per_input_byte",
               static_cast<double>(seg_bytes) / corpus_bytes);
    layers.Set("storage.ngram_index.build_mb_per_s",
               mb / (st.build_ns / 1e9));
    layers.Set("storage.ngram_index.open_ms", st.idx_open_ns / 1e6);
    layers.Set("storage.ngram_index.lookup_us",
               Ratio(self(kNgramIndex), lookups) / 1e3);
    layers.Set("storage.ngram_index.candidate_ratio",
               Ratio(cand, static_cast<double>(lookups) * num_docs));
    layers.Set("storage.ngram_index.precision", Ratio(matched, cand));
    layers.Set("storage.ngram_index.postings_per_query",
               Ratio(postings, queries));
    layers.Set("storage.ngram_index.bytes_per_input_byte",
               static_cast<double>(idx_bytes) / corpus_bytes);
    FinishTrace(ledger, on, args, cfg, &result);
    if (!decomposed_matches)
      result.Fail("layer-by-layer rows differ from the full scan");
  }

  // ---- output checks (untimed) ------------------------------------------
  if (!hashes_stable) result.Fail("row hash differs between passes");
  for (size_t t = 0; t < num_tags; ++t) {
    if (got_hash[t] != want_hash[t])
      result.Fail("tag " + std::to_string(t) +
                  ": indexed rows differ from the full in-memory scan");
    if (want_docs[t] != per_tag)
      result.Fail("tag " + std::to_string(t) + ": " +
                  std::to_string(want_docs[t]) + " documents matched, " +
                  std::to_string(per_tag) + " planted");
  }
  if (args.trace) layers.AddTo(&result);
  return result;
}

}  // namespace perfbench
