// spanex — batch document-spanner extraction from the shell.
//
// Reads a corpus of documents (newline-delimited by default, NUL-delimited
// with -0) from files or stdin, compiles one or more RGX patterns — or a
// composable algebra query (union / join / projection / string-equality
// selection over rgx and rule leaves) — once, extracts every document in
// parallel on a thread pool, and emits one TSV or JSONL row
// per mapping in deterministic (document, mapping) order regardless of
// thread count.
//
// With several patterns (repeated -p/-e, or --patterns-file) the whole
// fleet runs in ONE corpus pass: a combined Aho–Corasick automaton over
// every plan's required literals gates all plans per document, surviving
// plans run their lazy-DFA tier and only then an evaluator
// (engine::MultiQueryExtractor). Rows gain a leading `query` column; the
// per-plan output is byte-identical to running each pattern alone.
//
//   spanex -p 'x{[A-Z]+} p{[^ ]*}' corpus.txt
//   generate_logs | spanex -p "$(cat pattern.rgx)" --format json -j 8
//   spanex -e '.*ERR x{[0-9]+}.*' -e '.*WARN y{[a-z]+}.*' corpus.txt
//   spanex --patterns-file fleet.rgx --stats corpus.txt
//   spanex --generate fleet:2000:10:32 --stats          # 32-plan demo
//   spanex -q 'join(rgx("x{a*}b.*"), rgx("x{a*}b y{b*}"))' corpus.txt
//
// Options:
//   -p, -e, --pattern TEXT   an RGX pattern (rgx/parser.h syntax); may be
//                            repeated — two or more patterns extract as a
//                            single-pass multi-query fleet
//   -f, --pattern-file FILE  read one pattern from FILE (trailing newline
//                            stripped)
//   --patterns-file FILE     read one pattern per line (empty lines
//                            skipped); implies the multi-query path
//   -q, --query TEXT         an algebra query (query/parser.h syntax:
//                            rgx("..."), rule("..."), union(e, e...),
//                            join(e, e...), project(e, x...), eq(e, x, y))
//   --query-file FILE        read the query from FILE
//   -F, --format tsv|json    output format (default tsv; tsv prints a
//                            header row)
//   -j, --threads N          threads that extract, the caller included
//                            (default: hardware concurrency; 1 starts no
//                            other thread)
//   -0, --null               documents are NUL-delimited, not newline
//   --no-header              suppress the TSV header row
//   --stats[=json]           print plan/batch statistics to stderr (per
//                            plan for multi-query runs, per scan plan
//                            for -q); =json emits one machine-readable
//                            JSON object instead
//   --metrics[=json]         --stats plus the full telemetry snapshot
//                            (per-tier time histograms);
//                            enables metric recording for the run
//   --trace FILE             record per-document/per-tier timing spans
//                            into a bounded ring and write them to FILE
//                            as a Chrome trace_event JSON array
//                            (chrome://tracing, Perfetto)
//   --generate KIND[:DOCS[:ROWS[:PATTERNS]]]
//                            instead of reading files, synthesize a corpus
//                            with the workload generators; KIND is
//                            land-registry, server-log, needle (the
//                            low-selectivity 1%-match corpus), fleet
//                            (PATTERNS needle queries over one corpus;
//                            with no -p/-q given, the generated fleet's
//                            own patterns are used) or bomb (the Θ(n²)
//                            cancellation workload and, with no -p/-q,
//                            its poison pattern)
//   --save-corpus FILE       write the loaded/generated corpus as an
//                            immutable checksummed mmap segment (with
//                            --index: also build and save the trigram
//                            posting index next to it, FILE.idx) and exit
//                            without extracting
//   --corpus FILE            read the corpus from a persisted segment
//                            instead of delimited text (checksum-verified
//                            open; corrupted files are rejected)
//   --index                  with --corpus: open FILE.idx and extract
//                            through posting-list candidate lookup — only
//                            candidate documents are materialized; output
//                            is byte-identical to the full scan
//   --connect SOCKET         client mode: instead of extracting locally,
//                            connect to a running spanexd at SOCKET,
//                            register every -p pattern on the session,
//                            run extract_batch against the server's held
//                            corpus and print the streamed rows —
//                            byte-identical to the equivalent offline run.
//                            --stats[=json] fetches the server's report
//                            (to stderr); exits 3 when the server refuses
//                            with Unavailable (backoff, not a hard error),
//                            4 on a deadline/timeout, 5 when the server
//                            cancelled the request, 6 when it hit the
//                            per-request memory cap
//   --retries N              with --connect: transparently retry
//                            Unavailable failures (dead socket, dropped
//                            connection, backpressure refusal) up to N
//                            times with capped decorrelated-jitter
//                            backoff, reconnecting and re-registering the
//                            session's patterns; streamed rows are still
//                            delivered exactly once (default 0)
//   --connect-timeout-ms MS  with --connect: connect deadline (default
//                            5000). An expired deadline exits 4.
//   --io-timeout-ms MS       with --connect: per-read/send deadline
//                            (default 30000) — a server that accepts but
//                            never answers times out with exit 4.
//   --drain                  with --connect: ask the server to drain
//                            (finish in-flight work, then exit 0) after
//                            any requested extraction
//   -h, --help               this text
//
// Output robustness: SIGPIPE is ignored and every stdout write is checked
// (engine::CheckedWriter), so `spanex ... | head` exits cleanly instead of
// dying mid-stream, and real write failures (full disk) are reported.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/parse.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/compile.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/json.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

namespace {

using namespace spanners;
using namespace spanners::engine;

int Usage(const char* argv0, int code) {
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage: " << argv0
      << " (-p PATTERN... | -f FILE | --patterns-file FILE |\n"
         "               -q QUERY | --query-file FILE)\n"
         "              [-F tsv|json] [-j N] [-0] [--no-header]\n"
         "              [--stats[=json]] [--metrics[=json]] [--trace FILE]\n"
         "              [--save-corpus FILE | --corpus FILE [--index]]\n"
         "              [CORPUS_FILE...]\n"
         "Extracts document spanners — one or more RGX patterns (several\n"
         "run as a single-pass multi-query fleet) or an algebra query —\n"
         "over a delimited corpus (stdin when no file is given); one\n"
         "output row per (document[, query], mapping).\n";
  return code;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exit code for the streamed-output paths: a closed downstream pipe
/// (`spanex ... | head`) is a normal exit, any other write failure is
/// reported and fatal.
int OutputExit(const CheckedWriter& writer) {
  if (writer.ok() || writer.error() == EPIPE) return 0;
  std::cerr << "spanex: " << writer.ErrorMessage() << "\n";
  return 1;
}

/// Script-visible exit codes for --connect failures: 3 = Unavailable
/// (back off and retry), 4 = deadline/timeout, 5 = cancelled server-side,
/// 6 = per-request resource cap hit, 2 = hard error.
int ClientExit(const Status& status) {
  if (status.code() == StatusCode::kUnavailable) return 3;
  if (status.code() == StatusCode::kDeadlineExceeded) return 4;
  if (status.code() == StatusCode::kCancelled) return 5;
  if (status.code() == StatusCode::kResourceExhausted) return 6;
  return 2;
}

/// --connect mode: drive a running spanexd over its JSONL socket.
/// Registers every pattern on this session, streams extract_batch rows to
/// stdout (byte-identical to the equivalent offline run — the server uses
/// the same formatting helpers), optionally fetches the server report and
/// asks for a drain. Exit 3 on an Unavailable refusal so scripts can back
/// off and retry, 4 on an expired deadline.
int RunClient(const std::string& socket_path,
              const std::vector<std::string>& patterns, OutputFormat format,
              bool header, bool stats, bool json_report, bool drain,
              const server::ConnectOptions& copts,
              const server::RetryPolicy& retry) {
  Result<server::Client> connected =
      server::Client::ConnectWithRetry(socket_path, copts, retry);
  if (!connected.ok()) {
    std::cerr << "spanex: " << connected.status().ToString() << "\n";
    return ClientExit(connected.status());
  }
  server::Client client = std::move(connected).value();
  CheckedWriter writer(stdout);
  for (const std::string& pattern : patterns) {
    Result<int64_t> handle = client.Register(pattern);
    if (!handle.ok()) {
      std::cerr << "spanex: register '" << pattern
                << "': " << handle.status().ToString() << "\n";
      return ClientExit(handle.status());
    }
  }
  if (!patterns.empty()) {
    std::string out;
    Result<server::Client::ExtractSummary> summary = client.ExtractBatch(
        format, header, /*all_resident=*/false,
        [&](const std::string& row) {
          out += row;
          out += '\n';
          if (out.size() >= 1 << 20) {
            writer.Write(out);
            out.clear();
          }
        });
    if (!summary.ok()) {
      std::cerr << "spanex: extract_batch: " << summary.status().ToString()
                << "\n";
      return ClientExit(summary.status());
    }
    writer.Write(out);
  }
  if (stats) {
    Result<server::JsonValue> response = client.Stats();
    if (!response.ok()) {
      std::cerr << "spanex: stats: " << response.status().ToString() << "\n";
      return ClientExit(response.status());
    }
    if (json_report) {
      const server::JsonValue* report = response->Find("report");
      std::string rendered;
      if (report != nullptr) server::WriteJson(*report, &rendered);
      std::cerr << rendered << "\n";
    } else {
      std::cerr << response->StringOr("text", "");
    }
  }
  if (drain) {
    Status drained = client.Drain();
    if (!drained.ok()) {
      std::cerr << "spanex: drain: " << drained.ToString() << "\n";
      return ClientExit(drained);
    }
  }
  writer.Flush();
  return OutputExit(writer);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> patterns;
  std::string query;
  bool have_query = false;
  OutputFormat format = OutputFormat::kTsv;
  size_t threads = 0;
  char delimiter = '\n';
  bool header = true;
  bool stats = false;
  bool metrics = false;
  bool json_report = false;
  std::string trace_path;
  std::string generate;
  std::string save_corpus;
  std::string corpus_path;
  bool use_index = false;
  std::string connect_path;
  bool drain = false;
  server::ConnectOptions copts;
  server::RetryPolicy retry;
  bool connect_flags_used = false;
  std::vector<std::string> files;

  // A downstream that stops reading (| head) must end the stream cleanly,
  // not kill the process: writes are checked instead (CheckedWriter).
  std::signal(SIGPIPE, SIG_IGN);

  // Test harnesses arm client-side fault points (client.connect/send/recv)
  // through the SPANNERS_FAULT env var; a no-op in production builds.
  {
    Status armed = fault::ConfigureFromEnv();
    if (!armed.ok()) {
      std::cerr << "spanex: SPANNERS_FAULT: " << armed.ToString() << "\n";
      return 2;
    }
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "spanex: " << flag << " needs a value\n";
        std::exit(Usage(argv[0], 2));
      }
      return argv[++i];
    };
    auto need_count = [&](const char* flag, size_t max) -> size_t {
      const char* value = need_value(flag);
      size_t parsed = 0;
      if (!ParseCount(value, max, &parsed)) {
        std::cerr << "spanex: " << flag << " expects a count in [0, " << max
                  << "], got '" << value << "'\n";
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "-h" || arg == "--help") return Usage(argv[0], 0);
    if (arg == "-p" || arg == "-e" || arg == "--pattern") {
      patterns.push_back(need_value("--pattern"));
    } else if (arg == "-f" || arg == "--pattern-file") {
      std::string path = need_value("--pattern-file");
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "spanex: cannot open pattern file: " << path << "\n";
        return 2;
      }
      std::string pattern;
      pattern.assign(std::istreambuf_iterator<char>(in), {});
      while (!pattern.empty() &&
             (pattern.back() == '\n' || pattern.back() == '\r'))
        pattern.pop_back();
      patterns.push_back(std::move(pattern));
    } else if (arg == "--patterns-file") {
      std::string path = need_value("--patterns-file");
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "spanex: cannot open patterns file: " << path << "\n";
        return 2;
      }
      std::string line;
      while (std::getline(in, line)) {
        while (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) patterns.push_back(line);
      }
    } else if (arg == "-q" || arg == "--query") {
      query = need_value("--query");
      have_query = true;
    } else if (arg == "--query-file") {
      std::string path = need_value("--query-file");
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "spanex: cannot open query file: " << path << "\n";
        return 2;
      }
      query.assign(std::istreambuf_iterator<char>(in), {});
      have_query = true;
    } else if (arg == "-F" || arg == "--format") {
      std::string value = need_value("--format");
      if (!ParseOutputFormat(value, &format)) {
        std::cerr << "spanex: unknown format '" << value
                  << "' (expected tsv or json)\n";
        return 2;
      }
    } else if (arg == "-j" || arg == "--threads") {
      threads = need_count("--threads", 4096);
    } else if (arg == "-0" || arg == "--null") {
      delimiter = '\0';
    } else if (arg == "--no-header") {
      header = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--stats=json") {
      stats = true;
      json_report = true;
    } else if (arg == "--metrics") {
      stats = true;
      metrics = true;
    } else if (arg == "--metrics=json") {
      stats = true;
      metrics = true;
      json_report = true;
    } else if (arg == "--trace") {
      trace_path = need_value("--trace");
    } else if (arg == "--generate") {
      generate = need_value("--generate");
    } else if (arg == "--save-corpus") {
      save_corpus = need_value("--save-corpus");
    } else if (arg == "--corpus") {
      corpus_path = need_value("--corpus");
    } else if (arg == "--index") {
      use_index = true;
    } else if (arg == "--connect") {
      connect_path = need_value("--connect");
    } else if (arg == "--retries") {
      retry.max_retries =
          static_cast<uint32_t>(need_count("--retries", 1000));
    } else if (arg == "--connect-timeout-ms") {
      copts.connect_timeout_ms =
          static_cast<uint32_t>(need_count("--connect-timeout-ms", 1u << 30));
      connect_flags_used = true;
    } else if (arg == "--io-timeout-ms") {
      copts.io_timeout_ms =
          static_cast<uint32_t>(need_count("--io-timeout-ms", 1u << 30));
      connect_flags_used = true;
    } else if (arg == "--drain") {
      drain = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "spanex: unknown option " << arg << "\n";
      return Usage(argv[0], 2);
    } else {
      files.push_back(arg);
    }
  }
  if (have_query && !patterns.empty()) {
    std::cerr << "spanex: -p/--pattern and -q/--query are mutually "
                 "exclusive\n";
    return Usage(argv[0], 2);
  }
  if (!corpus_path.empty() && (!generate.empty() || !files.empty())) {
    std::cerr << "spanex: --corpus is mutually exclusive with --generate "
                 "and corpus files\n";
    return 2;
  }
  if (!corpus_path.empty() && !save_corpus.empty()) {
    std::cerr << "spanex: --corpus and --save-corpus are mutually "
                 "exclusive\n";
    return 2;
  }
  if (use_index && corpus_path.empty() && save_corpus.empty()) {
    std::cerr << "spanex: --index needs --corpus FILE (indexed extraction) "
                 "or --save-corpus FILE (index build)\n";
    return 2;
  }
  if (use_index && !corpus_path.empty() && have_query) {
    std::cerr << "spanex: --index accelerates pattern plans (-p); algebra "
                 "queries (-q) are not index-gated — drop --index to run "
                 "the query over the persisted corpus\n";
    return 2;
  }
  if (connect_path.empty() &&
      (drain || retry.max_retries > 0 || connect_flags_used)) {
    std::cerr << "spanex: --drain/--retries/--connect-timeout-ms/"
                 "--io-timeout-ms need --connect SOCKET\n";
    return 2;
  }
  if (!connect_path.empty()) {
    if (have_query || !generate.empty() || !files.empty() ||
        !corpus_path.empty() || !save_corpus.empty() || use_index) {
      std::cerr << "spanex: --connect extracts against the server's held "
                   "corpus; it is mutually exclusive with -q, --generate, "
                   "--corpus, --save-corpus, --index and corpus files\n";
      return 2;
    }
    return RunClient(connect_path, patterns, format, header, stats,
                     json_report, drain, copts, retry);
  }

  // Corpus: synthesized, or all inputs concatenated ("-" means stdin).
  Corpus corpus;
  if (!generate.empty() && !files.empty()) {
    std::cerr << "spanex: --generate and corpus files are mutually "
                 "exclusive\n";
    return 2;
  }
  if (!generate.empty()) {
    // Without explicit patterns/query, a fleet's own patterns (or bomb's
    // poison pattern) are extracted.
    Result<workload::PatternFleet> generated =
        workload::CorpusFromSpec(generate);
    if (!generated.ok()) {
      std::cerr << "spanex: --generate: " << generated.status().message()
                << "\n";
      return 2;
    }
    corpus = Corpus(std::move(generated->documents));
    if (patterns.empty() && !have_query)
      patterns = std::move(generated->patterns);
  }
  if (patterns.empty() && !have_query && save_corpus.empty()) {
    std::cerr << "spanex: missing -p/--pattern, -f/--pattern-file, "
                 "--patterns-file, -q/--query or --query-file\n";
    return Usage(argv[0], 2);
  }
  if (generate.empty() && corpus_path.empty()) {
    if (files.empty()) files.push_back("-");
    Result<Corpus> loaded = Corpus::FromFiles(files, delimiter);
    if (!loaded.ok()) {
      std::cerr << "spanex: " << loaded.status().ToString() << "\n";
      return 2;
    }
    corpus = std::move(loaded).value();
  }

  // Persist-and-exit mode: write the loaded corpus as a checksummed
  // segment (and, with --index, its trigram posting index) — the file a
  // later `--corpus FILE [--index]` run opens without re-parsing text.
  if (!save_corpus.empty()) {
    engine::ThreadPool pool(threads);
    storage::SegmentWriteOptions write_options;
    write_options.pool = &pool;
    Status written =
        storage::SegmentStore::Write(corpus, save_corpus, write_options);
    if (!written.ok()) {
      std::cerr << "spanex: " << written.ToString() << "\n";
      return 2;
    }
    // Reopen through the validating path: what we report is what a
    // reader will accept.
    Result<storage::SegmentStore> reopened =
        storage::SegmentStore::Open(save_corpus);
    if (!reopened.ok()) {
      std::cerr << "spanex: " << reopened.status().ToString() << "\n";
      return 2;
    }
    std::cerr << "spanex: wrote " << save_corpus << ": "
              << reopened.value().ToString() << "\n";
    if (use_index) {
      const uint64_t build_start = NowNs();
      storage::NgramIndex built = storage::NgramIndex::Build(reopened.value());
      const uint64_t build_ns = NowNs() - build_start;
      const std::string index_path = storage::IndexPathFor(save_corpus);
      Status saved = built.Save(index_path);
      if (!saved.ok()) {
        std::cerr << "spanex: " << saved.ToString() << "\n";
        return 2;
      }
      const double mb = double(reopened.value().data_bytes()) / (1024 * 1024);
      char rate[48];
      std::snprintf(rate, sizeof(rate), "%.1f MB/s",
                    build_ns > 0 ? mb / (double(build_ns) / 1e9) : 0.0);
      std::cerr << "spanex: wrote " << index_path << ": " << built.ToString()
                << " (built at " << rate << ")\n";
    }
    return 0;
  }

  // Persisted-corpus mode: open (and checksum-verify) the segment; with
  // --index also its posting index. Without --index the store is read
  // back into an in-memory corpus and scanned like any other input.
  std::optional<storage::SegmentStore> store;
  std::optional<storage::NgramIndex> index;
  if (!corpus_path.empty()) {
    Result<storage::SegmentStore> opened =
        storage::SegmentStore::Open(corpus_path);
    if (!opened.ok()) {
      std::cerr << "spanex: " << opened.status().ToString() << "\n";
      return 2;
    }
    store = std::move(opened).value();
    if (use_index) {
      Result<storage::NgramIndex> opened_index = storage::NgramIndex::Open(
          storage::IndexPathFor(corpus_path), store->num_docs());
      if (!opened_index.ok()) {
        std::cerr << "spanex: " << opened_index.status().ToString() << "\n";
        return 2;
      }
      index = std::move(opened_index).value();
    } else {
      corpus = store->ReadAll();
    }
  }

  // Compile. Multiple patterns share the plan cache (a repeated pattern
  // compiles once) and run as one multi-query fleet.
  PlanCache cache;
  std::optional<query::CompiledQuery> compiled;
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  if (have_query) {
    Result<query::ExprPtr> expr = query::ParseQuery(query);
    if (!expr.ok()) {
      std::cerr << "spanex: bad query: " << expr.status().ToString() << "\n";
      return 2;
    }
    query::QueryCompileOptions qopts;
    qopts.cache = &cache;
    Result<query::CompiledQuery> q =
        query::CompiledQuery::Compile(expr.value(), qopts);
    if (!q.ok()) {
      std::cerr << "spanex: query compilation failed: "
                << q.status().ToString() << "\n";
      return 2;
    }
    compiled = std::move(q).value();
  } else {
    for (const std::string& pattern : patterns) {
      Result<std::shared_ptr<const ExtractionPlan>> p =
          cache.GetOrCompile(pattern);
      if (!p.ok()) {
        std::cerr << "spanex: bad pattern '" << pattern
                  << "': " << p.status().ToString() << "\n";
        return 2;
      }
      plans.push_back(std::move(p).value());
    }
  }

  // Telemetry ships off; --metrics/--trace turn recording on for this run.
  if (metrics || !trace_path.empty()) obs::SetEnabled(true);
  if (!trace_path.empty()) obs::Trace::Enable();

  BatchOptions batch_options;
  batch_options.num_threads = threads;
  BatchExtractor batch(batch_options);

  // End-of-run reporting shared by both execution paths: fill in the
  // run-shape fields, render once, dump the trace ring.
  const uint64_t run_start_ns = NowNs();
  auto finish = [&](EngineReport report,
                    const BatchExtractor::StreamStats& result) {
    if (!trace_path.empty()) {
      std::ofstream trace_out(trace_path, std::ios::binary);
      if (!trace_out) {
        std::cerr << "spanex: cannot open trace file: " << trace_path
                  << "\n";
      } else {
        obs::Trace::WriteChromeJson(trace_out);
      }
      obs::Trace::Disable();
    }
    if (!stats) return;
    report.documents = index.has_value() ? store->num_docs() : corpus.size();
    report.total_mappings = result.total_mappings;
    report.matched_documents = result.matched_documents;
    report.shards = result.shards;
    report.threads = batch.num_threads();
    report.wall_ns = NowNs() - run_start_ns;
    if (metrics) {
      report.have_metrics = true;
      report.metrics = obs::MetricsRegistry::Global().Snapshot();
    }
    if (json_report) {
      std::cerr << report.ToJson() << "\n";
    } else {
      std::cerr << report.ToText("spanex: ");
    }
  };

  // Output streams shard by shard in deterministic corpus order: each
  // window of 2 × threads shards prints once it is extracted, and the full
  // result set is never materialized at once. Every write is checked: once
  // the downstream pipe closes, formatting keeps running (results and
  // stats stay correct) but nothing further is written.
  CheckedWriter writer(stdout);
  std::string out;
  auto flush_if_large = [&out, &writer] {
    if (out.size() >= 1 << 20) {
      writer.Write(out);
      out.clear();
    }
  };

  // A fleet's TSV header and report lines, as spanexd prints and reports
  // them (a fleet of one as its plan alone).
  auto fleet_header = [&](const MultiQueryExtractor& fleet) {
    if (format == OutputFormat::kTsv && header) out += FleetOutputHeader(fleet);
  };
  auto fleet_report = [&](const MultiQueryExtractor& fleet) {
    EngineReport report;
    report.AddFleet(fleet);
    report.have_cache = true;
    report.cache = cache.stats();
    return report;
  };

  // Indexed extraction over a persisted corpus: posting-list candidate
  // lookup, then the normal gate cascade over candidates only, for every
  // plan at once (a single plan is a fleet of one). Output and report rows
  // match the full-scan paths byte for byte (matched docs are always
  // candidates; non-candidates provably have no rows).
  if (index.has_value()) {
    MultiQueryExtractor fleet(plans);
    fleet_header(fleet);
    IndexedStats index_stats;
    MultiBatchResult result =
        batch.ExtractIndexedMulti(fleet, *store, &*index, &index_stats);
    BatchExtractor::StreamStats run_stats;
    for (const size_t i : result.HitDocuments()) {
      ++run_stats.matched_documents;
      const Document doc = store->MaterializeDoc(i);
      for (size_t p = 0; p < result.per_plan.size(); ++p) {
        const VarSet& vars = fleet.plan(p).vars();
        for (const Mapping& m : result.per_plan[p].per_doc[i]) {
          AppendFleetOutputRow(&out, format, fleet.num_plans(), p, i, m, vars,
                               doc);
          flush_if_large();
        }
      }
    }
    writer.Write(out);
    out.clear();
    run_stats.total_mappings = result.total_mappings;
    run_stats.shards = result.shards;

    EngineReport report = fleet_report(fleet);
    report.have_index = true;
    report.index_info = index->ToString();
    report.index_stats = index_stats;
    finish(std::move(report), run_stats);
    return OutputExit(writer);
  }

  if (compiled.has_value() || plans.size() == 1) {
    const DocumentExtractor* extractor =
        compiled.has_value()
            ? static_cast<const DocumentExtractor*>(&*compiled)
            : plans[0].get();
    const VarSet& vars = extractor->vars();
    if (format == OutputFormat::kTsv && header) {
      out += TsvHeader(vars);
      out += '\n';
    }
    BatchExtractor::StreamStats result = batch.ExtractStream(
        *extractor, corpus,
        [&](size_t doc_begin, size_t doc_end,
            std::vector<std::vector<Mapping>>& per_doc) {
          for (size_t i = doc_begin; i < doc_end; ++i) {
            for (const Mapping& m : per_doc[i - doc_begin]) {
              AppendMappingRow(&out, format, i, m, vars, corpus[i]);
              flush_if_large();
            }
          }
          writer.Write(out);
          out.clear();
        });
    writer.Write(out);

    EngineReport report;
    if (!compiled.has_value()) {
      report.AddPlan("", *plans[0]);
    } else {
      // One line per distinct scan plan, from its own record; a plan two
      // scans share counts both.
      report.query_plan = compiled->PlanString();
      std::vector<const ExtractionPlan*> listed;
      for (const auto& scan : compiled->scan_plans()) {
        if (std::find(listed.begin(), listed.end(), scan.get()) !=
            listed.end())
          continue;
        report.AddPlan("s" + std::to_string(listed.size()), *scan);
        listed.push_back(scan.get());
      }
      report.have_cache = true;
      report.cache = cache.stats();
    }
    finish(std::move(report), result);
    return OutputExit(writer);
  }

  // Multi-query fleet: one corpus pass for every plan. Rows carry a
  // leading `query` column (the 0-based position of the pattern on the
  // command line / in the patterns file), doc-major then query-minor.
  MultiQueryExtractor fleet(plans);
  fleet_header(fleet);
  BatchExtractor::StreamStats result = batch.ExtractMultiStream(
      fleet, corpus,
      [&](size_t doc_begin, size_t doc_end,
          std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
        for (size_t i = doc_begin; i < doc_end; ++i) {
          for (size_t p = 0; p < per_plan.size(); ++p) {
            const VarSet& vars = fleet.plan(p).vars();
            for (const Mapping& m : per_plan[p][i - doc_begin]) {
              AppendFleetMappingRow(&out, format, p, i, m, vars, corpus[i]);
              flush_if_large();
            }
          }
        }
        writer.Write(out);
        out.clear();
      });
  writer.Write(out);

  EngineReport report = fleet_report(fleet);
  finish(std::move(report), result);
  return OutputExit(writer);
}
