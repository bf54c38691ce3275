// spanexd — the resident extraction service.
//
// Loads a corpus ONCE (delimited text, the workload generators, or a
// persisted --corpus segment with its optional trigram --index), then
// serves concurrent clients over a local AF_UNIX socket with a JSONL
// protocol: register/unregister plans per session, extract one document,
// extract_batch against the held corpus (indexed gating when the index is
// open), stats, ping, drain. Compiled plans live in the process-wide
// PlanCache across requests and clients — the amortization a one-shot
// `spanex` run cannot have.
//
//   spanexd --socket /tmp/spanex.sock --generate fleet:2000:10:32
//   spanexd --socket /tmp/spanex.sock --corpus corpus.seg --index
//   generate_logs | spanexd --socket /tmp/spanex.sock
//   spanex --connect /tmp/spanex.sock -p 'x{[A-Z]+}'       # a client
//
// Backpressure: a bounded admission queue (--queue) plus a per-client
// in-flight cap (--inflight); when either is exceeded — or the server is
// draining — requests are refused with Unavailable and a retry_after_ms
// hint (--retry-after) instead of queueing without bound. Slow readers
// block their own extraction at the output high-watermark.
//
// Shutdown: SIGTERM/SIGINT trigger a graceful drain — stop accepting,
// refuse new work, finish everything admitted, flush buffered responses,
// exit 0. The `drain` protocol op does the same from a client.
//
// Options:
//   --socket PATH            AF_UNIX socket path to listen on (required;
//                            a stale socket file is replaced)
//   --corpus FILE            serve a persisted segment (checksum-verified
//                            mmap; documents materialize on demand)
//   --index                  with --corpus: open FILE.idx and serve
//                            extract_batch through posting-list candidate
//                            lookup (byte-identical to the scan)
//   --generate KIND[:DOCS[:ROWS[:PATTERNS]]]
//                            synthesize the corpus with the workload
//                            generators (land-registry, server-log,
//                            needle, fleet, bomb) instead of reading
//                            files
//   -j, --threads N          threads that extract, the caller (the
//                            executor thread) included (default: hardware
//                            concurrency; 1 starts no pool thread)
//   -0, --null               documents are NUL-delimited, not newline
//   --queue N                admission queue capacity (default 64)
//   --inflight N             per-client in-flight cap (default 8)
//   --retry-after MS         backoff hint on Unavailable (default 50)
//   --cache-capacity N       PlanCache capacity (default 128)
//   --request-timeout-ms MS  per-request deadline from admission, polled
//                            while queued, evaluating, streaming and
//                            sleeping; expired requests answer
//                            DeadlineExceeded (default 0 = no deadline)
//   --idle-timeout-ms MS     reap connections idle this long with no
//                            in-flight work (default 0 = never)
//   --request-memory-cap BYTES
//                            per-request evaluation arena cap: a request
//                            that allocates past BYTES mid-extraction is
//                            aborted with ResourceExhausted instead of
//                            growing without bound (default 0 = no cap)
//   --fault SPEC             arm fault-injection rules; SPEC is
//                            point=kind[,errno=E][,after=N][,every=N]
//                            [,count=N][,bytes=N][,ms=N][,prob=P][,seed=S]
//                            joined by ';' — see src/common/fault.h.
//                            The SPANNERS_FAULT env var does the same.
//   --no-metrics             do not record engine telemetry (stats still
//                            reports the always-on server section)
//   -h, --help               this text
//
// Remaining arguments are corpus files ("-" = stdin); with no files,
// no --generate and no --corpus, the corpus is read from stdin.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/parse.h"
#include "engine/corpus.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

namespace {

using namespace spanners;

// SIGTERM/SIGINT → graceful drain. RequestDrain is async-signal-safe
// (atomic store + pipe write), so the handler calls it directly.
server::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

int Usage(const char* argv0, int code) {
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage: " << argv0
      << " --socket PATH [--corpus FILE [--index] | --generate KIND |\n"
         "               CORPUS_FILE...]\n"
         "               [-j N] [-0] [--queue N] [--inflight N]\n"
         "               [--retry-after MS] [--cache-capacity N]\n"
         "               [--request-timeout-ms MS] [--idle-timeout-ms MS]\n"
         "               [--request-memory-cap BYTES] [--fault SPEC]\n"
         "               [--no-metrics]\n"
         "Serves document-spanner extraction over an AF_UNIX JSONL\n"
         "socket: clients register plans, extract documents or the held\n"
         "corpus, and drain the server (see README \"Server mode\").\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Env-armed injection first; an explicit --fault replaces it wholesale.
  {
    Status armed = fault::ConfigureFromEnv();
    if (!armed.ok()) {
      std::cerr << "spanexd: SPANNERS_FAULT: " << armed.ToString() << "\n";
      return 2;
    }
  }
  server::ServerOptions options;
  std::string corpus_path;
  bool use_index = false;
  std::string generate;
  char delimiter = '\n';
  bool metrics = true;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "spanexd: " << flag << " needs a value\n";
        std::exit(Usage(argv[0], 2));
      }
      return argv[++i];
    };
    auto need_count = [&](const char* flag, size_t max) -> size_t {
      const char* value = need_value(flag);
      size_t parsed = 0;
      if (!ParseCount(value, max, &parsed)) {
        std::cerr << "spanexd: " << flag << " expects a count in [0, " << max
                  << "], got '" << value << "'\n";
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "-h" || arg == "--help") return Usage(argv[0], 0);
    if (arg == "--socket") {
      options.socket_path = need_value("--socket");
    } else if (arg == "--corpus") {
      corpus_path = need_value("--corpus");
    } else if (arg == "--index") {
      use_index = true;
    } else if (arg == "--generate") {
      generate = need_value("--generate");
    } else if (arg == "-j" || arg == "--threads") {
      options.num_threads = need_count("--threads", 4096);
    } else if (arg == "-0" || arg == "--null") {
      delimiter = '\0';
    } else if (arg == "--queue") {
      options.queue_capacity = need_count("--queue", 1u << 20);
      if (options.queue_capacity == 0) {
        std::cerr << "spanexd: --queue must be at least 1\n";
        return 2;
      }
    } else if (arg == "--inflight") {
      options.max_inflight_per_client = need_count("--inflight", 1u << 20);
      if (options.max_inflight_per_client == 0) {
        std::cerr << "spanexd: --inflight must be at least 1\n";
        return 2;
      }
    } else if (arg == "--retry-after") {
      options.retry_after_ms =
          static_cast<uint32_t>(need_count("--retry-after", 1u << 20));
    } else if (arg == "--cache-capacity") {
      options.plan_cache_capacity = need_count("--cache-capacity", 1u << 20);
    } else if (arg == "--request-timeout-ms") {
      options.request_timeout_ms = static_cast<uint32_t>(
          need_count("--request-timeout-ms", 1u << 30));
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms =
          static_cast<uint32_t>(need_count("--idle-timeout-ms", 1u << 30));
    } else if (arg == "--request-memory-cap") {
      options.request_memory_cap =
          need_count("--request-memory-cap", size_t(1) << 40);
    } else if (arg == "--fault") {
      Status armed = fault::Configure(need_value("--fault"));
      if (!armed.ok()) {
        std::cerr << "spanexd: --fault: " << armed.ToString() << "\n";
        return 2;
      }
    } else if (arg == "--no-metrics") {
      metrics = false;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "spanexd: unknown option " << arg << "\n";
      return Usage(argv[0], 2);
    } else {
      files.push_back(arg);
    }
  }
  if (options.socket_path.empty()) {
    std::cerr << "spanexd: --socket PATH is required\n";
    return Usage(argv[0], 2);
  }
  if (!corpus_path.empty() && (!generate.empty() || !files.empty())) {
    std::cerr << "spanexd: --corpus is mutually exclusive with --generate "
                 "and corpus files\n";
    return 2;
  }
  if (!generate.empty() && !files.empty()) {
    std::cerr << "spanexd: --generate and corpus files are mutually "
                 "exclusive\n";
    return 2;
  }
  if (use_index && corpus_path.empty()) {
    std::cerr << "spanexd: --index needs --corpus FILE\n";
    return 2;
  }

  // Engine telemetry is recorded for the stats op unless
  // operator-disabled; the server section is always on.
  if (metrics) obs::SetEnabled(true);

  std::optional<server::Server> srv;
  if (!corpus_path.empty()) {
    Result<storage::SegmentStore> opened =
        storage::SegmentStore::Open(corpus_path);
    if (!opened.ok()) {
      std::cerr << "spanexd: " << opened.status().ToString() << "\n";
      return 2;
    }
    storage::SegmentStore store = std::move(opened).value();
    std::optional<storage::NgramIndex> index;
    std::string degraded_reason;
    if (use_index) {
      Result<storage::NgramIndex> opened_index = storage::NgramIndex::Open(
          storage::IndexPathFor(corpus_path), store.num_docs());
      if (!opened_index.ok()) {
        // Degrade, don't die: full scans serve the same rows the index
        // would have gated, just slower. stats reports degraded:true.
        degraded_reason =
            "index unavailable, serving full scans: " +
            opened_index.status().ToString();
        std::cerr << "spanexd: WARNING: " << degraded_reason << "\n";
      } else {
        index = std::move(opened_index).value();
      }
    }
    std::cerr << "spanexd: serving " << store.num_docs() << " docs from "
              << corpus_path << (index.has_value() ? " (indexed)" : "")
              << "\n";
    srv.emplace(std::move(options), std::move(store), std::move(index));
    if (!degraded_reason.empty()) srv->MarkDegraded(degraded_reason);
  } else {
    engine::Corpus corpus;
    if (!generate.empty()) {
      // The server holds the documents only; clients register patterns.
      // Against a bomb corpus, a client registering
      // workload::PathologicalRgxText() proves deadlines and caps abort
      // running work.
      Result<workload::PatternFleet> generated =
          workload::CorpusFromSpec(generate);
      if (!generated.ok()) {
        std::cerr << "spanexd: --generate: " << generated.status().message()
                  << "\n";
        return 2;
      }
      corpus = engine::Corpus(std::move(generated->documents));
    } else {
      if (files.empty()) files.push_back("-");
      Result<engine::Corpus> loaded =
          engine::Corpus::FromFiles(files, delimiter);
      if (!loaded.ok()) {
        std::cerr << "spanexd: " << loaded.status().ToString() << "\n";
        return 2;
      }
      corpus = std::move(loaded).value();
    }
    std::cerr << "spanexd: serving " << corpus.size()
              << " in-memory docs\n";
    srv.emplace(std::move(options), std::move(corpus));
  }

  Status started = srv->Start();
  if (!started.ok()) {
    std::cerr << "spanexd: " << started.ToString() << "\n";
    return 2;
  }

  g_server = &*srv;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  std::cerr << "spanexd: listening on " << srv->options().socket_path
            << "\n";
  const int code = srv->Serve();
  g_server = nullptr;
  std::cerr << "spanexd: drained, exiting " << code << "\n";
  return code;
}
