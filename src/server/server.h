// spanexd's resident extraction service: one persistent process owning
// the PlanCache and a corpus — in-memory, or an mmap'd SegmentStore with
// its optional trigram posting index — serving concurrent clients over a
// local AF_UNIX stream socket with the JSONL protocol of
// server/protocol.h.
//
// Architecture (two threads plus the extraction pool's workers):
//
//   clients ──► poll() I/O thread ──► bounded admission queue ──► executor
//                 │   (accept, read, parse, control ops,           thread
//                 │    cheap extracts under a 1 ms fuse,             │
//                 │    partial-write buffering)                      ▼
//                 ◄── per-connection output buffers ◄── BatchExtractor
//                      (watermark backpressure)      (executor + ThreadPool)
//
// The I/O thread owns every socket and all session state (registered
// plan handles → PlanCache entries); it answers control-plane requests
// (ping, register, unregister, stats, drain) inline and routes
// extraction work (extract, extract_batch, sleeping pings) through
// admission. Admission is where backpressure lives:
//
//   - queue full                → Unavailable + retry_after_ms
//   - per-client in-flight cap  → Unavailable + retry_after_ms
//   - draining                  → Unavailable + retry_after_ms
//
// Where an `extract` runs: when the executor is idle, the queue is empty
// and the connection's output is under the watermark, the I/O thread runs
// the one document itself and writes the answer straight to the socket,
// skipping both thread hand-offs. It takes at most one such extract per
// connection per poll round, so a pipelined burst cannot hold the loop,
// and runs it under a fuse: a token armed with kInlineFuse (1 ms) and the
// request's memory cap. The attempt emits nothing until it finishes; on
// any trip the untouched item joins the queue and the executor reruns it
// under the request's own token, so a poison request costs every other
// connection at most 1 ms. Everything else — extract_batch, sleeping
// pings, a busy executor — queues.
//
// The executor thread drains the queue in FIFO order and runs each item
// on one shared BatchExtractor (requests serialize at the batch level —
// the extractor is non-reentrant by contract — while each request
// parallelizes internally across the pool). The I/O thread is the
// queue's only producer and goes inline only after the executor has
// cleared its in-flight mark under the queue lock, so the BatchExtractor
// has one user at a time. The executor is itself one of the extraction
// threads: `-j 1` starts no pool thread, and a one-document extract
// wakes none at any width. Response rows travel in chunks of about
// kRowsChunkBytes; a connection whose output buffer exceeds the high
// watermark blocks the executor until the I/O thread drains it, so a
// slow reader throttles its own extraction instead of ballooning server
// memory (the bounded-window ExtractMultiStream machinery then holds
// back shard production too).
//
// Graceful drain (SIGTERM via RequestDrain(), or the `drain` op): stop
// accepting connections, refuse new admissions with Unavailable, finish
// every admitted item, flush every response buffer, exit 0. Past
// drain_flush_timeout_ms every connection is force-closed, which also
// cancels its queued and in-flight work through the tokens.
//
// Instrumentation: per-instance counters read through StatsSnapshot()
// (the stats op's report.server section) plus four histograms in the
// global obs::MetricsRegistry (catalogue in README "Server mode").
#ifndef SPANNERS_SERVER_SERVER_H_
#define SPANNERS_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "engine/batch_extractor.h"
#include "engine/corpus.h"
#include "engine/format.h"
#include "engine/multi_query.h"
#include "engine/plan_cache.h"
#include "engine/report.h"
#include "obs/metrics.h"
#include "server/json.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

namespace spanners {
namespace server {

struct ServerOptions {
  /// AF_UNIX socket path; a stale file at the path is unlinked on Start.
  std::string socket_path;
  /// Admitted-but-not-executing work items the queue holds before
  /// rejecting with Unavailable.
  size_t queue_capacity = 64;
  /// Admitted (queued or executing) items one connection may hold.
  size_t max_inflight_per_client = 8;
  /// Backoff hint attached to every Unavailable rejection.
  uint32_t retry_after_ms = 50;
  /// Threads that extract, the executor included (0 = hardware
  /// concurrency); 1 starts no pool thread.
  size_t num_threads = 0;
  size_t plan_cache_capacity = 128;
  /// One request line may not exceed this (oversized ⇒ error + close).
  size_t max_request_bytes = 16u << 20;
  /// Pending-output bytes per connection above which the executor blocks
  /// until the I/O thread drains the buffer (slow-reader backpressure),
  /// and the connection's extracts stop running inline.
  size_t output_high_watermark = 4u << 20;
  /// After drain, wait at most this long for clients to read buffered
  /// responses before force-closing them.
  uint32_t drain_flush_timeout_ms = 10'000;
  /// Per-request deadline measured from admission, armed on the request's
  /// CancelToken and polled at dequeue, during evaluation, at stream chunk
  /// boundaries and during a sleeping ping. A request past its deadline is
  /// answered with Status::DeadlineExceeded instead of (more) rows.
  /// 0 = no deadline.
  uint32_t request_timeout_ms = 0;
  /// Connections with no admitted work, no buffered output and no traffic
  /// for this long are reaped (closed) so a connect-and-stall client
  /// cannot hold an fd forever. 0 = never reap.
  uint32_t idle_timeout_ms = 0;
  /// Per-request cap on evaluation arena bytes. A request whose extraction
  /// allocates past the cap is aborted mid-evaluation and answered with
  /// Status::ResourceExhausted instead of growing without bound. 0 = no cap.
  size_t request_memory_cap = 0;
};

class Server {
 public:
  /// Serves an in-memory corpus (extract_batch scans it).
  Server(ServerOptions options, engine::Corpus corpus);
  /// Serves a persisted segment; with an index, extract_batch runs the
  /// posting-list-gated path (byte-identical to the scan).
  Server(ServerOptions options, storage::SegmentStore store,
         std::optional<storage::NgramIndex> index);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path and starts the executor.
  /// After OK, clients may connect (Serve() need not be running yet —
  /// connections queue in the listen backlog).
  Status Start();

  /// Runs the I/O loop until a drain completes. Returns the process exit
  /// code: 0 after a clean drain. Call from one thread only, after
  /// Start().
  int Serve();

  /// Begins a graceful drain. Thread-safe and async-signal-safe after
  /// Start() (one atomic store + one pipe write), so a SIGTERM handler
  /// may call it directly.
  void RequestDrain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  const ServerOptions& options() const { return options_; }
  engine::PlanCache& plan_cache() { return cache_; }
  size_t corpus_docs() const;

  /// Point-in-time server-side stats (always on, independent of
  /// obs::Enabled()).
  engine::ServerStatsReport StatsSnapshot() const;

  /// Switches the server into degraded mode: serving continues (answers
  /// stay byte-identical — full scans instead of indexed/gated paths) and
  /// stats report degraded:true with this reason. First call wins; later
  /// calls with new reasons append. Thread-safe; spanexd calls this when
  /// the posting index fails to open.
  void MarkDegraded(const std::string& reason);
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

 private:
  struct Connection;
  class RowChunks;
  enum class WorkOp { kSleepPing, kExtract, kExtractBatch };
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    int64_t id = 0;
    WorkOp op = WorkOp::kSleepPing;
    uint64_t sleep_ms = 0;
    std::string doc;
    size_t doc_index = 0;
    engine::OutputFormat format = engine::OutputFormat::kTsv;
    bool header = false;
    /// Immutable fleet snapshot taken at admission (session plans, or the
    /// cache's current residents for "all" batches).
    std::shared_ptr<const engine::MultiQueryExtractor> fleet;
    /// Admission time (an inline extract keeps it if its fuse trips).
    uint64_t enqueue_ns = 0;
    /// The request's cancellation token, armed at admission with the
    /// deadline and the per-request memory cap. CloseConn cancels it so a
    /// disconnect aborts queued AND in-flight work; the executor polls it
    /// at dequeue, while sleeping and at chunk boundaries, and hands it to
    /// the BatchExtractor for the duration of an extraction. An inline
    /// attempt runs under its own fuse instead and leaves this untouched.
    std::shared_ptr<CancelToken> cancel;
  };

  // --- I/O thread ---------------------------------------------------
  void AcceptConnections();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  std::string_view line);
  void HandleRegister(const std::shared_ptr<Connection>& conn, int64_t id,
                      const JsonValue& req);
  void HandleUnregister(const std::shared_ptr<Connection>& conn, int64_t id,
                        const JsonValue& req);
  void HandleStats(const std::shared_ptr<Connection>& conn, int64_t id);
  /// Refuses, runs inline (RunInline) or queues one work item.
  Status AdmitWork(const std::shared_ptr<Connection>& conn, WorkItem item);
  /// Appends `item` to the admission queue. Caller holds queue_mu_.
  void EnqueueLocked(WorkItem item);
  /// Runs an admitted extract on the I/O thread under the 1 ms fuse and
  /// sends its answer, or queues it untouched when the fuse trips.
  void RunInline(const std::shared_ptr<Connection>& conn, WorkItem item);
  /// Appends a response line to the connection's output buffer; false
  /// once the connection closed.
  bool Buffer(const std::shared_ptr<Connection>& conn, std::string_view line);
  /// Buffer, then an immediate non-blocking flush. I/O thread only.
  void SendNow(const std::shared_ptr<Connection>& conn, std::string line);
  /// Non-blocking socket write of whatever is buffered; closes the
  /// connection on a hard error. Returns false when the connection died.
  bool FlushConn(const std::shared_ptr<Connection>& conn);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  void BeginDrain();
  void WakeIo();
  /// Closes connections idle past options_.idle_timeout_ms (no admitted
  /// work, empty output buffer, no traffic). I/O thread only.
  void ReapIdleConns(uint64_t now_ns);

  /// The session's fleet over its registered plans (registration order),
  /// rebuilt only when the set changed since the last build.
  std::shared_ptr<const engine::MultiQueryExtractor> SessionFleet(
      const std::shared_ptr<Connection>& conn);

  // --- executor thread ----------------------------------------------
  void ExecutorLoop();
  void Execute(const WorkItem& item);
  void ExecuteExtract(const WorkItem& item);
  void ExecuteExtractBatch(const WorkItem& item);
  /// Extracts `item`'s one document under `token` and, unless the token
  /// tripped, renders its header and rows into `rows` and returns true.
  /// Runs on whichever thread holds batch_: the executor, or the I/O
  /// thread inline.
  bool ExtractOne(const WorkItem& item, CancelToken* token, RowChunks* rows,
                  uint64_t* mappings);
  /// The executor's end of an extraction: the error line if the token
  /// tripped, else the last row chunk and the done line.
  void FinishRows(const WorkItem& item, RowChunks* rows, uint64_t mappings,
                  size_t matched_docs);
  /// Epilogue of every executed or expired item: records the request's
  /// peak arena bytes and, when its token tripped, emits the matching
  /// error line and bumps the matching counter — the one place a trip
  /// becomes an answer. True ⇒ the request ended in an error; the caller
  /// must not surface rows or a done line.
  bool FinishRequest(const WorkItem& item);
  /// Blocks while the connection's output buffer is above the high
  /// watermark; false when the connection closed (drop the output).
  bool EmitLine(const std::shared_ptr<Connection>& conn, std::string line);

  ServerOptions options_;

  // Exactly one of corpus_ / store_ is populated.
  engine::Corpus corpus_;
  std::optional<storage::SegmentStore> store_;
  std::optional<storage::NgramIndex> index_;

  engine::PlanCache cache_;
  engine::BatchExtractor batch_;

  void InitMetrics();

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  bool started_ = false;
  uint64_t start_ns_ = 0;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  /// Serve()'s poll rounds so far; a connection runs at most one extract
  /// inline per round. I/O thread only.
  uint64_t poll_round_ = 0;

  // Admission queue (queue_mu_ guards queue_; the cv wakes the executor;
  // mutable so StatsSnapshot can read the depth).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;

  // The item running now, on the executor or inline on the I/O thread
  // (guarded by queue_mu_; empty between items). CloseConn cancels
  // inflight_cancel_ when the dying connection owns it; StatsSnapshot
  // derives the oldest in-flight age from inflight_enqueue_ns_ and the
  // queue front; the I/O thread goes inline only while it is empty.
  std::shared_ptr<Connection> inflight_conn_;
  std::shared_ptr<CancelToken> inflight_cancel_;
  uint64_t inflight_enqueue_ns_ = 0;

  std::thread executor_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> executor_done_{false};
  std::atomic<bool> stop_{false};
  uint64_t drain_deadline_ns_ = 0;

  // Last extract_batch's index accounting (stats endpoint).
  mutable std::mutex indexed_stats_mu_;
  bool have_indexed_stats_ = false;
  engine::IndexedStats last_indexed_stats_;

  // Histograms in the process-global registry, recorded unconditionally
  // (a handful of fetch_adds per request).
  obs::Histogram* queue_depth_;
  obs::Histogram* queue_wait_ns_;
  obs::Histogram* request_ns_;
  obs::Histogram* request_peak_arena_bytes_;

  // Per-server counters — the one record of each event; StatsSnapshot
  // reads them — plus the open-connection gauge.
  std::atomic<uint64_t> n_connections_{0};
  std::atomic<uint64_t> n_requests_{0};
  std::atomic<uint64_t> n_admitted_{0};
  std::atomic<uint64_t> n_rejected_queue_full_{0};
  std::atomic<uint64_t> n_rejected_inflight_cap_{0};
  std::atomic<uint64_t> n_rejected_draining_{0};
  std::atomic<uint64_t> n_deadline_exceeded_{0};
  std::atomic<uint64_t> n_cancelled_{0};
  std::atomic<uint64_t> n_resource_exhausted_{0};
  std::atomic<uint64_t> n_cancelled_disconnect_{0};
  std::atomic<uint64_t> n_reaped_idle_{0};
  std::atomic<size_t> open_conns_{0};

  // Degraded-mode state (MarkDegraded / StatsSnapshot).
  std::atomic<bool> degraded_{false};
  mutable std::mutex degraded_mu_;
  std::string degraded_reason_;  // guarded by degraded_mu_
};

}  // namespace server
}  // namespace spanners

#endif  // SPANNERS_SERVER_SERVER_H_
