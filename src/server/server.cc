#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "engine/format.h"
#include "server/protocol.h"

namespace spanners {
namespace server {

using engine::OutputFormat;

namespace {

/// How long an extract may run on the I/O thread before it moves to the
/// executor. Every other connection waits while it runs, so this is what
/// one request can add to their latency; a served one-document extract
/// evaluates in about a microsecond, so only pathological ones trip it.
constexpr std::chrono::milliseconds kInlineFuse{1};

/// A sleeping ping polls its token this often.
constexpr uint64_t kSleepSliceMs = 10;

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The last line of a successful extraction.
std::string DoneLine(int64_t id, uint64_t mappings, size_t matched_docs) {
  return OkPrefix(id) + ",\"done\":true,\"mappings\":" +
         std::to_string(mappings) +
         ",\"matched_docs\":" + std::to_string(matched_docs) + "}";
}

}  // namespace

struct Server::Connection {
  /// Owned by the I/O thread; -1 once closed.
  int fd = -1;
  std::string in_buf;

  struct Registration {
    int64_t handle = 0;
    std::string pattern;
    std::shared_ptr<const engine::ExtractionPlan> plan;
  };
  // Session state (I/O thread only). The fleet is the lazily-built
  // MultiQueryExtractor over regs in registration order, reset on every
  // register/unregister.
  std::vector<Registration> regs;
  int64_t next_handle = 1;
  std::shared_ptr<const engine::MultiQueryExtractor> fleet;

  /// Admitted (queued or executing) items of this connection.
  std::atomic<size_t> inflight{0};

  /// Last traffic (accept, bytes read, flush progress), for idle reaping.
  /// I/O thread only, like fd/in_buf.
  uint64_t last_activity_ns = 0;
  /// The poll round of this connection's last inline extract. I/O thread
  /// only.
  uint64_t inline_round = 0;

  // Output side, shared between the executor (EmitLine) and the I/O
  // thread (SendNow/FlushConn/CloseConn).
  std::mutex mu;
  std::condition_variable out_cv;
  std::string out_buf;
  bool closed = false;
};

/// The one row renderer of extract and extract_batch. It formats every
/// plan's mappings exactly as offline spanex does and packs the bare rows
/// into lines {"id":N,"rows":[…],"done":false}; a line closes once it
/// reaches kRowsChunkBytes and goes to `ship`. With a token, each full
/// line polls it first: a trip, or a ship that fails (the connection
/// closed), stops the stream, and later rows are dropped.
class Server::RowChunks {
 public:
  using Ship = std::function<bool(std::string line)>;

  RowChunks(int64_t id, const engine::MultiQueryExtractor& fleet,
            OutputFormat format, CancelToken* token, Ship ship)
      : id_(id),
        fleet_(fleet),
        format_(format),
        token_(token),
        ship_(std::move(ship)) {}

  /// The session's TSV header block, each line as one row; JSON rows
  /// have none.
  void AddHeader() {
    if (format_ != OutputFormat::kTsv) return;
    const std::string block = engine::FleetOutputHeader(fleet_);
    size_t start = 0;
    while (start < block.size()) {
      const size_t nl = block.find('\n', start);
      Add(std::string_view(block).substr(start, nl - start));
      start = (nl == std::string::npos) ? block.size() : nl + 1;
    }
  }

  /// Document `doc_index`'s rows, plan by plan: mappings_of(p) is plan
  /// p's sorted mapping set for `doc`.
  template <typename MappingsOf>
  void AddDocument(size_t doc_index, const Document& doc,
                   const MappingsOf& mappings_of) {
    const size_t num_plans = fleet_.num_plans();
    for (size_t p = 0; p < num_plans && !stopped_; ++p) {
      const VarSet& vars = fleet_.plan(p).vars();
      for (const Mapping& m : mappings_of(p)) {
        row_.clear();
        engine::AppendFleetOutputRow(&row_, format_, num_plans, p, doc_index,
                                     m, vars, doc);
        row_.pop_back();  // rows travel bare; the helper appended '\n'
        Add(row_);
        if (stopped_) return;
      }
    }
  }

  /// Ships the last, partial line. False when the stream stopped.
  bool Finish() {
    if (stopped_) return false;
    if (line_.empty()) return true;
    line_ += "],\"done\":false}";
    return ship_(std::move(line_));
  }

  bool stopped() const { return stopped_; }

 private:
  void Add(std::string_view row) {
    if (stopped_) return;
    if (line_.empty()) {
      line_ = "{\"id\":" + std::to_string(id_) + ",\"rows\":[";
    } else {
      line_ += ',';
    }
    AppendJsonString(&line_, row);
    if (line_.size() < kRowsChunkBytes) return;
    line_ += "],\"done\":false}";
    stopped_ =
        (token_ != nullptr && token_->Poll(0)) || !ship_(std::move(line_));
    line_.clear();
  }

  const int64_t id_;
  const engine::MultiQueryExtractor& fleet_;
  const OutputFormat format_;
  CancelToken* const token_;
  const Ship ship_;
  std::string line_;  // the open chunk, "" between chunks
  std::string row_;
  bool stopped_ = false;
};

Server::Server(ServerOptions options, engine::Corpus corpus)
    : options_(std::move(options)),
      corpus_(std::move(corpus)),
      cache_(engine::PlanCacheOptions{options_.plan_cache_capacity}),
      batch_(engine::BatchOptions{options_.num_threads}) {
  InitMetrics();
}

Server::Server(ServerOptions options, storage::SegmentStore store,
               std::optional<storage::NgramIndex> index)
    : options_(std::move(options)),
      store_(std::move(store)),
      index_(std::move(index)),
      cache_(engine::PlanCacheOptions{options_.plan_cache_capacity}),
      batch_(engine::BatchOptions{options_.num_threads}) {
  InitMetrics();
}

Server::~Server() {
  // Normal lifecycle has Serve() tear everything down; this path only has
  // to unblock and join a still-running executor (e.g. Start() without
  // Serve()). conns_ is safe to walk here because no I/O loop is running
  // once the destructor is reached.
  stop_.store(true, std::memory_order_release);
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->closed = true;
    conn->out_cv.notify_all();
  }
  queue_cv_.notify_all();
  if (executor_.joinable()) executor_.join();
  for (auto& [fd, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
  if (started_ && !options_.socket_path.empty())
    ::unlink(options_.socket_path.c_str());
}

void Server::InitMetrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  queue_depth_ = reg.GetHistogram("server.queue_depth", "items");
  queue_wait_ns_ = reg.GetHistogram("server.queue_wait_ns", "ns");
  request_ns_ = reg.GetHistogram("server.request_ns", "ns");
  request_peak_arena_bytes_ =
      reg.GetHistogram("engine.request_peak_arena_bytes", "bytes");
}

size_t Server::corpus_docs() const {
  return store_.has_value() ? store_->num_docs() : corpus_.size();
}

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  if (options_.socket_path.empty())
    return Status::InvalidArgument("socket_path is empty");
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  listen_fd_ =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  ::unlink(options_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s = Status::Internal("bind " + options_.socket_path + ": " +
                                      std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    const Status s =
        Status::Internal(std::string("pipe2: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  start_ns_ = MonotonicNs();
  executor_ = std::thread([this] { ExecutorLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  WakeIo();
}

void Server::WakeIo() {
  if (wake_pipe_[1] < 0) return;
  const char b = 0;
  // EAGAIN (pipe already full of wakeups) is success for our purposes.
  ssize_t ignored = ::write(wake_pipe_[1], &b, 1);
  (void)ignored;
}

void Server::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  drain_deadline_ns_ =
      MonotonicNs() + uint64_t(options_.drain_flush_timeout_ms) * 1'000'000;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Unlink right away so a restarting instance can rebind while we
    // finish in-flight work.
    ::unlink(options_.socket_path.c_str());
  }
  queue_cv_.notify_all();
}

int Server::Serve() {
  if (!started_) return 1;
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool failed = false;
  bool deadline_forced = false;
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire)) BeginDrain();

    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    const bool have_listener = listen_fd_ >= 0;
    const size_t listen_slot = pfds.size();
    if (have_listener) pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const size_t conn_base = pfds.size();
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (!conn->out_buf.empty()) events |= POLLOUT;
      }
      pfds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn);
    }

    // Idle reaping needs a periodic wakeup even with no traffic; cap the
    // sleep at the idle timeout (bounded by 1 s so reaps stay timely).
    int timeout_ms = draining_.load(std::memory_order_acquire) ? 20 : -1;
    if (timeout_ms < 0 && options_.idle_timeout_ms > 0)
      timeout_ms = int(std::min<uint32_t>(options_.idle_timeout_ms, 1000));
    const int rc = ::poll(pfds.data(), nfds_t(pfds.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      failed = true;
      break;
    }
    // Promote an externally-requested drain BEFORE handling this batch's
    // readable fds: a request that raced the drain wakeup into the same
    // poll() batch must already see draining() and be refused.
    if (drain_requested_.load(std::memory_order_acquire)) BeginDrain();
    ++poll_round_;
    if (rc > 0) {
      if (pfds[0].revents & POLLIN) {
        char buf[256];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
      }
      if (have_listener && (pfds[listen_slot].revents & POLLIN))
        AcceptConnections();
      for (size_t i = conn_base; i < pfds.size(); ++i) {
        const std::shared_ptr<Connection>& conn = polled[i - conn_base];
        if (conn->fd < 0) continue;
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
          HandleReadable(conn);
        if (conn->fd >= 0 && (pfds[i].revents & POLLOUT)) FlushConn(conn);
      }
    }

    if (drain_requested_.load(std::memory_order_acquire)) BeginDrain();
    if (!draining_.load(std::memory_order_acquire))
      ReapIdleConns(MonotonicNs());
    if (draining_.load(std::memory_order_acquire)) {
      if (!deadline_forced && MonotonicNs() >= drain_deadline_ns_) {
        // Clients that never read their responses do not get to hold the
        // drain hostage: force-close them (which also unblocks an
        // executor stuck on their watermark) and finish.
        deadline_forced = true;
        std::vector<std::shared_ptr<Connection>> all;
        all.reserve(conns_.size());
        for (auto& [fd, conn] : conns_) all.push_back(conn);
        for (const auto& conn : all) CloseConn(conn);
      }
      if (executor_done_.load(std::memory_order_acquire)) {
        bool pending = false;
        for (auto& [fd, conn] : conns_) {
          std::lock_guard<std::mutex> lk(conn->mu);
          if (!conn->out_buf.empty()) {
            pending = true;
            break;
          }
        }
        if (!pending || deadline_forced) break;
      }
    }
  }

  // Teardown. On the failure path the executor may still be waiting;
  // unblock it before joining.
  if (failed) {
    stop_.store(true, std::memory_order_release);
    queue_cv_.notify_all();
  }
  std::vector<std::shared_ptr<Connection>> all;
  all.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) all.push_back(conn);
  for (const auto& conn : all) CloseConn(conn);
  if (executor_.joinable()) executor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  return failed ? 1 : 0;
}

void Server::AcceptConnections() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_activity_ns = MonotonicNs();
    conns_.emplace(fd, conn);
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  const size_t limit = std::min(options_.max_request_bytes, kMaxLineBytes);
  char buf[65536];
  for (;;) {
    const fault::Action fa = SPANNERS_FAULT("server.read");
    ssize_t n;
    if (fa.fail) {
      errno = fa.err;
      n = -1;
    } else {
      n = ::read(conn->fd, buf, std::min(sizeof(buf), fa.clamp));
    }
    if (n > 0) {
      conn->last_activity_ns = MonotonicNs();
      conn->in_buf.append(buf, size_t(n));
      // Stop draining once over the cap so a client streaming a
      // newline-free request can't grow in_buf unboundedly within one
      // call; poll() is level-triggered, so any bytes left in the kernel
      // buffer re-arm the fd if the connection survives the check below.
      if (conn->in_buf.size() > limit) break;
      continue;
    }
    if (n == 0) {
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  size_t start = 0;
  for (;;) {
    const size_t nl = conn->in_buf.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string_view line(conn->in_buf.data() + start, nl - start);
    HandleLine(conn, line);
    start = nl + 1;
    if (conn->fd < 0) return;  // closed while handling
  }
  if (start > 0) conn->in_buf.erase(0, start);
  if (conn->in_buf.size() > limit) {
    SendNow(conn, ErrorResponse(
                      0, Status::InvalidArgument(
                             "request line exceeds " + std::to_string(limit) +
                             " bytes")));
    CloseConn(conn);
  }
}

void Server::HandleLine(const std::shared_ptr<Connection>& conn,
                        std::string_view line) {
  if (line.empty()) return;
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    SendNow(conn, ErrorResponse(0, parsed.status()));
    return;
  }
  const JsonValue req = std::move(parsed).value();
  if (!req.is_object()) {
    SendNow(conn, ErrorResponse(
                      0, Status::InvalidArgument(
                             "request must be a JSON object")));
    return;
  }
  const int64_t id = req.IntOr("id", 0);
  const std::string op = req.StringOr("op", "");

  if (op == "ping") {
    const int64_t sleep_ms = req.IntOr("sleep_ms", 0);
    if (sleep_ms > 0) {
      WorkItem item;
      item.conn = conn;
      item.id = id;
      item.op = WorkOp::kSleepPing;
      item.sleep_ms = uint64_t(sleep_ms);
      const Status s = AdmitWork(conn, std::move(item));
      if (!s.ok()) SendNow(conn, ErrorResponse(id, s));
    } else {
      SendNow(conn, OkPrefix(id) + ",\"op\":\"ping\"}");
    }
    return;
  }
  if (op == "register") {
    HandleRegister(conn, id, req);
    return;
  }
  if (op == "unregister") {
    HandleUnregister(conn, id, req);
    return;
  }
  if (op == "stats") {
    HandleStats(conn, id);
    return;
  }
  if (op == "drain") {
    BeginDrain();
    SendNow(conn, OkPrefix(id) + ",\"draining\":true}");
    return;
  }
  if (op == "extract" || op == "extract_batch") {
    WorkItem item;
    item.conn = conn;
    item.id = id;
    const std::string fmt = req.StringOr("format", "tsv");
    if (!engine::ParseOutputFormat(fmt, &item.format)) {
      SendNow(conn, ErrorResponse(
                        id, Status::InvalidArgument("unknown format: " + fmt)));
      return;
    }
    item.header = req.BoolOr("header", false);
    if (op == "extract") {
      item.op = WorkOp::kExtract;
      const JsonValue* doc = req.Find("doc");
      if (doc == nullptr || !doc->is_string()) {
        SendNow(conn, ErrorResponse(id, Status::InvalidArgument(
                                            "extract requires a string doc")));
        return;
      }
      const int64_t doc_index = req.IntOr("doc_index", 0);
      if (doc_index < 0) {
        SendNow(conn, ErrorResponse(id, Status::InvalidArgument(
                                            "doc_index must be non-negative")));
        return;
      }
      item.doc = doc->AsString();
      item.doc_index = size_t(doc_index);
    } else {
      item.op = WorkOp::kExtractBatch;
    }
    if (item.op == WorkOp::kExtractBatch && req.BoolOr("all", false)) {
      // The cache's residents now, key-sorted. Building the fleet costs
      // microseconds against the milliseconds of the batch it then scans.
      item.fleet = std::make_shared<const engine::MultiQueryExtractor>(
          engine::MultiQueryExtractor::FromCache(cache_));
    } else {
      item.fleet = SessionFleet(conn);
      if (item.fleet == nullptr) {
        SendNow(conn,
                ErrorResponse(id, Status::InvalidArgument(
                                      "no plans registered on this session")));
        return;
      }
    }
    const Status s = AdmitWork(conn, std::move(item));
    if (!s.ok()) SendNow(conn, ErrorResponse(id, s));
    return;
  }
  SendNow(conn,
          ErrorResponse(id, Status::InvalidArgument("unknown op: " + op)));
}

void Server::HandleRegister(const std::shared_ptr<Connection>& conn,
                            int64_t id, const JsonValue& req) {
  if (draining()) {
    n_rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    SendNow(conn, ErrorResponse(id, Status::Unavailable(
                                        "server is draining",
                                        options_.retry_after_ms)));
    return;
  }
  const JsonValue* pattern = req.Find("pattern");
  if (pattern == nullptr || !pattern->is_string()) {
    SendNow(conn, ErrorResponse(id, Status::InvalidArgument(
                                        "register requires a string pattern")));
    return;
  }
  Result<std::shared_ptr<const engine::ExtractionPlan>> plan =
      cache_.GetOrCompile(pattern->AsString());
  if (!plan.ok()) {
    SendNow(conn, ErrorResponse(id, plan.status()));
    return;
  }
  Connection::Registration reg;
  reg.handle = conn->next_handle++;
  reg.pattern = pattern->AsString();
  reg.plan = std::move(plan).value();
  std::string resp = OkPrefix(id) +
                     ",\"handle\":" + std::to_string(reg.handle) + ",\"plan\":";
  AppendJsonString(&resp, reg.plan->info().ToString());
  resp += "}";
  conn->regs.push_back(std::move(reg));
  conn->fleet.reset();
  SendNow(conn, std::move(resp));
}

void Server::HandleUnregister(const std::shared_ptr<Connection>& conn,
                              int64_t id, const JsonValue& req) {
  if (draining()) {
    n_rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    SendNow(conn, ErrorResponse(id, Status::Unavailable(
                                        "server is draining",
                                        options_.retry_after_ms)));
    return;
  }
  const int64_t handle = req.IntOr("handle", -1);
  for (size_t i = 0; i < conn->regs.size(); ++i) {
    if (conn->regs[i].handle != handle) continue;
    conn->regs.erase(conn->regs.begin() + long(i));
    conn->fleet.reset();
    SendNow(conn, OkPrefix(id) + ",\"handle\":" + std::to_string(handle) + "}");
    return;
  }
  SendNow(conn, ErrorResponse(id, Status::InvalidArgument(
                                      "unknown handle: " +
                                      std::to_string(handle))));
}

std::shared_ptr<const engine::MultiQueryExtractor> Server::SessionFleet(
    const std::shared_ptr<Connection>& conn) {
  if (conn->regs.empty()) return nullptr;
  if (conn->fleet == nullptr) {
    std::vector<std::shared_ptr<const engine::ExtractionPlan>> plans;
    plans.reserve(conn->regs.size());
    for (const Connection::Registration& reg : conn->regs)
      plans.push_back(reg.plan);
    conn->fleet =
        std::make_shared<const engine::MultiQueryExtractor>(std::move(plans));
  }
  return conn->fleet;
}

void Server::MarkDegraded(const std::string& reason) {
  std::lock_guard<std::mutex> lk(degraded_mu_);
  if (degraded_reason_.find(reason) == std::string::npos) {
    if (!degraded_reason_.empty()) degraded_reason_ += "; ";
    degraded_reason_ += reason;
  }
  degraded_.store(true, std::memory_order_release);
}

void Server::HandleStats(const std::shared_ptr<Connection>& conn,
                         int64_t id) {
  engine::EngineReport report;
  // Per-plan lines are the session fleet's record of what it offered each
  // plan, as spanex reports a fleet offline; a plan's own record counts
  // only what it is offered when run alone, so none of the fleet's work.
  // Per-tier totals across sessions are the tier.* histogram counts.
  const std::shared_ptr<const engine::MultiQueryExtractor> fleet =
      SessionFleet(conn);
  if (fleet != nullptr) report.AddFleet(*fleet);
  report.have_cache = true;
  report.cache = cache_.stats();
  report.documents = corpus_docs();
  report.threads = batch_.num_threads();
  {
    std::lock_guard<std::mutex> lk(indexed_stats_mu_);
    if (have_indexed_stats_) {
      report.have_index = true;
      if (index_.has_value()) report.index_info = index_->ToString();
      report.index_stats = last_indexed_stats_;
    }
  }
  report.wall_ns = MonotonicNs() - start_ns_;
  if (obs::Enabled()) {
    report.have_metrics = true;
    report.metrics = obs::MetricsRegistry::Global().Snapshot();
  }
  report.have_server = true;
  report.server = StatsSnapshot();
  std::string resp = OkPrefix(id) + ",\"report\":" + report.ToJson() +
                     ",\"text\":";
  AppendJsonString(&resp, report.ToText("spanexd: "));
  resp += "}";
  SendNow(conn, std::move(resp));
}

Status Server::AdmitWork(const std::shared_ptr<Connection>& conn,
                         WorkItem item) {
  if (draining()) {
    n_rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("server is draining", options_.retry_after_ms);
  }
  if (conn->inflight.load(std::memory_order_relaxed) >=
      options_.max_inflight_per_client) {
    n_rejected_inflight_cap_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "client in-flight cap reached (" +
            std::to_string(options_.max_inflight_per_client) + ")",
        options_.retry_after_ms);
  }
  // Arm the request's token before it is shared (the token's contract):
  // its deadline is the request's one deadline, the memory cap turns a
  // pathological request into ResourceExhausted instead of unbounded
  // allocation, and CloseConn's Cancel() aborts the work on disconnect.
  item.cancel = std::make_shared<CancelToken>();
  if (options_.request_timeout_ms > 0)
    item.cancel->ArmDeadline(
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.request_timeout_ms));
  if (options_.request_memory_cap > 0)
    item.cancel->ArmMemoryBudget(options_.request_memory_cap);
  // An extract may run inline: once per connection per poll round, and
  // only while the client keeps reading what it was sent.
  bool run_inline = item.op == WorkOp::kExtract &&
                    conn->inline_round != poll_round_;
  if (run_inline) {
    std::lock_guard<std::mutex> lk(conn->mu);
    run_inline = conn->out_buf.size() < options_.output_high_watermark;
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (queue_.size() >= options_.queue_capacity) {
      n_rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "admission queue full (" + std::to_string(options_.queue_capacity) +
              ")",
          options_.retry_after_ms);
    }
    item.enqueue_ns = MonotonicNs();
    // The executor is idle exactly when it has cleared its in-flight mark
    // and the queue is empty. This thread is the queue's only producer,
    // so it stays idle until RunInline hands the item back; claiming the
    // mark here makes this thread batch_'s one user meanwhile.
    run_inline = run_inline && queue_.empty() && inflight_conn_ == nullptr;
    if (run_inline) {
      inflight_conn_ = conn;
      inflight_cancel_ = item.cancel;
      inflight_enqueue_ns_ = item.enqueue_ns;
      queue_depth_->Record(0);
    } else {
      EnqueueLocked(std::move(item));
    }
  }
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  if (run_inline) {
    conn->inline_round = poll_round_;
    RunInline(conn, std::move(item));
  } else {
    queue_cv_.notify_one();
  }
  return Status::OK();
}

void Server::EnqueueLocked(WorkItem item) {
  item.conn->inflight.fetch_add(1, std::memory_order_relaxed);
  queue_depth_->Record(queue_.size() + 1);
  queue_.push_back(std::move(item));
}

void Server::RunInline(const std::shared_ptr<Connection>& conn,
                       WorkItem item) {
  CancelToken fuse;
  fuse.ArmDeadline(std::chrono::steady_clock::now() + kInlineFuse);
  if (options_.request_memory_cap > 0)
    fuse.ArmMemoryBudget(options_.request_memory_cap);
  // Rows collect in the connection's buffer, unflushed, so the answer
  // leaves in as few sends as the kernel allows.
  RowChunks rows(item.id, *item.fleet, item.format, nullptr,
                 [&](std::string line) { return Buffer(conn, line); });
  uint64_t mappings = 0;
  const bool done = ExtractOne(item, &fuse, &rows, &mappings);
  if (done) {
    if (fuse.peak_arena_bytes() > 0)
      request_peak_arena_bytes_->Record(fuse.peak_arena_bytes());
    if (rows.Finish())
      Buffer(conn, DoneLine(item.id, mappings, mappings > 0 ? 1 : 0));
    queue_wait_ns_->Record(0);
    request_ns_->Record(MonotonicNs() - item.enqueue_ns);
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    inflight_conn_.reset();
    inflight_cancel_.reset();
    inflight_enqueue_ns_ = 0;
    // A tripped fuse rendered nothing: the executor reruns the untouched
    // item under the request's own token.
    if (!done) EnqueueLocked(std::move(item));
  }
  if (done) {
    FlushConn(conn);
  } else {
    queue_cv_.notify_one();
  }
}

bool Server::Buffer(const std::shared_ptr<Connection>& conn,
                    std::string_view line) {
  std::lock_guard<std::mutex> lk(conn->mu);
  if (conn->closed) return false;
  conn->out_buf += line;
  conn->out_buf += '\n';
  return true;
}

void Server::SendNow(const std::shared_ptr<Connection>& conn,
                     std::string line) {
  if (Buffer(conn, line)) FlushConn(conn);
}

bool Server::FlushConn(const std::shared_ptr<Connection>& conn) {
  std::unique_lock<std::mutex> lk(conn->mu);
  if (conn->closed || conn->fd < 0) return false;
  while (!conn->out_buf.empty()) {
    const fault::Action fa = SPANNERS_FAULT("server.write");
    ssize_t n;
    if (fa.fail) {
      errno = fa.err;
      n = -1;
    } else {
      n = ::send(conn->fd, conn->out_buf.data(),
                 std::min(conn->out_buf.size(), fa.clamp), MSG_NOSIGNAL);
    }
    if (n > 0) {
      conn->last_activity_ns = MonotonicNs();
      conn->out_buf.erase(0, size_t(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    lk.unlock();
    CloseConn(conn);
    return false;
  }
  if (conn->out_buf.size() < options_.output_high_watermark)
    conn->out_cv.notify_all();
  return true;
}

void Server::ReapIdleConns(uint64_t now_ns) {
  if (options_.idle_timeout_ms == 0 || conns_.empty()) return;
  const uint64_t idle_ns = uint64_t(options_.idle_timeout_ms) * 1'000'000;
  std::vector<std::shared_ptr<Connection>> victims;
  for (auto& [fd, conn] : conns_) {
    // Only a truly quiescent connection is reapable: nothing admitted,
    // nothing buffered for it, and no traffic for the idle window. A slow
    // reader mid-response keeps out_buf non-empty; a trickling sender
    // refreshes last_activity_ns on every byte.
    if (conn->inflight.load(std::memory_order_acquire) > 0) continue;
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      if (!conn->out_buf.empty()) continue;
    }
    if (now_ns - conn->last_activity_ns < idle_ns) continue;
    victims.push_back(conn);
  }
  for (const auto& conn : victims) {
    n_reaped_idle_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
  }
}

void Server::CloseConn(const std::shared_ptr<Connection>& conn) {
  int fd;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    fd = conn->fd;
    conn->fd = -1;
    conn->out_buf.clear();
    conn->out_cv.notify_all();
  }
  // A dead client's work is pointless: trip every queued token it owns
  // (the executor also drops dead-conn items at dequeue) and the token of
  // its in-flight item, which the evaluation observes at its next poll —
  // cancellation reaches RUNNING work, not just queued work.
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (WorkItem& w : queue_)
      if (w.conn == conn && w.cancel != nullptr) w.cancel->Cancel();
    if (inflight_conn_ == conn && inflight_cancel_ != nullptr)
      inflight_cancel_->Cancel();
  }
  if (fd >= 0) {
    ::close(fd);
    conns_.erase(fd);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::ExecutorLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_acquire) ||
               draining_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      if (queue_.empty()) {
        if (draining_.load(std::memory_order_acquire)) break;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      // Publish the in-flight item while still under queue_mu_ so
      // CloseConn can never miss it: an item is always either in queue_
      // or registered here.
      inflight_conn_ = item.conn;
      inflight_cancel_ = item.cancel;
      inflight_enqueue_ns_ = item.enqueue_ns;
    }
    queue_wait_ns_->Record(MonotonicNs() - item.enqueue_ns);
    bool conn_dead;
    {
      std::lock_guard<std::mutex> lk(item.conn->mu);
      conn_dead = item.conn->closed;
    }
    if (conn_dead) {
      // The client disconnected while this item sat in the queue: drop it
      // at dequeue — there is nobody to answer — instead of executing.
      n_cancelled_disconnect_.fetch_add(1, std::memory_order_relaxed);
    } else if (item.cancel->Poll(0)) {
      // The token tripped while queued (its deadline passed): answer with
      // the error instead of doing work the client has given up on.
      FinishRequest(item);
    } else {
      Execute(item);
    }
    request_ns_->Record(MonotonicNs() - item.enqueue_ns);
    item.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      inflight_conn_.reset();
      inflight_cancel_.reset();
      inflight_enqueue_ns_ = 0;
    }
  }
  executor_done_.store(true, std::memory_order_release);
  WakeIo();
}

void Server::Execute(const WorkItem& item) {
  switch (item.op) {
    case WorkOp::kSleepPing:
      // Short slices that poll the token, so a deadline, a disconnect or a
      // drain force-close ends the sleep. Counting slept time (never
      // forming now + sleep_ms) keeps a huge sleep_ms from overflowing.
      for (uint64_t slept = 0;
           slept < item.sleep_ms && !item.cancel->Poll(0);
           slept += kSleepSliceMs)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(kSleepSliceMs, item.sleep_ms - slept)));
      if (FinishRequest(item)) return;
      EmitLine(item.conn, OkPrefix(item.id) + ",\"op\":\"ping\"}");
      return;
    case WorkOp::kExtract:
      ExecuteExtract(item);
      return;
    case WorkOp::kExtractBatch:
      ExecuteExtractBatch(item);
      return;
  }
}

bool Server::FinishRequest(const WorkItem& item) {
  const CancelToken& tok = *item.cancel;
  if (tok.peak_arena_bytes() > 0)
    request_peak_arena_bytes_->Record(tok.peak_arena_bytes());
  if (!tok.tripped()) return false;
  switch (tok.reason()) {
    case CancelToken::Reason::kCancelled:
      n_cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CancelToken::Reason::kDeadline:
      n_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CancelToken::Reason::kResourceExhausted:
      n_resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CancelToken::Reason::kNone:
      break;
  }
  // On a disconnect-cancel the connection is closed and EmitLine drops
  // the line; for deadline/memory trips the client gets the error.
  EmitLine(item.conn, ErrorResponse(item.id, tok.ToStatus()));
  return true;
}

bool Server::ExtractOne(const WorkItem& item, CancelToken* token,
                        RowChunks* rows, uint64_t* mappings) {
  engine::Corpus one;
  one.Add(Document(item.doc));
  batch_.set_cancel(token);
  const engine::MultiBatchResult result = batch_.ExtractMulti(*item.fleet, one);
  batch_.set_cancel(nullptr);
  // A tripped token makes `result` partial garbage.
  if (token->tripped()) return false;
  if (item.header) rows->AddHeader();
  rows->AddDocument(item.doc_index, one[0],
                    [&](size_t p) -> const std::vector<Mapping>& {
                      return result.per_plan[p].per_doc[0];
                    });
  *mappings = result.total_mappings;
  return true;
}

void Server::FinishRows(const WorkItem& item, RowChunks* rows,
                        uint64_t mappings, size_t matched_docs) {
  if (FinishRequest(item) || !rows->Finish()) return;
  EmitLine(item.conn, DoneLine(item.id, mappings, matched_docs));
}

void Server::ExecuteExtract(const WorkItem& item) {
  RowChunks rows(item.id, *item.fleet, item.format, item.cancel.get(),
                 [&](std::string line) {
                   return EmitLine(item.conn, std::move(line));
                 });
  uint64_t mappings = 0;
  ExtractOne(item, item.cancel.get(), &rows, &mappings);
  FinishRows(item, &rows, mappings, mappings > 0 ? 1 : 0);
}

void Server::ExecuteExtractBatch(const WorkItem& item) {
  const engine::MultiQueryExtractor& fleet = *item.fleet;
  // The token is polled at chunk boundaries too (not per row): a slow
  // client that blocks the watermark, or a huge result set, can run a
  // request past its deadline mid-stream. A trip stops the stream — no
  // more row chunks leave the server — and FinishRows sends the error
  // line.
  RowChunks rows(item.id, fleet, item.format, item.cancel.get(),
                 [&](std::string line) {
                   return EmitLine(item.conn, std::move(line));
                 });
  if (item.header) rows.AddHeader();

  uint64_t total_mappings = 0;
  size_t matched_docs = 0;
  batch_.set_cancel(item.cancel.get());
  if (store_.has_value()) {
    engine::IndexedStats index_stats;
    const storage::NgramIndex* index =
        index_.has_value() ? &*index_ : nullptr;
    // A single plan runs as a fleet of one, so the session fleet's
    // per-plan stats count every request the session makes.
    const engine::MultiBatchResult result =
        batch_.ExtractIndexedMulti(fleet, *store_, index, &index_stats);
    for (const size_t i : result.HitDocuments()) {
      if (rows.stopped()) break;
      ++matched_docs;
      rows.AddDocument(i, store_->MaterializeDoc(i),
                       [&](size_t p) -> const std::vector<Mapping>& {
                         return result.per_plan[p].per_doc[i];
                       });
    }
    total_mappings = result.total_mappings;
    {
      std::lock_guard<std::mutex> lk(indexed_stats_mu_);
      have_indexed_stats_ = true;
      last_indexed_stats_ = index_stats;
    }
  } else {
    // In-memory corpus: the bounded-window streaming path — each window's
    // shards arrive in corpus order once it is extracted, and the
    // EmitLine watermark block holds back the next window.
    const engine::BatchExtractor::StreamStats stats =
        batch_.ExtractMultiStream(
            fleet, corpus_,
            [&](size_t doc_begin, size_t doc_end,
                std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
              for (size_t i = doc_begin; i < doc_end && !rows.stopped(); ++i)
                rows.AddDocument(
                    i, corpus_[i],
                    [&](size_t p) -> const std::vector<Mapping>& {
                      return per_plan[p][i - doc_begin];
                    });
            });
    total_mappings = stats.total_mappings;
    matched_docs = stats.matched_documents;
  }
  batch_.set_cancel(nullptr);
  FinishRows(item, &rows, total_mappings, matched_docs);
}

bool Server::EmitLine(const std::shared_ptr<Connection>& conn,
                      std::string line) {
  line += '\n';
  std::unique_lock<std::mutex> lk(conn->mu);
  conn->out_cv.wait(lk, [&] {
    return conn->closed || stop_.load(std::memory_order_acquire) ||
           conn->out_buf.size() < options_.output_high_watermark;
  });
  if (conn->closed || stop_.load(std::memory_order_acquire)) return false;
  conn->out_buf += line;
  lk.unlock();
  WakeIo();
  return true;
}

engine::ServerStatsReport Server::StatsSnapshot() const {
  engine::ServerStatsReport s;
  s.uptime_ns = started_ ? MonotonicNs() - start_ns_ : 0;
  s.connections_total = n_connections_.load(std::memory_order_relaxed);
  s.connections_open = open_conns_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.admitted = n_admitted_.load(std::memory_order_relaxed);
  s.rejected_queue_full =
      n_rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_inflight_cap =
      n_rejected_inflight_cap_.load(std::memory_order_relaxed);
  s.rejected_draining = n_rejected_draining_.load(std::memory_order_relaxed);
  s.deadline_exceeded = n_deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = n_cancelled_.load(std::memory_order_relaxed);
  s.resource_exhausted =
      n_resource_exhausted_.load(std::memory_order_relaxed);
  s.cancelled_disconnect =
      n_cancelled_disconnect_.load(std::memory_order_relaxed);
  s.reaped_idle = n_reaped_idle_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_acquire);
  if (s.degraded) {
    std::lock_guard<std::mutex> lk(degraded_mu_);
    s.degraded_reason = degraded_reason_;
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    s.queue_depth = queue_.size();
    // The oldest unfinished item is the one executing now, else the
    // queue front (FIFO order makes the front the oldest).
    uint64_t oldest_ns = inflight_enqueue_ns_;
    if (oldest_ns == 0 && !queue_.empty())
      oldest_ns = queue_.front().enqueue_ns;
    if (oldest_ns != 0)
      s.oldest_inflight_age_ms = (MonotonicNs() - oldest_ns) / 1'000'000;
  }
  s.queue_capacity = options_.queue_capacity;
  s.draining = draining();
  return s;
}

}  // namespace server
}  // namespace spanners
