// served-extract: an in-process server::Server on an AF_UNIX socket under
// open-loop single-document `extract` traffic. One generator thread drives
// every session on a seeded Poisson arrival schedule, pipelining sends and
// reading responses as they arrive; latency runs from each request's due
// time. Documents mostly match nothing, so socket I/O, parsing, the
// admission queue, the executor hand-off and response rendering dominate.
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "engine/format.h"
#include "layers.h"
#include "obs/metrics.h"
#include "server/json.h"
#include "server/server.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spanners::engine::AppendFleetMappingRow;
using spanners::engine::OutputFormat;
using spanners::server::AppendJsonString;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: served-extract: %s\n", msg.c_str());
  std::exit(2);
}

/// One client session over a raw AF_UNIX socket: blocking line I/O for
/// set-up, non-blocking buffered I/O for the open-loop phase.
struct Conn {
  int fd = -1;
  std::string in;   // bytes read, not yet split into lines
  std::string out;  // bytes queued, not yet written

  explicit Conn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd < 0 || path.size() >= sizeof(addr.sun_path))
      Die("cannot create a socket for " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      Die("connect " + path + ": " + std::strerror(errno));
  }
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void SetNonBlocking() {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }

  /// Writes what it can of `out`; false on a hard error.
  bool Flush() {
    while (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
    return true;
  }

  /// Reads what is available into `in`; false on EOF or a hard error.
  bool Fill() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        in.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof buf) return true;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
  }

  /// Blocking request/response for set-up: sends `line`, returns the first
  /// response line.
  std::string RoundTrip(const std::string& line) {
    out += line;
    while (!out.empty())
      if (!Flush()) Die("send failed");
    for (;;) {
      const size_t nl = in.find('\n');
      if (nl != std::string::npos) {
        std::string response = in.substr(0, nl);
        in.erase(0, nl + 1);
        return response;
      }
      pollfd p{fd, POLLIN, 0};
      ::poll(&p, 1, 1000);
      if (!Fill()) Die("server closed the connection");
    }
  }
};

/// One open-loop request.
struct Request {
  uint64_t due_ns = 0, sent_ns = 0, done_ns = 0;
  size_t doc = 0;   // index into the document pool
  bool done = false, ok = false;
  std::vector<std::string> chunks;  // raw row-chunk response lines
};

/// The running server, its Serve() thread and the sessions.
struct Served {
  std::unique_ptr<spanners::server::Server> server;
  std::thread serve;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<double> register_us;
  SetupTimes times;

  ~Served() { Stop(); }
  void Stop() {
    conns.clear();
    if (server != nullptr) server->RequestDrain();
    if (serve.joinable()) serve.join();
    server.reset();
  }
};

/// {"op":"extract","id":<id>,"doc":…,"doc_index":i,"format":"tsv"} tail
/// after the id, prebuilt once per pool document.
std::string RequestTail(const Document& doc, size_t doc_index) {
  std::string tail = ",\"doc\":";
  AppendJsonString(&tail, doc.text());
  tail += ",\"doc_index\":" + std::to_string(doc_index) +
          ",\"format\":\"tsv\",\"header\":false}\n";
  return tail;
}

int64_t ResponseId(std::string_view line) {
  const size_t at = line.find("\"id\":");
  return at == std::string_view::npos
             ? -1
             : std::strtoll(line.data() + at + 5, nullptr, 10);
}

struct PhaseResult {
  std::vector<Request> requests;
  uint64_t wire_bytes = 0;
  size_t outstanding_at_end = 0;  // still unanswered when sending stopped
  double elapsed_s = 0;
};

/// Sends `n` requests at `rate` req/s on a seeded exponential schedule,
/// round-robin over the sessions, and waits for every answer.
PhaseResult Generate(Served& sv, const std::vector<std::string>& tails,
                     double rate, size_t n, uint32_t seed, SpanRecorder& rec) {
  PhaseResult phase;
  auto& reqs = phase.requests;
  reqs.resize(n);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<size_t> pick(0, tails.size() - 1);
  const uint64_t start = NowNs() + 1'000'000;
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += gap(rng);
    reqs[i].due_ns = start + static_cast<uint64_t>(t * 1e9);
    reqs[i].doc = pick(rng);
  }
  const size_t nconn = sv.conns.size();
  std::vector<pollfd> pfds(nconn);
  size_t next = 0, completed = 0;
  const uint64_t give_up = reqs.back().due_ns + 30'000'000'000ull;
  std::string line;
  while (completed < n) {
    uint64_t now = NowNs();
    if (now > give_up) break;
    while (next < n && reqs[next].due_ns <= now) {
      Conn& c = *sv.conns[next % nconn];
      line = "{\"op\":\"extract\",\"id\":";
      line += std::to_string(next);
      line += tails[reqs[next].doc];
      phase.wire_bytes += line.size();
      c.out += line;
      reqs[next].sent_ns = NowNs();
      if (rec.on()) rec.Add("bench.gen_lag", reqs[next].due_ns,
                            reqs[next].sent_ns, -1, next, false);
      c.Flush();
      ++next;
      if (next == n) {
        size_t open = 0;
        for (size_t i = 0; i < n; ++i) open += !reqs[i].done;
        phase.outstanding_at_end = open;
      }
    }
    for (size_t k = 0; k < nconn; ++k)
      pfds[k] = {sv.conns[k]->fd,
                 static_cast<short>(POLLIN |
                                    (sv.conns[k]->out.empty() ? 0 : POLLOUT)),
                 0};
    if (::poll(pfds.data(), nconn, 0) <= 0) continue;
    now = NowNs();
    for (size_t k = 0; k < nconn; ++k) {
      Conn& c = *sv.conns[k];
      if (pfds[k].revents & POLLOUT) c.Flush();
      if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!c.Fill()) Die("server closed a session");
      size_t begin = 0;
      for (size_t nl; (nl = c.in.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        const std::string_view resp(c.in.data() + begin, nl - begin);
        phase.wire_bytes += resp.size() + 1;
        const int64_t id = ResponseId(resp);
        if (id < 0 || static_cast<size_t>(id) >= n) Die("stray response");
        Request& r = reqs[id];
        if (resp.find("\"rows\":[") != std::string_view::npos &&
            resp.find("\"done\":false") != std::string_view::npos) {
          r.chunks.emplace_back(resp);
          continue;
        }
        r.done = true;
        r.ok = resp.find("\"ok\":true") != std::string_view::npos;
        r.done_ns = now;
        ++completed;
        if (rec.on()) rec.Add("bench.request", r.due_ns, now, -1, id, false);
      }
      c.in.erase(0, begin);
    }
  }
  phase.elapsed_s = (NowNs() - start) / 1e9;
  return phase;
}

/// Generate() on a thread of its own at the lowest CPU priority (nice 19),
/// sharing the CPU with the server: it polls without ever sleeping, so no
/// timer wake-up delays a send, and any server thread with work preempts
/// it at once.
PhaseResult RunOpenLoop(Served& sv, const std::vector<std::string>& tails,
                        double rate, size_t n, uint32_t seed,
                        SpanRecorder& rec) {
  PhaseResult phase;
  std::thread generator([&] {
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
    phase = Generate(sv, tails, rate, n, seed, rec);
  });
  generator.join();
  return phase;
}

std::vector<double> LatenciesUs(const PhaseResult& phase) {
  std::vector<double> us;
  for (const Request& r : phase.requests)
    if (r.done) us.push_back((r.done_ns - r.due_ns) / 1e3);
  return us;
}

}  // namespace

Result RunServedExtract(const Config& cfg, const Args& args) {
  // The server and the load generator share one CPU: with the generator
  // on a second vCPU, every request also waited for the host to schedule
  // it, and over five runs p90 spread 2.9 of its median. The spinning
  // generator keeps the CPU out of the idle state; a keeper thread would
  // take turns with it.
  const CpuSet cpus(1, /*keepers=*/false);
  cpus.Pin();
  const size_t num_patterns = cfg.Size("patterns");
  const size_t num_sessions = std::min<size_t>(
      cfg.Size("sessions"), std::max(1u, std::thread::hardware_concurrency()));
  const size_t pool_docs = cfg.Size("documents");
  const size_t needle_docs = cfg.Size("needle_documents");

  // The document pool: haystack plus a few single-tag needle documents.
  spanners::workload::FleetOptions gen;
  gen.num_patterns = num_patterns;
  gen.documents = pool_docs - needle_docs;
  gen.doc_bytes = cfg.Size("doc_bytes");
  gen.match_rate = 0;
  gen.seed = args.seed;
  spanners::workload::PatternFleet fleet_gen =
      spanners::workload::MakePatternFleet(gen);
  std::vector<Document> docs = std::move(fleet_gen.documents);
  const auto needles = SingleTagNeedles(
      num_patterns, (needle_docs + num_patterns - 1) / num_patterns,
      gen.doc_bytes, args.seed);
  for (size_t k = 0; k < needle_docs; ++k)
    docs.push_back(needles[k % num_patterns][k / num_patterns]);
  std::mt19937 rng(args.seed);
  std::shuffle(docs.begin(), docs.end(), rng);
  const std::string text_path = RunDir() + "/served.txt";
  WriteDelimited(docs, text_path);
  const std::string socket_path = RunDir() + "/s.sock";
  std::vector<std::string> tails;
  for (size_t i = 0; i < docs.size(); ++i)
    tails.push_back(RequestTail(docs[i], i));

  Corpus pool;
  std::unique_ptr<Served> sv;
  auto setup = [&] {
    auto s = std::make_unique<Served>();
    uint64_t t0 = NowNs();
    pool = LoadDelimited(text_path);
    s->times.load_ns = NowNs() - t0;
    s->times.load_bytes = pool.TotalBytes();
    spanners::server::ServerOptions options;
    options.socket_path = socket_path;
    options.num_threads = cfg.Size("server_threads");
    options.queue_capacity = cfg.Size("queue_capacity");
    options.max_inflight_per_client = cfg.Size("max_inflight_per_client");
    s->server = std::make_unique<spanners::server::Server>(options, Corpus());
    const spanners::Status started = s->server->Start();
    if (!started.ok()) Die(started.ToString());
    s->serve = std::thread([srv = s->server.get()] { srv->Serve(); });
    for (size_t k = 0; k < num_sessions; ++k) {
      s->conns.push_back(std::make_unique<Conn>(socket_path));
      for (size_t p = 0; p < num_patterns; ++p) {
        std::string line = "{\"op\":\"register\",\"id\":0,\"pattern\":";
        AppendJsonString(&line, fleet_gen.patterns[p]);
        line += "}\n";
        t0 = NowNs();
        const std::string response = s->conns[k]->RoundTrip(line);
        s->register_us.push_back((NowNs() - t0) / 1e3);
        if (response.find("\"ok\":true") == std::string::npos)
          Die("register failed: " + response);
      }
      s->conns[k]->SetNonBlocking();
    }
    // Warm-up at the nominal rate fills the session fleets' lazy DFAs.
    SpanRecorder off(false);
    RunOpenLoop(*s, tails, cfg.Num("nominal_rate"),
                cfg.Size("warmup_requests"), args.seed, off);
    sv = std::move(s);
  };
  const double setup_s = MedianSetupSeconds(
      cfg.Size("setup_repeats"), [&] { sv.reset(); }, setup);

  // In-process reference: the same fleet, compiled here.
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (const std::string& pattern : fleet_gen.patterns) {
    const uint64_t t0 = NowNs();
    plans.push_back(CompilePlan(pattern));
    sv->times.compile_ns.push_back(NowNs() - t0);
  }
  const TimedFleet fleet(plans);
  sv->times.build_ns = fleet.build_ns;
  std::vector<std::vector<std::string>> want(pool.size());
  {
    PlanScratch scratch;
    std::vector<std::vector<Mapping>> outs(plans.size());
    std::vector<std::vector<Mapping>*> ptrs;
    for (auto& o : outs) ptrs.push_back(&o);
    std::string row;
    for (size_t i = 0; i < pool.size(); ++i) {
      fleet.fleet->ExtractAllSortedInto(pool[i], &scratch, ptrs.data());
      for (size_t p = 0; p < plans.size(); ++p) {
        for (const Mapping& m : outs[p]) {
          row.clear();
          AppendFleetMappingRow(&row, OutputFormat::kTsv, p, i, m,
                                plans[p]->vars(), pool[i]);
          row.pop_back();
          want[i].push_back(row);
        }
      }
    }
  }

  auto& registry = spanners::obs::MetricsRegistry::Global();
  auto* queue_wait = registry.GetHistogram("server.queue_wait_ns", "ns");
  auto* request_ns = registry.GetHistogram("server.request_ns", "ns");
  const double nominal = cfg.Num("nominal_rate");
  const double phase_seconds = args.seconds * (args.trace ? 0.35 : 0.5);
  const size_t nominal_n = static_cast<size_t>(nominal * phase_seconds);

  Result result;
  LayerReport layers;
  auto check = [&](const PhaseResult& phase) {
    result.attempted += phase.requests.size();
    for (const Request& r : phase.requests) {
      if (!r.done || !r.ok) {
        result.Fail("request for document " + std::to_string(r.doc) +
                    (r.done ? " was refused or failed" : " got no answer"));
        continue;
      }
      std::vector<std::string> rows;
      for (const std::string& chunk : r.chunks) {
        auto parsed = spanners::server::ParseJson(chunk);
        const JsonValue* items =
            parsed.ok() ? parsed.value().Find("rows") : nullptr;
        if (items == nullptr) continue;
        for (const JsonValue& row : items->items())
          rows.push_back(row.AsString());
      }
      if (rows != want[r.doc])
        result.Fail("served rows for document " + std::to_string(r.doc) +
                    " differ from in-process AppendFleetMappingRow rows");
    }
  };

  SpanRecorder off(false);
  if (!args.trace) {
    // The generator fell behind (the phase is invalid, not slow) when over
    // a tenth of the requests left later than the limit: host stalls make
    // a few requests late in every phase, a generator that cannot keep up
    // makes many. An invalid phase is measured again.
    PhaseResult phase;
    for (size_t attempt = 1;; ++attempt) {
      phase = RunOpenLoop(*sv, tails, nominal, nominal_n, args.seed, off);
      check(phase);
      std::vector<double> lag_us;
      for (const Request& r : phase.requests)
        lag_us.push_back((r.sent_ns - r.due_ns) / 1e3);
      const double lag_p90 = Quantile(lag_us, 0.9);
      if (lag_p90 <= cfg.Num("max_gen_lag_p90_us")) break;
      std::fprintf(stderr,
                   "perfbench: generator lag p90 %.0f us: phase invalid\n",
                   lag_p90);
      if (attempt == cfg.Size("phase_attempts")) {
        result.Fail("the generator fell behind the schedule in every "
                    "attempt; the run is invalid, not slow");
        break;
      }
    }
    EndToEnd e2e;  // peak RSS as of the nominal phase

    // max_qps: binary search over the fixed ladder for the highest rate
    // at which every request is answered, p99 (from due time) stays under
    // the limit and no backlog builds: the median latency of a probe's
    // last quarter stays within twice its first quarter's plus a slack.
    // Host stalls of a VM's vCPU only ever make a probe fail, so a rate
    // counts as failed only when ladder_tries probes in a row fail.
    const std::vector<double> ladder = cfg.NumList("ladder");
    const double limit_us = cfg.Num("p99_limit_us");
    const double probe_s = cfg.Num("ladder_probe_s");
    const double slack_us = cfg.Num("backlog_slack_us");
    uint32_t probe_seed = args.seed;
    auto probe_once = [&](double rate, double* docs_per_s) {
      const size_t n = std::max<size_t>(cfg.Size("ladder_min_requests"),
                                        static_cast<size_t>(rate * probe_s));
      const PhaseResult probe =
          RunOpenLoop(*sv, tails, rate, n, ++probe_seed, off);
      size_t bad = 0;
      for (const Request& r : probe.requests) bad += !r.done || !r.ok;
      const std::vector<double> us = LatenciesUs(probe);
      const size_t q = us.size() / 4;
      const double first = Median({us.begin(), us.begin() + q});
      const double last = Median({us.end() - q, us.end()});
      const double p99 = Quantile(us, 0.99);
      const bool ok =
          bad == 0 && p99 <= limit_us && last <= 2 * first + slack_us;
      *docs_per_s = us.size() / probe.elapsed_s;
      std::fprintf(stderr,
                   "perfbench: ladder %.0f req/s: p99 %.0f us, quarter "
                   "medians %.0f -> %.0f us, %zu failed -> %s\n",
                   rate, p99, first, last, bad, ok ? "pass" : "fail");
      if (ok) check(probe);
      return ok;
    };
    auto passes = [&](double rate, double* docs_per_s) {
      for (size_t i = 0; i < cfg.Size("ladder_tries"); ++i)
        if (probe_once(rate, docs_per_s)) return true;
      return false;
    };
    size_t lo = 0, hi = ladder.size();  // ladder[lo] passes, ladder[hi] not
    double best_rate = 0, best_docs_per_s = 0;
    if (!passes(ladder[0], &best_docs_per_s)) {
      result.Fail("the lowest ladder rate already misses the p99 limit");
    } else {
      best_rate = ladder[0];
      while (hi - lo > 1) {
        const size_t mid = (lo + hi) / 2;
        double docs_per_s = 0;
        if (passes(ladder[mid], &docs_per_s)) {
          lo = mid;
          best_rate = ladder[mid];
          best_docs_per_s = docs_per_s;
        } else {
          hi = mid;
        }
      }
    }
    e2e.docs_per_s = best_docs_per_s;
    e2e.latencies_us = LatenciesUs(phase);
    e2e.max_qps = best_rate;
    e2e.setup_s = setup_s;
    e2e.bytes_per_input_byte = static_cast<double>(phase.wire_bytes) /
                               [&] {
                                 uint64_t b = 0;
                                 for (const Request& r : phase.requests)
                                   b += pool[r.doc].text().size();
                                 return static_cast<double>(b);
                               }();
    e2e.AddTo(&result);
  } else {
    const PhaseResult plain =
        RunOpenLoop(*sv, tails, nominal, nominal_n, args.seed, off);
    check(plain);
    const auto stats0 = sv->server->StatsSnapshot();
    const uint64_t qw0 = queue_wait->Sum(), rq0 = request_ns->Sum();
    SpanRecorder on(true);
    const PhaseResult traced =
        RunOpenLoop(*sv, tails, nominal, nominal_n, args.seed, on);
    const auto stats1 = sv->server->StatsSnapshot();
    const double queue_ns = static_cast<double>(queue_wait->Sum() - qw0);
    const double exec_ns =
        static_cast<double>(request_ns->Sum() - rq0) - queue_ns;
    check(traced);

    // Engine layers inside the executor, re-timed in-process on the same
    // documents, one request at a time.
    SpanRecorder replay(true);
    FleetTracer tracer(*fleet.fleet, 1);
    PlanScratch scratch;
    LayerCounts counts;
    std::string row;
    for (const Request& r : traced.requests) {
      Scope root(replay, "bench.request", r.doc);
      tracer.ExtractGroup(pool, r.doc, r.doc + 1, r.doc, &scratch, replay,
                          &counts);
      for (const auto& [k, p] : tracer.found()) {
        Scope span(replay, kFormat, r.doc);
        for (const Mapping& m : tracer.out(k, p)) {
          row.clear();
          AppendFleetMappingRow(&row, OutputFormat::kTsv, p, r.doc, m,
                                plans[p]->vars(), pool[r.doc]);
          ++counts.rows;
        }
      }
    }
    Ledger engine = ComputeLedger(replay);

    // The request ledger: latency from due time = generator lag + queue
    // wait + execution + transport, where transport is the round trip
    // less queue wait and execution; the engine's replayed layers come out
    // of execution.
    double wall_ns = 0, lag_ns = 0;
    std::vector<double> lag_us;
    for (const Request& r : traced.requests) {
      wall_ns += r.done_ns - r.due_ns;
      lag_ns += r.sent_ns - r.due_ns;
      lag_us.push_back((r.sent_ns - r.due_ns) / 1e3);
    }
    double engine_ns = 0;
    for (const auto& [layer, ns] : engine.self_ns) engine_ns += ns;
    engine_ns += engine.unattributed_ns;
    Ledger ledger;
    ledger.wall_ns = wall_ns;
    ledger.self_ns = engine.self_ns;
    ledger.self_ns["bench.gen_lag"] = lag_ns;
    ledger.self_ns["server.queue_wait"] = queue_ns;
    ledger.self_ns["server.exec"] = exec_ns - engine_ns;
    ledger.self_ns["server.transport"] = wall_ns - lag_ns - queue_ns - exec_ns;
    ledger.unattributed_ns = engine.unattributed_ns;
    layers.FromLedger(ledger, counts);
    const double n = static_cast<double>(traced.requests.size());
    layers.Set("server.share", (wall_ns - lag_ns - engine_ns) / wall_ns);
    layers.Set("server.register_us", Median(sv->register_us));
    layers.Set("server.queue_wait_us", queue_ns / n / 1e3);
    layers.Set("server.exec_us", exec_ns / n / 1e3);
    layers.Set("server.transport_us",
               (wall_ns - lag_ns - queue_ns - exec_ns) / n / 1e3);
    layers.Set("server.rejected_ratio",
               Ratio((stats1.rejected_queue_full - stats0.rejected_queue_full) +
                         (stats1.rejected_inflight_cap -
                          stats0.rejected_inflight_cap),
                     stats1.requests - stats0.requests));
    layers.Set("bench.gen_lag_p99_us", Quantile(lag_us, 0.99));
    layers.Set("bench.req_p90_us", Quantile(LatenciesUs(plain), 0.9));
    layers.Set("bench.req_p99_us", Quantile(LatenciesUs(plain), 0.99));
    layers.Set("bench.trace_overhead_ratio",
               Median(LatenciesUs(traced)) / Median(LatenciesUs(plain)));
    layers.Set("engine.thread_pool.scaling_efficiency", 1.0);
    std::vector<Corpus> sample(1);
    for (size_t i = 0; i < std::min<size_t>(cfg.Size("call_samples"),
                                            pool.size());
         ++i)
      sample[0].Add(pool[i]);
    const double call_us =
        OneDocCallUs(*fleet.fleet, sample, cfg.Size("call_samples"));
    layers.Set("engine.batch_extractor.call_us", call_us);
    layers.Set("engine.batch_extractor.overhead_ratio",
               1 - (engine_ns / n / 1e3) / call_us);
    sv->times.AddTo(&layers);
    FinishTrace(ledger, on, args, cfg, &result);
  }
  sv->Stop();
  if (args.trace) layers.AddTo(&result);
  return result;
}

}  // namespace perfbench
