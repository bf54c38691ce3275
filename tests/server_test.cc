// Tests for the spanexd server: served extract/extract_batch output must
// be byte-identical to the offline engine paths, admission backpressure
// must refuse (Unavailable + retry_after_ms) rather than queue without
// bound, and a graceful drain must finish admitted work, refuse new work,
// and return exit code 0 from Serve().
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"

namespace spanners {
namespace server {
namespace {

using engine::BatchExtractor;
using engine::BatchOptions;
using engine::Corpus;
using engine::ExtractionPlan;
using engine::MultiQueryExtractor;
using engine::OutputFormat;

Corpus TestCorpus() {
  Corpus corpus;
  corpus.Add(Document("ERR 123 alpha beta"));
  corpus.Add(Document("WARN 77 gamma"));
  corpus.Add(Document("nothing to see"));
  corpus.Add(Document("ERR 9 delta ERR 10"));
  corpus.Add(Document(""));
  corpus.Add(Document("WARN 5 epsilon ERR 42"));
  return corpus;
}

const char* kErrPattern = ".*ERR x{[0-9]+}.*";
const char* kWarnPattern = ".*WARN y{[0-9]+}.*";

/// The offline reference: exactly the loop tools/spanex.cc runs for an
/// in-memory corpus, built from the shared formatting helpers.
std::string OfflineOutput(const std::vector<std::string>& patterns,
                          const Corpus& corpus, OutputFormat format,
                          bool header) {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (const std::string& p : patterns)
    plans.push_back(std::make_shared<const ExtractionPlan>(
        ExtractionPlan::Compile(p).ValueOrDie()));
  BatchOptions options;
  options.num_threads = 2;
  BatchExtractor batch(options);
  std::string out;
  if (plans.size() == 1) {
    const ExtractionPlan& plan = *plans[0];
    const VarSet& vars = plan.vars();
    if (format == OutputFormat::kTsv && header) {
      out += engine::TsvHeader(vars);
      out += '\n';
    }
    batch.ExtractStream(plan, corpus,
                        [&](size_t doc_begin, size_t doc_end,
                            std::vector<std::vector<Mapping>>& per_doc) {
                          for (size_t i = doc_begin; i < doc_end; ++i)
                            for (const Mapping& m : per_doc[i - doc_begin])
                              engine::AppendMappingRow(&out, format, i, m,
                                                       vars, corpus[i]);
                        });
  } else {
    MultiQueryExtractor fleet(plans);
    if (format == OutputFormat::kTsv && header) {
      std::vector<const VarSet*> vars_per_plan;
      for (size_t p = 0; p < fleet.num_plans(); ++p)
        vars_per_plan.push_back(&fleet.plan(p).vars());
      out += engine::FleetTsvHeader(vars_per_plan);
    }
    batch.ExtractMultiStream(
        fleet, corpus,
        [&](size_t doc_begin, size_t doc_end,
            std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
          for (size_t i = doc_begin; i < doc_end; ++i)
            for (size_t p = 0; p < per_plan.size(); ++p)
              for (const Mapping& m : per_plan[p][i - doc_begin])
                engine::AppendFleetMappingRow(&out, format, p, i, m,
                                              fleet.plan(p).vars(),
                                              corpus[i]);
        });
  }
  return out;
}

/// A Server on its own Serve() thread. The socket lives in the test temp
/// dir; the destructor drains and joins.
class RunningServer {
 public:
  explicit RunningServer(ServerOptions options)
      : RunningServer(std::move(options), TestCorpus()) {}

  /// `source` is what a Server serves: a Corpus, or a SegmentStore plus
  /// its optional index.
  template <typename... Source>
  RunningServer(ServerOptions options, Source&&... source) {
    if (options.socket_path.empty())
      options.socket_path = ::testing::TempDir() + "spanexd_test_" +
                            std::to_string(reinterpret_cast<uintptr_t>(this)) +
                            ".sock";
    socket_path_ = options.socket_path;
    options.num_threads = 2;
    server_.emplace(std::move(options), std::forward<Source>(source)...);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { exit_code_ = server_->Serve(); });
  }

  ~RunningServer() { Shutdown(); }

  /// Idempotent: drains (if still running) and joins Serve().
  int Shutdown() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    std::remove(socket_path_.c_str());
    return exit_code_;
  }

  Server& server() { return *server_; }
  const std::string& socket_path() const { return socket_path_; }

  Client MustConnect() {
    Result<Client> c = Client::Connect(socket_path_);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

 private:
  std::optional<Server> server_;
  std::string socket_path_;
  std::thread thread_;
  int exit_code_ = -1;
};

std::string CollectRows(Client& client, OutputFormat format, bool header,
                        bool all_resident, Client::ExtractSummary* summary) {
  std::string out;
  Result<Client::ExtractSummary> result =
      client.ExtractBatch(format, header, all_resident,
                          [&](const std::string& row) {
                            out += row;
                            out += '\n';
                          });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && summary != nullptr) *summary = result.value();
  return out;
}

// A served single-plan batch must be byte-identical to the offline run,
// in both formats, with and without the header.
TEST(ServerTest, ExtractBatchSinglePlanByteIdentical) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  Result<int64_t> handle = client.Register(kErrPattern);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  const Corpus corpus = TestCorpus();
  for (OutputFormat format : {OutputFormat::kTsv, OutputFormat::kJson}) {
    for (bool header : {true, false}) {
      Client::ExtractSummary summary;
      const std::string served =
          CollectRows(client, format, header, false, &summary);
      EXPECT_EQ(served, OfflineOutput({kErrPattern}, corpus, format, header));
      EXPECT_GT(summary.mappings, 0u);
      EXPECT_GT(summary.matched_docs, 0u);
    }
  }
}

// Fleet batches (several registered plans) must match the offline
// multi-query stream: fleet header block, doc-major/plan-minor rows with
// the leading query column.
TEST(ServerTest, ExtractBatchFleetByteIdentical) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  ASSERT_TRUE(client.Register(kWarnPattern).ok());

  const Corpus corpus = TestCorpus();
  for (OutputFormat format : {OutputFormat::kTsv, OutputFormat::kJson}) {
    const std::string served = CollectRows(client, format, true, false,
                                           nullptr);
    EXPECT_EQ(served, OfflineOutput({kErrPattern, kWarnPattern}, corpus,
                                    format, true));
  }
}

// extract_batch {"all":true} serves the cache-wide resident fleet — built
// over PlanCache::ResidentPlans (key order), not the session's
// registration order.
TEST(ServerTest, ExtractBatchAllResidentUsesCacheFleet) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kWarnPattern).ok());
  ASSERT_TRUE(client.Register(kErrPattern).ok());

  const std::string served =
      CollectRows(client, OutputFormat::kTsv, true, true, nullptr);

  const Corpus corpus = TestCorpus();
  MultiQueryExtractor fleet =
      MultiQueryExtractor::FromCache(rs.server().plan_cache());
  BatchOptions options;
  options.num_threads = 2;
  BatchExtractor batch(options);
  std::string expected;
  std::vector<const VarSet*> vars_per_plan;
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    vars_per_plan.push_back(&fleet.plan(p).vars());
  expected += engine::FleetTsvHeader(vars_per_plan);
  batch.ExtractMultiStream(
      fleet, corpus,
      [&](size_t doc_begin, size_t doc_end,
          std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
        for (size_t i = doc_begin; i < doc_end; ++i)
          for (size_t p = 0; p < per_plan.size(); ++p)
            for (const Mapping& m : per_plan[p][i - doc_begin])
              engine::AppendFleetMappingRow(&expected, OutputFormat::kTsv, p,
                                            i, m, fleet.plan(p).vars(),
                                            corpus[i]);
      });
  EXPECT_EQ(served, expected);
}

// An "all" batch's fleet is the cache's residents when the request
// arrives: a pattern another connection registered in between shows up
// in the next "all" batch's rows.
TEST(ServerTest, ExtractBatchAllSeesPatternsOtherSessionsRegistered) {
  RunningServer rs(ServerOptions{});
  Client first = rs.MustConnect();
  Client second = rs.MustConnect();
  ASSERT_TRUE(first.Register(kErrPattern).ok());
  const Corpus corpus = TestCorpus();
  EXPECT_EQ(CollectRows(first, OutputFormat::kTsv, true, true, nullptr),
            OfflineOutput({kErrPattern}, corpus, OutputFormat::kTsv, true));

  ASSERT_TRUE(second.Register(kWarnPattern).ok());
  // Key order: ".*ERR …" sorts before ".*WARN …".
  for (OutputFormat format : {OutputFormat::kTsv, OutputFormat::kJson}) {
    EXPECT_EQ(CollectRows(first, format, true, true, nullptr),
              OfflineOutput({kErrPattern, kWarnPattern}, corpus, format,
                            true));
  }
}

// A pattern nested past the parser's bound answers InvalidArgument rather
// than exhausting the I/O thread's stack, and the same connection still
// answers ping, register and extract.
TEST(ServerTest, DeepRegisterIsRefusedAndTheConnectionServesOn) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  const std::string deep[] = {
      std::string(100000, '(') + "a" + std::string(100000, ')'),
      "a" + std::string(100000, '*')};
  for (const std::string& pattern : deep) {
    Result<int64_t> handle = client.Register(pattern);
    ASSERT_FALSE(handle.ok());
    EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument)
        << handle.status().ToString();
    EXPECT_TRUE(client.Ping().ok());
  }

  ASSERT_TRUE(client.Register(kErrPattern).ok());
  const std::string doc = "ERR 123 alpha beta";
  std::string served;
  Result<Client::ExtractSummary> summary = client.Extract(
      doc, /*doc_index=*/0, OutputFormat::kTsv, /*header=*/true,
      [&](const std::string& row) {
        served += row;
        served += '\n';
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  Corpus one;
  one.Add(Document(doc));
  EXPECT_EQ(served, OfflineOutput({kErrPattern}, one, OutputFormat::kTsv,
                                  true));
}

// Single-document extract against the session fleet: same rows the batch
// path would emit for that document index.
TEST(ServerTest, ExtractOneDocumentByteIdentical) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kErrPattern).ok());

  const std::string doc = "ERR 123 alpha beta";
  std::string served;
  Result<Client::ExtractSummary> summary = client.Extract(
      doc, /*doc_index=*/0, OutputFormat::kTsv, /*header=*/true,
      [&](const std::string& row) {
        served += row;
        served += '\n';
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  Corpus one;
  one.Add(Document(doc));
  EXPECT_EQ(served, OfflineOutput({kErrPattern}, one, OutputFormat::kTsv,
                                  true));
  EXPECT_GE(summary->mappings, 1u);
}

// Unregistering every plan empties the session: extraction then refuses
// with InvalidArgument instead of serving an empty fleet.
TEST(ServerTest, UnregisterEmptiesSession) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  Result<int64_t> handle = client.Register(kErrPattern);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(client.Unregister(handle.value()).ok());

  Result<Client::ExtractSummary> refused =
      client.ExtractBatch(OutputFormat::kTsv, true, false, nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

// Backpressure at the admission queue: with capacity 1 and a held
// executor, a pipelined burst must see at least one Unavailable carrying
// the retry_after_ms hint — and everything admitted must still succeed.
TEST(ServerTest, QueueFullRejectsWithRetryAfter) {
  ServerOptions options;
  options.queue_capacity = 1;
  options.max_inflight_per_client = 1024;
  options.retry_after_ms = 7;
  RunningServer rs(options);
  Client client = rs.MustConnect();

  // Fire a burst of sleeping pings without reading a single response: the
  // first occupies the executor, one sits in the queue, the rest must be
  // refused at admission.
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    const int64_t id = client.NextId();
    ASSERT_TRUE(client
                    .SendLine("{\"op\":\"ping\",\"id\":" + std::to_string(id) +
                              ",\"sleep_ms\":50}")
                    .ok());
  }
  int ok_count = 0;
  int unavailable = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<JsonValue> line = client.ReadResponseLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    const Status status = StatusFromResponse(*line);
    if (status.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
      EXPECT_EQ(status.retry_after_ms(), 7u);
      ++unavailable;
    }
  }
  EXPECT_GE(ok_count, 1);
  EXPECT_GE(unavailable, 1);
  EXPECT_EQ(ok_count + unavailable, kBurst);
  EXPECT_GE(rs.server().StatsSnapshot().rejected_queue_full, 1u);
}

// The per-client in-flight cap refuses independently of queue capacity.
TEST(ServerTest, InflightCapRejects) {
  ServerOptions options;
  options.queue_capacity = 1024;
  options.max_inflight_per_client = 1;
  RunningServer rs(options);
  Client client = rs.MustConnect();

  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    const int64_t id = client.NextId();
    ASSERT_TRUE(client
                    .SendLine("{\"op\":\"ping\",\"id\":" + std::to_string(id) +
                              ",\"sleep_ms\":30}")
                    .ok());
  }
  int ok_count = 0;
  int unavailable = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<JsonValue> line = client.ReadResponseLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    const Status status = StatusFromResponse(*line);
    status.ok() ? ++ok_count : ++unavailable;
  }
  EXPECT_GE(ok_count, 1);
  EXPECT_GE(unavailable, 1);
  EXPECT_GE(rs.server().StatsSnapshot().rejected_inflight_cap, 1u);
}

// Graceful drain: work admitted before the drain completes and streams
// its full response; work after is refused Unavailable; Serve() exits 0.
TEST(ServerTest, DrainFinishesAdmittedWorkAndRefusesNew) {
  RunningServer rs(ServerOptions{});
  Client worker = rs.MustConnect();
  ASSERT_TRUE(worker.Register(kErrPattern).ok());

  // Pipeline: a slow ping (occupies the executor), then an extract_batch
  // (sits admitted in the queue), then the drain — all before reading.
  ASSERT_TRUE(worker
                  .SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(worker.NextId()) +
                            ",\"sleep_ms\":100}")
                  .ok());
  const int64_t batch_id = worker.NextId();
  ASSERT_TRUE(worker
                  .SendLine("{\"op\":\"extract_batch\",\"id\":" +
                            std::to_string(batch_id) +
                            ",\"format\":\"tsv\",\"header\":true}")
                  .ok());
  ASSERT_TRUE(worker
                  .SendLine("{\"op\":\"drain\",\"id\":" +
                            std::to_string(worker.NextId()) + "}")
                  .ok());

  // All three must complete: ping ok, drain ok, and the admitted batch
  // must deliver its rows byte-identically despite the drain racing it.
  std::string served;
  bool saw_ping = false, saw_drain = false, saw_batch_done = false;
  while (!(saw_ping && saw_drain && saw_batch_done)) {
    Result<JsonValue> line = worker.ReadResponseLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    const int64_t id = line->IntOr("id", -1);
    const JsonValue* rows = line->Find("rows");
    if (rows != nullptr && rows->is_array() && !line->BoolOr("done", false)) {
      for (const JsonValue& r : rows->items()) {
        served += r.AsString();
        served += '\n';
      }
      continue;
    }
    ASSERT_TRUE(StatusFromResponse(*line).ok())
        << StatusFromResponse(*line).ToString();
    if (id == batch_id)
      saw_batch_done = true;
    else if (line->BoolOr("draining", false))
      saw_drain = true;
    else
      saw_ping = true;
  }
  EXPECT_EQ(served, OfflineOutput({kErrPattern}, TestCorpus(),
                                  OutputFormat::kTsv, true));

  // The drained server refuses a fresh connection (listener closed) or a
  // fresh request with Unavailable, and Serve() returns 0.
  EXPECT_EQ(rs.Shutdown(), 0);
  Result<Client> late = Client::Connect(rs.socket_path());
  EXPECT_FALSE(late.ok());
}

// New work arriving DURING a drain is refused with Unavailable rather
// than silently dropped or deadlocked.
TEST(ServerTest, RequestDuringDrainIsUnavailable) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  // Hold the executor, then drain, then try to admit. The sleep must
  // outlast the handful of syscalls between the admitted-check below and
  // the late send — if the executor wakes first, the server finishes the
  // drain and closes the connection before the late ping arrives.
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(client.NextId()) +
                            ",\"sleep_ms\":300}")
                  .ok());
  // Wait until the slow ping is ADMITTED (it now holds the executor, so
  // the drain cannot complete under it), then flip the drain flag.
  while (rs.server().StatsSnapshot().admitted < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rs.server().RequestDrain();
  const int64_t late_id = client.NextId();
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(late_id) + ",\"sleep_ms\":10}")
                  .ok());
  int unavailable = 0;
  for (int i = 0; i < 2; ++i) {
    Result<JsonValue> line = client.ReadResponseLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    const Status status = StatusFromResponse(*line);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(line->IntOr("id", -1), late_id);
      ++unavailable;
    }
  }
  EXPECT_EQ(unavailable, 1);
  EXPECT_EQ(rs.Shutdown(), 0);
}

// A drain that outlasts drain_flush_timeout_ms force-closes every
// connection; that cancels a sleeping ping's token, so the sleep ends and
// Serve() returns 0 on time instead of waiting out the sleep.
TEST(ServerTest, DrainForceCloseEndsSleepingPing) {
  ServerOptions options;
  options.drain_flush_timeout_ms = 200;
  RunningServer rs(options);
  Client client = rs.MustConnect();
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(client.NextId()) +
                            ",\"sleep_ms\":60000}")
                  .ok());
  // Wait until the ping is in flight: admitted and off the queue.
  for (;;) {
    const engine::ServerStatsReport s = rs.server().StatsSnapshot();
    if (s.admitted >= 1 && s.queue_depth == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(rs.Shutdown(), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(options.drain_flush_timeout_ms + 1000));
  EXPECT_EQ(rs.server().StatsSnapshot().cancelled, 1u);
}

// The stats op reports the engine view (documents, resident plans) plus
// the always-on server section with instance-correct counters.
TEST(ServerTest, StatsReportsServerSection) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  ASSERT_TRUE(client.Ping().ok());
  CollectRows(client, OutputFormat::kTsv, true, false, nullptr);

  Result<JsonValue> response = client.Stats();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const JsonValue* report = response->Find("report");
  ASSERT_NE(report, nullptr);
  const JsonValue* corpus_section = report->Find("corpus");
  ASSERT_NE(corpus_section, nullptr);
  EXPECT_EQ(corpus_section->IntOr("documents", -1),
            int64_t(TestCorpus().size()));
  const JsonValue* server_section = report->Find("server");
  ASSERT_NE(server_section, nullptr);
  EXPECT_GE(server_section->IntOr("requests", 0), 3);
  EXPECT_GE(server_section->IntOr("admitted", 0), 1);
  EXPECT_EQ(server_section->IntOr("connections_open", -1), 1);
  EXPECT_FALSE(response->StringOr("text", "").empty());

  // The plan's line counts every document the session's fleet was
  // offered, not only those that survived its shared pass.
  const JsonValue* plans = report->Find("plans");
  ASSERT_NE(plans, nullptr);
  ASSERT_EQ(plans->items().size(), 1u);
  const JsonValue* plan_stats = plans->items()[0].Find("stats");
  ASSERT_NE(plan_stats, nullptr);
  EXPECT_EQ(plan_stats->IntOr("documents", -1), int64_t(TestCorpus().size()));
  EXPECT_EQ(plan_stats->IntOr("ac_gate_skipped", -1) +
                plan_stats->IntOr("prefilter_skipped", -1) +
                plan_stats->IntOr("dfa_skipped", -1) +
                plan_stats->IntOr("evaluated", -1),
            int64_t(TestCorpus().size()));

  // The snapshot is per-instance: a second server must start from zero
  // even though the obs registry is process-global.
  RunningServer fresh(ServerOptions{});
  EXPECT_EQ(fresh.server().StatsSnapshot().requests, 0u);
}

// StringOr's result must stay valid past the declaration statement even
// when it falls back to a default materialized from a temporary — the
// server binds it once and reads it across the whole dispatch switch.
TEST(JsonTest, StringOrDefaultOutlivesCallStatement) {
  Result<JsonValue> req = ParseJson("{\"id\":1}");
  ASSERT_TRUE(req.ok());
  const std::string op = req->StringOr("op", "");
  const std::string fmt = req->StringOr("format", "tsv");
  EXPECT_EQ(op, "");
  EXPECT_EQ(fmt, "tsv");
  EXPECT_EQ("unknown op: " + op, "unknown op: ");
  Result<JsonValue> present = ParseJson("{\"op\":\"ping\"}");
  ASSERT_TRUE(present.ok());
  EXPECT_EQ(present->StringOr("op", "fallback"), "ping");
}

// Numbers outside int64 range must clamp, not hit UB in the double→int64
// cast; any client can put 1e300 in a request field.
TEST(JsonTest, HugeNumbersClampToInt64Range) {
  Result<JsonValue> v = ParseJson(
      "{\"a\":1e300,\"b\":-1e300,\"c\":99999999999999999999999,"
      "\"d\":1.5,\"e\":-9223372036854775808}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->IntOr("a", 0), INT64_MAX);
  EXPECT_EQ(v->IntOr("b", 0), INT64_MIN);
  EXPECT_EQ(v->IntOr("c", 0), INT64_MAX);
  EXPECT_EQ(v->IntOr("d", 0), 1);
  EXPECT_EQ(v->IntOr("e", 0), INT64_MIN);
}

// End-to-end: requests that omit "op" (previously a dangling-reference
// path) and requests carrying huge numbers must draw clean protocol
// errors, not UB; the connection and server must stay healthy after.
TEST(ServerTest, MalformedRequestsDrawCleanErrors) {
  RunningServer rs(ServerOptions{});
  Client client = rs.MustConnect();

  ASSERT_TRUE(client.SendLine("{\"id\":1}").ok());
  Result<JsonValue> no_op = client.ReadResponseLine();
  ASSERT_TRUE(no_op.ok()) << no_op.status().ToString();
  EXPECT_EQ(StatusFromResponse(*no_op).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\",\"id\":1e300}").ok());
  Result<JsonValue> huge_id = client.ReadResponseLine();
  ASSERT_TRUE(huge_id.ok()) << huge_id.status().ToString();
  EXPECT_TRUE(StatusFromResponse(*huge_id).ok());

  // A negative row label must not wrap around to a huge size_t.
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"extract\",\"id\":2,"
                            "\"doc\":\"ERR 1\",\"doc_index\":-1}")
                  .ok());
  Result<JsonValue> negative_index = client.ReadResponseLine();
  ASSERT_TRUE(negative_index.ok()) << negative_index.status().ToString();
  EXPECT_EQ(StatusFromResponse(*negative_index).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(client.Ping().ok());
}

// A newline-free stream past max_request_bytes must be refused with
// InvalidArgument and the connection closed — including when the
// oversized chunk arrives faster than one poll() wakeup can drain it.
TEST(ServerTest, OversizedRequestLineRefused) {
  ServerOptions options;
  options.max_request_bytes = 1 << 16;
  RunningServer rs(options);
  Client client = rs.MustConnect();

  const std::string blob(options.max_request_bytes * 4, 'x');
  // SendLine appends the newline, but the limit trips long before the
  // terminator is seen.
  (void)client.SendLine(blob);
  Result<JsonValue> refused = client.ReadResponseLine();
  if (refused.ok()) {
    EXPECT_EQ(StatusFromResponse(*refused).code(),
              StatusCode::kInvalidArgument);
  }
  // Whether or not the error line won the race with the close, the
  // server must survive and keep serving fresh connections.
  Client fresh = rs.MustConnect();
  EXPECT_TRUE(fresh.Ping().ok());
}

// ---- partial-I/O edges, deadlines, reaping, degraded mode ----------------

/// A raw AF_UNIX client for byte-level transport control the Client class
/// deliberately hides: trickled sends and 1-byte-window reads.
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool SendAll(std::string_view line) { return Send(line, 0, line.size()); }

  /// One byte per send() with a pause between — each byte is (at most)
  /// its own poll() wakeup on the server's I/O thread.
  bool SendTrickle(std::string_view line, int pause_us) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (!Send(line, i, 1)) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
    }
    return true;
  }

  /// Next response line, read through a 1-byte window when `slow`.
  Result<JsonValue> ReadLine(bool slow) {
    Result<std::string> line = ReadRawLine(slow);
    if (!line.ok()) return line.status();
    return ParseJson(*line);
  }

  /// Next response line as it crossed the wire, without its newline.
  Result<std::string> ReadRawLine(bool slow) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n;
      do {
        n = ::read(fd_, chunk, slow ? 1 : sizeof(chunk));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return Status::Internal("raw read failed");
      buf_.append(chunk, size_t(n));
    }
  }

 private:
  bool Send(std::string_view line, size_t off, size_t len) {
    while (len > 0) {
      const ssize_t n = ::send(fd_, line.data() + off, len, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += size_t(n);
      len -= size_t(n);
    }
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

/// One streamed answer as it crossed the wire.
struct RawAnswer {
  std::string rows;                    // every row, '\n'-terminated
  std::vector<size_t> row_line_bytes;  // each row-chunk line's size
  std::vector<int64_t> row_line_ids;   // each row-chunk line's id
  int64_t id = -1;                     // the final line's id
  Status status;                       // the final line's status
};

/// Reads row-chunk lines up to and including the final line, through a
/// 1-byte window when `slow`.
RawAnswer ReadAnswer(RawClient& raw, bool slow = false) {
  RawAnswer answer;
  for (;;) {
    Result<std::string> line = raw.ReadRawLine(slow);
    if (!line.ok()) {
      answer.status = line.status();
      return answer;
    }
    Result<JsonValue> parsed = ParseJson(*line);
    if (!parsed.ok()) {
      answer.status = parsed.status();
      return answer;
    }
    const JsonValue* rows = parsed->Find("rows");
    if (rows != nullptr && rows->is_array() &&
        !parsed->BoolOr("done", false)) {
      answer.row_line_bytes.push_back(line->size());
      answer.row_line_ids.push_back(parsed->IntOr("id", -1));
      for (const JsonValue& r : rows->items()) {
        answer.rows += r.AsString();
        answer.rows += '\n';
      }
      continue;
    }
    answer.id = parsed->IntOr("id", -1);
    answer.status = StatusFromResponse(*parsed);
    return answer;
  }
}

/// Drives register + extract_batch over a RawClient and returns the
/// streamed rows; `slow` reads every response byte individually.
std::string RawServedBatch(RawClient& raw, const std::string& pattern,
                           bool trickle_requests, bool slow_reads) {
  const std::string reg =
      "{\"op\":\"register\",\"id\":1,\"pattern\":\"" + pattern + "\"}\n";
  EXPECT_TRUE(trickle_requests ? raw.SendTrickle(reg, 200)
                               : raw.SendAll(reg));
  Result<JsonValue> reg_resp = raw.ReadLine(slow_reads);
  EXPECT_TRUE(reg_resp.ok() && StatusFromResponse(*reg_resp).ok());

  const std::string batch =
      "{\"op\":\"extract_batch\",\"id\":2,\"format\":\"tsv\","
      "\"header\":true}\n";
  EXPECT_TRUE(trickle_requests ? raw.SendTrickle(batch, 200)
                               : raw.SendAll(batch));
  const RawAnswer answer = ReadAnswer(raw, slow_reads);
  EXPECT_TRUE(answer.status.ok()) << answer.status.ToString();
  return answer.rows;
}

// A request delivered one byte per poll() wakeup must parse and serve
// exactly like one delivered in a single segment.
TEST(ServerPartialIoTest, TrickledRequestServesByteIdentical) {
  RunningServer rs(ServerOptions{});
  RawClient raw(rs.socket_path());
  // Escape the pattern by hand: the ERR pattern is JSON-clean.
  const std::string served = RawServedBatch(raw, ".*ERR x{[0-9]+}.*",
                                            /*trickle_requests=*/true,
                                            /*slow_reads=*/false);
  EXPECT_EQ(served, OfflineOutput({kErrPattern}, TestCorpus(),
                                  OutputFormat::kTsv, true));
}

// A reader draining the response through a 1-byte window — with the
// output high watermark shrunk so the executor repeatedly blocks on the
// slow reader — must still receive every row byte-identically.
TEST(ServerPartialIoTest, OneByteWindowSlowReaderByteIdentical) {
  // A corpus big enough that the response far exceeds the watermark.
  Corpus corpus;
  for (int i = 0; i < 300; ++i)
    corpus.Add(Document("ERR " + std::to_string(i) + " payload line " +
                        std::to_string(i * 7)));
  ServerOptions options;
  options.output_high_watermark = 512;
  RunningServer rs(options, corpus);
  RawClient raw(rs.socket_path());
  const std::string served = RawServedBatch(raw, ".*ERR x{[0-9]+}.*",
                                            /*trickle_requests=*/false,
                                            /*slow_reads=*/true);
  EXPECT_EQ(served, OfflineOutput({kErrPattern}, corpus, OutputFormat::kTsv,
                                  true));
}

// An EINTR storm (no-SA_RESTART signals peppering the whole process)
// during served batches: every interrupted syscall must be retried and
// the rows must come back byte-identical.
TEST(ServerPartialIoTest, EintrStormDuringExtractBatch) {
  struct sigaction sa, old_sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately no SA_RESTART: syscalls return EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old_sa), 0);

  RunningServer rs(ServerOptions{});
  std::atomic<bool> storming{true};
  std::thread storm([&storming] {
    while (storming.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  for (int round = 0; round < 5; ++round) {
    const std::string served =
        CollectRows(client, OutputFormat::kTsv, true, false, nullptr);
    EXPECT_EQ(served, OfflineOutput({kErrPattern}, TestCorpus(),
                                    OutputFormat::kTsv, true))
        << "round " << round;
  }

  storming.store(false, std::memory_order_relaxed);
  storm.join();
  sigaction(SIGUSR1, &old_sa, nullptr);
  EXPECT_EQ(rs.Shutdown(), 0);
}

// Per-request deadlines: a request whose token trips while queued (or
// while its sleep runs) is answered DeadlineExceeded instead of running;
// requests that fit their deadline still succeed.
TEST(ServerDeadlineTest, ExpiredRequestsAnswerDeadlineExceeded) {
  ServerOptions options;
  options.request_timeout_ms = 150;
  RunningServer rs(options);
  Client client = rs.MustConnect();

  // Three pipelined 100 ms sleeping pings against a 150 ms deadline:
  // the first fits; the second's token trips mid-sleep (dequeued
  // ~100 ms, deadline ~150 ms); the third is past its deadline by the
  // time it is dequeued or one sleep slice later.
  std::vector<int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(client.NextId());
    ASSERT_TRUE(client
                    .SendLine("{\"op\":\"ping\",\"id\":" +
                              std::to_string(ids.back()) +
                              ",\"sleep_ms\":100}")
                    .ok());
  }
  int ok_count = 0, deadline_count = 0;
  for (int i = 0; i < 3; ++i) {
    Result<JsonValue> line = client.ReadResponseLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    const Status status = StatusFromResponse(*line);
    if (status.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(status.code(), StatusCode::kDeadlineExceeded)
          << status.ToString();
      ++deadline_count;
    }
  }
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(deadline_count, 2);
  EXPECT_GE(rs.server().StatsSnapshot().deadline_exceeded, 2u);

  // A 60 s sleeping ping answers at its deadline, not after the sleep.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(client.NextId()) +
                            ",\"sleep_ms\":60000}")
                  .ok());
  Result<JsonValue> long_sleep = client.ReadResponseLine();
  ASSERT_TRUE(long_sleep.ok()) << long_sleep.status().ToString();
  EXPECT_EQ(StatusFromResponse(*long_sleep).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));

  // The connection survives an expired request: fresh work still serves.
  EXPECT_TRUE(client.Ping().ok());
}

// Idle reaping: a connect-and-stall client is closed once idle past the
// window, while a connection with work in flight is left alone.
TEST(ServerIdleReapTest, StalledConnReapedActiveConnSpared) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  RunningServer rs(options);

  Client staller = rs.MustConnect();
  ASSERT_TRUE(staller.Ping().ok());

  // A busy connection: its 400 ms sleeping ping holds in-flight work far
  // past the idle window, so the reaper must spare it.
  Client busy = rs.MustConnect();
  ASSERT_TRUE(busy.SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(busy.NextId()) +
                            ",\"sleep_ms\":400}")
                  .ok());

  // Wait out several idle windows.
  for (int i = 0; i < 100 && rs.server().StatsSnapshot().reaped_idle == 0;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(rs.server().StatsSnapshot().reaped_idle, 1u);

  // The busy connection's response still arrives intact.
  Result<JsonValue> slept = busy.ReadResponseLine();
  ASSERT_TRUE(slept.ok()) << slept.status().ToString();
  EXPECT_TRUE(StatusFromResponse(*slept).ok());

  // The stalled connection is dead: its next round trip fails transport-
  // level (Unavailable), not with a protocol error.
  Status st = staller.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
}

// Degraded mode's one trigger: a store-backed server whose posting index
// is missing serves full scans and marks itself degraded, as spanexd
// does. Rows stay byte-identical, stats flip degraded:true with the
// reason, and the server keeps serving.
TEST(ServerDegradedTest, MissingIndexServesDegradedByteIdenticalRows) {
  const std::string path = ::testing::TempDir() + "spanexd_degraded_" +
                           std::to_string(::getpid()) + ".seg";
  ASSERT_TRUE(storage::SegmentStore::Write(TestCorpus(), path).ok());
  Result<storage::SegmentStore> store = storage::SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // No index was written next to the segment, so opening it fails.
  Result<storage::NgramIndex> index = storage::NgramIndex::Open(
      storage::IndexPathFor(path), store->num_docs());
  ASSERT_FALSE(index.ok());
  RunningServer rs(ServerOptions{}, std::move(store).value(),
                   std::optional<storage::NgramIndex>());
  rs.server().MarkDegraded("index unavailable, serving full scans: " +
                           index.status().ToString());
  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  ASSERT_TRUE(client.Register(kWarnPattern).ok());

  const std::string served =
      CollectRows(client, OutputFormat::kTsv, true, false, nullptr);
  EXPECT_EQ(served, OfflineOutput({kErrPattern, kWarnPattern}, TestCorpus(),
                                  OutputFormat::kTsv, true));

  EXPECT_TRUE(rs.server().degraded());
  const engine::ServerStatsReport stats = rs.server().StatsSnapshot();
  EXPECT_TRUE(stats.degraded);
  EXPECT_FALSE(stats.degraded_reason.empty());

  // The degraded flag and reason surface through the stats op.
  Result<JsonValue> response = client.Stats();
  ASSERT_TRUE(response.ok());
  const JsonValue* report = response->Find("report");
  ASSERT_NE(report, nullptr);
  const JsonValue* server_section = report->Find("server");
  ASSERT_NE(server_section, nullptr);
  EXPECT_TRUE(server_section->BoolOr("degraded", false));
  EXPECT_FALSE(server_section->StringOr("degraded_reason", "").empty());
  std::remove(path.c_str());
}

// A store-backed session with one plan runs as a fleet of one: its rows
// stay byte-identical to the offline single-pattern run, and the stats
// op's plan line counts exactly the candidates the index offered it.
TEST(ServerTest, IndexedSinglePlanRowsAndStatsCountCandidates) {
  const std::string path = ::testing::TempDir() + "spanexd_indexed_" +
                           std::to_string(::getpid()) + ".seg";
  ASSERT_TRUE(storage::SegmentStore::Write(TestCorpus(), path).ok());
  Result<storage::SegmentStore> store = storage::SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  storage::NgramIndex index = storage::NgramIndex::Build(*store);
  engine::IndexedStats offline;
  BatchExtractor().ExtractIndexed(
      ExtractionPlan::Compile(kErrPattern).ValueOrDie(), *store, &index,
      &offline);
  ASSERT_TRUE(offline.narrowed);
  ASSERT_LT(offline.candidate_docs, TestCorpus().size());

  RunningServer rs(ServerOptions{}, std::move(store).value(),
                   std::optional<storage::NgramIndex>(std::move(index)));
  Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  EXPECT_EQ(CollectRows(client, OutputFormat::kTsv, true, false, nullptr),
            OfflineOutput({kErrPattern}, TestCorpus(), OutputFormat::kTsv,
                          true));

  Result<JsonValue> response = client.Stats();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const JsonValue* plans = response->Find("report")->Find("plans");
  ASSERT_NE(plans, nullptr);
  ASSERT_EQ(plans->items().size(), 1u);
  const JsonValue* plan_stats = plans->items()[0].Find("stats");
  ASSERT_NE(plan_stats, nullptr);
  EXPECT_EQ(plan_stats->IntOr("documents", -1),
            int64_t(offline.candidate_docs));
  EXPECT_EQ(plan_stats->IntOr("ac_gate_skipped", -1) +
                plan_stats->IntOr("prefilter_skipped", -1) +
                plan_stats->IntOr("dfa_skipped", -1) +
                plan_stats->IntOr("evaluated", -1),
            int64_t(offline.candidate_docs));
  std::remove(path.c_str());
}

// ---- extracts run inline on the I/O thread ------------------------------

std::string ExtractLine(int64_t id, const std::string& doc, size_t doc_index) {
  std::string line =
      "{\"op\":\"extract\",\"id\":" + std::to_string(id) + ",\"doc\":";
  AppendJsonString(&line, doc);
  return line + ",\"doc_index\":" + std::to_string(doc_index) +
         ",\"format\":\"tsv\"}\n";
}

void MustRegister(RawClient& raw, const std::string& pattern) {
  std::string line = "{\"op\":\"register\",\"id\":0,\"pattern\":";
  AppendJsonString(&line, pattern);
  ASSERT_TRUE(raw.SendAll(line + "}\n"));
  Result<JsonValue> response = raw.ReadLine(/*slow=*/false);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StatusFromResponse(*response).ok())
      << StatusFromResponse(*response).ToString();
}

/// Sends a sleeping ping on `holder` and returns once the executor runs
/// it; extracts admitted during the sleep queue behind it.
void HoldExecutor(RunningServer& rs, Client& holder, int sleep_ms) {
  const uint64_t admitted = rs.server().StatsSnapshot().admitted;
  ASSERT_TRUE(holder
                  .SendLine("{\"op\":\"ping\",\"id\":" +
                            std::to_string(holder.NextId()) +
                            ",\"sleep_ms\":" + std::to_string(sleep_ms) + "}")
                  .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const engine::ServerStatsReport s = rs.server().StatsSnapshot();
    if (s.admitted > admitted && s.queue_depth == 0) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the sleeping ping never reached the executor";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Work items that waited 0 ns for the executor: the extracts that ran
/// inline on the I/O thread (process-wide; one server runs at a time).
uint64_t InlineRuns() {
  const obs::HistogramSnapshot wait = obs::MetricsRegistry::Global()
                                          .GetHistogram("server.queue_wait_ns",
                                                        "ns")
                                          ->Snapshot();
  return !wait.buckets.empty() && wait.buckets[0].first == 0
             ? wait.buckets[0].second
             : 0;
}

/// Clears the armed fault schedule on scope exit.
struct FaultScope {
  ~FaultScope() { fault::Clear(); }
};

// An extract answers in bounded chunks, as extract_batch does: a 135-byte
// all-`a` document under .*x{a*}.* has 9,316 rows (516 KB of TSV), which
// arrive in several row lines, none past kRowsChunkBytes by more than one
// row, byte-identical to offline spanex. Its evaluation outlasts the
// inline fuse, so on an idle executor too the executor renders it, with
// the renderer extract_batch uses.
TEST(ServerChunkTest, ExtractAnswersInBoundedChunks) {
  const std::string kAllSpans = ".*x{a*}.*";
  const std::string doc(135, 'a');
  Corpus one;
  one.Add(Document(doc));
  const std::string want =
      OfflineOutput({kAllSpans}, one, OutputFormat::kTsv, false);
  // A line closes once it reaches kRowsChunkBytes, so it can pass that by
  // one encoded row, its comma and the closing brackets.
  size_t longest_row = 0;
  for (size_t start = 0, nl; (nl = want.find('\n', start)) !=
                             std::string::npos;
       start = nl + 1) {
    std::string encoded;
    AppendJsonString(&encoded, std::string_view(want).substr(start,
                                                             nl - start));
    longest_row = std::max(longest_row, encoded.size());
  }
  const size_t bound =
      kRowsChunkBytes + 1 + longest_row + std::strlen("],\"done\":false}");
  auto expect_chunked = [&](const RawAnswer& answer, const char* how) {
    SCOPED_TRACE(how);
    ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
    EXPECT_EQ(answer.rows, want);
    EXPECT_GE(answer.row_line_bytes.size(), 2u);
    for (size_t bytes : answer.row_line_bytes) EXPECT_LE(bytes, bound);
  };

  RunningServer rs(ServerOptions{}, one);
  RawClient raw(rs.socket_path());
  MustRegister(raw, kAllSpans);
  ASSERT_TRUE(raw.SendAll(ExtractLine(1, doc, 0)));
  expect_chunked(ReadAnswer(raw), "idle executor");

  Client holder = rs.MustConnect();
  HoldExecutor(rs, holder, 300);
  ASSERT_TRUE(raw.SendAll(ExtractLine(2, doc, 0)));
  expect_chunked(ReadAnswer(raw), "queued");
  Result<JsonValue> slept = holder.ReadResponseLine();
  ASSERT_TRUE(slept.ok() && StatusFromResponse(*slept).ok());

  ASSERT_TRUE(raw.SendAll("{\"op\":\"extract_batch\",\"id\":3}\n"));
  expect_chunked(ReadAnswer(raw), "extract_batch");
}

// A poison extract — Θ(n²) rows over 4,096 `a`s — must not hold the I/O
// thread: its inline attempt trips the 1 ms fuse and moves to the
// executor, so a ping on another connection still answers at once. The
// poison then answers DeadlineExceeded, or, when its client disconnects,
// is cancelled.
TEST(ServerTest, PoisonExtractLeavesIoThreadFree) {
  for (const bool disconnect : {false, true}) {
    SCOPED_TRACE(disconnect ? "disconnect" : "deadline");
    ServerOptions options;
    options.request_timeout_ms = 5000;
    RunningServer rs(options);
    Client other = rs.MustConnect();
    std::optional<RawClient> poison(std::in_place, rs.socket_path());
    MustRegister(*poison, ".*x{a*}.*");
    ASSERT_TRUE(poison->SendAll(ExtractLine(1, std::string(4096, 'a'), 0)));

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(other.Ping().ok());
    const auto ping_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    EXPECT_LT(ping_ms, 100);

    if (!disconnect) {
      const RawAnswer answer = ReadAnswer(*poison);
      EXPECT_EQ(answer.id, 1);
      EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded)
          << answer.status.ToString();
      EXPECT_TRUE(answer.rows.empty());
      EXPECT_EQ(rs.server().StatsSnapshot().deadline_exceeded, 1u);
      continue;
    }
    poison.reset();  // disconnect mid-evaluation
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (rs.server().StatsSnapshot().cancelled == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const engine::ServerStatsReport stats = rs.server().StatsSnapshot();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.deadline_exceeded, 0u);
  }
}

// One connection pipelines 50 extracts of needle and haystack documents
// in one write. Whether they queue behind a held executor, or the first
// runs inline on an idle one (one per connection per poll round; the
// write arrives in one read) and the rest queue, with or without 5-byte
// sends, every answer arrives once, in request order, with the offline
// rows, and the accounting adds up afterwards.
TEST(ServerTest, PipelinedExtractsKeepOrderInlineAndQueued) {
  const std::vector<std::string> patterns = {kErrPattern, kWarnPattern};
  const Corpus base = TestCorpus();
  Corpus docs;
  for (size_t i = 0; i < 50; ++i) {
    std::string text = base[i % base.size()].text();
    if (i % 7 == 3) text = std::string(200, 'z') + text;  // longer haystack
    docs.Add(Document(text));
  }
  const std::string want =
      OfflineOutput(patterns, docs, OutputFormat::kTsv, false);
  std::string burst;
  for (size_t i = 0; i < docs.size(); ++i)
    burst += ExtractLine(int64_t(i) + 1, docs[i].text(), i);

  enum class Way { kQueued, kIdle, kShortWrites };
  for (const Way way : {Way::kQueued, Way::kIdle, Way::kShortWrites}) {
    SCOPED_TRACE(int(way));
    ServerOptions options;
    options.max_inflight_per_client = 64;
    RunningServer rs(options);
    RawClient raw(rs.socket_path());
    for (const std::string& p : patterns) MustRegister(raw, p);
    Client holder = rs.MustConnect();
    FaultScope faults;
    if (way == Way::kQueued) HoldExecutor(rs, holder, 300);
    if (way == Way::kShortWrites)
      ASSERT_TRUE(fault::Configure("server.write=short,bytes=5").ok());
    const uint64_t admitted = rs.server().StatsSnapshot().admitted;
    const uint64_t inline_runs = InlineRuns();

    ASSERT_TRUE(raw.SendAll(burst));
    std::string served;
    for (int64_t id = 1; id <= int64_t(docs.size()); ++id) {
      const RawAnswer answer = ReadAnswer(raw);
      ASSERT_EQ(answer.id, id);
      ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
      for (int64_t chunk_id : answer.row_line_ids) EXPECT_EQ(chunk_id, id);
      served += answer.rows;
    }
    EXPECT_EQ(served, want);
    EXPECT_EQ(InlineRuns() - inline_runs, way == Way::kQueued ? 0u : 1u);
    if (way == Way::kQueued) {
      Result<JsonValue> slept = holder.ReadResponseLine();
      ASSERT_TRUE(slept.ok() && StatusFromResponse(*slept).ok());
    }
    fault::Clear();

    const engine::ServerStatsReport stats = rs.server().StatsSnapshot();
    EXPECT_EQ(stats.admitted - admitted, docs.size());
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.rejected_inflight_cap + stats.rejected_queue_full, 0u);
    ASSERT_TRUE(raw.SendAll("{\"op\":\"extract_batch\",\"id\":99}\n"));
    const RawAnswer batch = ReadAnswer(raw);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    EXPECT_EQ(batch.rows, OfflineOutput(patterns, base, OutputFormat::kTsv,
                                        false));
  }
}

}  // namespace
}  // namespace server
}  // namespace spanners
