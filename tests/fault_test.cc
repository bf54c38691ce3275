// Fault-injection sweep (src/common/fault.h). Under an armed schedule,
// every injection point must yield the trichotomy the subsystem promises:
// a clean Status out of the faulted operation, invariants intact (no
// readable half-file, tmp unlinked on unwind, balanced server
// accounting), and post-fault operation byte-identical to a fault-free
// run. Includes fork-based crash simulation ('kill' at each storage
// point) proving pre-rename crashes leave no visible file, and
// client-layer retry tests against a live in-process server.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/file_io.h"

namespace spanners {
namespace {

using engine::Corpus;
using engine::ExtractionPlan;
using engine::OutputFormat;

/// Disarms on scope exit so one test's schedule never leaks into the
/// next (the registry is process-global).
struct FaultGuard {
  ~FaultGuard() { fault::Clear(); }
};

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "spanners_fault_test_" + tag + "_" +
         std::to_string(::getpid());
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out;
  out.assign(std::istreambuf_iterator<char>(in), {});
  return out;
}

// ---- spec grammar --------------------------------------------------------

TEST(FaultSpecTest, ValidSpecsParse) {
  FaultGuard guard;
  for (const char* spec : {
           "storage.write=fail",
           "storage.write=fail,errno=ENOSPC,after=3",
           "server.read=short,bytes=1",
           "client.recv=fail,errno=ECONNRESET,count=1",
           "storage.rename=kill",
           "storage.fsync=delay,ms=1",
           "storage.open=fail,errno=5",
           "storage.write=fail,prob=0.5,seed=42",
           "server.read=short,bytes=2;server.write=short,bytes=2",
       }) {
    EXPECT_TRUE(fault::Configure(spec).ok()) << spec;
  }
  // Empty spec disarms.
  EXPECT_TRUE(fault::Configure("").ok());
  EXPECT_FALSE(fault::Armed());
}

TEST(FaultSpecTest, MalformedSpecsRejected) {
  FaultGuard guard;
  for (const char* spec : {
           "nosuch.point=fail",           // unregistered point
           "storage.write",               // no kind
           "storage.write=explode",       // unknown kind
           "storage.write=fail,errno=EWHAT",  // unknown errno name
           "storage.write=fail,bogus=1",  // unknown param
           "storage.write=fail,after=x",  // non-numeric
           "storage.write=fail,prob=2",   // out of [0,1]
       }) {
    Status st = fault::Configure(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spec;
  }
  // A refused spec must not leave a half-armed schedule behind.
  EXPECT_FALSE(fault::Armed());
  // Empty segments (shell-composed "$A;$B" with one empty) are skipped.
  EXPECT_TRUE(fault::Configure(";").ok());
  EXPECT_FALSE(fault::Armed());
}

TEST(FaultSpecTest, EveryRegisteredPointConfigures) {
  FaultGuard guard;
  for (size_t i = 0; i < fault::kNumPoints; ++i) {
    EXPECT_TRUE(
        fault::Configure(std::string(fault::kPoints[i]) + "=fail,count=1")
            .ok())
        << fault::kPoints[i];
  }
}

// ---- deterministic schedules ---------------------------------------------

TEST(FaultScheduleTest, AfterEveryCountFireExactly) {
  FaultGuard guard;
  // Skip 2 hits, then fire every 2nd eligible hit, at most 2 times:
  // 0-based hits 2 and 4 fire, nothing else ever.
  ASSERT_TRUE(
      fault::Configure("storage.write=fail,errno=ENOSPC,after=2,every=2,count=2")
          .ok());
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    const fault::Action a = SPANNERS_FAULT("storage.write");
    fired.push_back(a.fail);
    if (a.fail) EXPECT_EQ(a.err, ENOSPC);
  }
  const std::vector<bool> expected = {false, false, true, false, true,
                                      false, false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fault::FiredCount("storage.write"), 2u);
  EXPECT_EQ(fault::HitCount("storage.write"), 10u);
  EXPECT_EQ(fault::FiredCount(), 2u);
  // Points without a rule pass through untouched.
  EXPECT_FALSE(SPANNERS_FAULT("storage.fsync").fired());
}

TEST(FaultScheduleTest, ProbScheduleIsDeterministicPerSeed) {
  FaultGuard guard;
  auto run = [](const char* spec) {
    EXPECT_TRUE(fault::Configure(spec).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i)
      fired.push_back(SPANNERS_FAULT("server.read").fail);
    return fired;
  };
  const std::vector<bool> a = run("server.read=fail,prob=0.5,seed=7");
  const std::vector<bool> b = run("server.read=fail,prob=0.5,seed=7");
  EXPECT_EQ(a, b);  // same seed, same schedule
  size_t fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  const std::vector<bool> c = run("server.read=fail,prob=0.5,seed=8");
  EXPECT_NE(a, c);  // different seed, different schedule
}

// ---- storage durability under injected faults ----------------------------

/// Every fail-able storage point × a representative errno set: the write
/// must unwind with a clean error, leave the old file byte-identical and
/// no tmp behind; after disarming the same write must succeed.
TEST(StorageFaultTest, FailUnwindLeavesOldFileIntact) {
  FaultGuard guard;
  const std::string old_bytes = "old contents, must survive\n";
  const std::string new_bytes(8192, 'N');
  for (const char* point : {"storage.open", "storage.write", "storage.fsync",
                            "storage.rename"}) {
    for (const char* err : {"EIO", "ENOSPC", "EDQUOT"}) {
      const std::string path =
          TempPath(std::string("unwind_") + point + "_" + err);
      ASSERT_TRUE(fault::Configure("").ok());
      ASSERT_TRUE(storage::WriteFileDurable(path, old_bytes).ok());

      ASSERT_TRUE(fault::Configure(std::string(point) + "=fail,errno=" + err)
                      .ok());
      Status st = storage::WriteFileDurable(path, new_bytes);
      ASSERT_FALSE(st.ok()) << point << " " << err;
      EXPECT_GE(fault::FiredCount(point), 1u);
      EXPECT_EQ(ReadFile(path), old_bytes) << point << " " << err;
      EXPECT_FALSE(PathExists(path + ".tmp")) << point << " " << err;

      // Disarmed, the identical write must go through byte-exact.
      ASSERT_TRUE(fault::Configure("").ok());
      ASSERT_TRUE(storage::WriteFileDurable(path, new_bytes).ok());
      EXPECT_EQ(ReadFile(path), new_bytes);
      std::remove(path.c_str());
    }
  }
}

/// storage.dirsync is the documented exception: the rename happened, so
/// the new file stays visible and valid — only its crash-durability is in
/// doubt, and the Status says so.
TEST(StorageFaultTest, DirsyncFailureLeavesVisibleValidFile) {
  FaultGuard guard;
  const std::string path = TempPath("dirsync");
  ASSERT_TRUE(fault::Configure("storage.dirsync=fail,errno=EIO").ok());
  const std::string bytes = "fully written and renamed\n";
  Status st = storage::WriteFileDurable(path, bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("file is visible"), std::string::npos);
  EXPECT_EQ(ReadFile(path), bytes);
  EXPECT_FALSE(PathExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(StorageFaultTest, ShortWritesLoopToCompletion) {
  FaultGuard guard;
  const std::string path = TempPath("short");
  std::string bytes;
  for (int i = 0; i < 4096; ++i) bytes += char('a' + i % 26);
  // Every write clamped to 1 byte: 4096 partial transfers, same file.
  ASSERT_TRUE(fault::Configure("storage.write=short,bytes=1").ok());
  ASSERT_TRUE(storage::WriteFileDurable(path, bytes).ok());
  EXPECT_EQ(ReadFile(path), bytes);
  EXPECT_GE(fault::FiredCount("storage.write"), bytes.size());
  // A bounded clamp burst mid-stream must also converge.
  ASSERT_TRUE(
      fault::Configure("storage.write=short,bytes=7,after=2,count=5").ok());
  ASSERT_TRUE(storage::WriteFileDurable(path, bytes).ok());
  EXPECT_EQ(ReadFile(path), bytes);
  std::remove(path.c_str());
}

TEST(StorageFaultTest, EintrStormIsRetriedTransparently) {
  FaultGuard guard;
  const std::string path = TempPath("eintr");
  const std::string bytes(1024, 'e');
  // 100 consecutive EINTRs on write: the loop must absorb every one and
  // still produce the exact file.
  ASSERT_TRUE(
      fault::Configure("storage.write=fail,errno=EINTR,count=100").ok());
  ASSERT_TRUE(storage::WriteFileDurable(path, bytes).ok());
  EXPECT_EQ(fault::FiredCount("storage.write"), 100u);
  EXPECT_EQ(ReadFile(path), bytes);
  std::remove(path.c_str());
}

// ---- crash simulation (fork + 'kill' at each sync point) -----------------

/// Forks; the child arms `spec`, attempts the overwrite and _exit(0)s if
/// it survives. Returns the child's exit status.
int CrashingWrite(const std::string& spec, const std::string& path,
                  const std::string& bytes) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: no gtest, no exceptions — syscalls and _exit only.
    if (!fault::Configure(spec).ok()) ::_exit(3);
    Status st = storage::WriteFileDurable(path, bytes);
    ::_exit(st.ok() ? 0 : 4);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

/// Crash before the rename (open/write/fsync/rename itself): the target
/// path must be untouched — absent for a first write, old bytes for an
/// overwrite. Crash after the rename (dirsync): the new file is visible
/// and complete. Never a readable half-file.
TEST(StorageCrashTest, KillAtEachPointNeverLeavesTornFile) {
  FaultGuard guard;
  const std::string old_bytes = "pre-crash contents\n";
  const std::string new_bytes(8192, 'C');
  for (const char* point : {"storage.open", "storage.write", "storage.fsync",
                            "storage.rename", "storage.dirsync"}) {
    const bool pre_rename = std::string(point) != "storage.dirsync";

    // Fresh write: pre-rename crashes must leave NO visible file.
    {
      const std::string path = TempPath(std::string("crash_fresh_") + point);
      ASSERT_EQ(CrashingWrite(std::string(point) + "=kill", path, new_bytes),
                137)
          << point;
      if (pre_rename) {
        EXPECT_FALSE(PathExists(path)) << point;
      } else {
        EXPECT_EQ(ReadFile(path), new_bytes) << point;
      }
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }

    // Overwrite: pre-rename crashes must leave the old bytes readable.
    {
      const std::string path = TempPath(std::string("crash_over_") + point);
      ASSERT_TRUE(storage::WriteFileDurable(path, old_bytes).ok());
      ASSERT_EQ(CrashingWrite(std::string(point) + "=kill", path, new_bytes),
                137)
          << point;
      EXPECT_EQ(ReadFile(path), pre_rename ? old_bytes : new_bytes) << point;
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }
}

// ---- server + client under injected faults -------------------------------

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

std::string OfflineOutput(const std::string& pattern, const Corpus& corpus) {
  auto plan = std::make_shared<const ExtractionPlan>(
      ExtractionPlan::Compile(pattern).ValueOrDie());
  engine::BatchOptions options;
  options.num_threads = 2;
  engine::BatchExtractor batch(options);
  std::string out;
  const VarSet& vars = plan->vars();
  out += engine::TsvHeader(vars);
  out += '\n';
  batch.ExtractStream(*plan, corpus,
                      [&](size_t doc_begin, size_t doc_end,
                          std::vector<std::vector<Mapping>>& per_doc) {
                        for (size_t i = doc_begin; i < doc_end; ++i)
                          for (const Mapping& m : per_doc[i - doc_begin])
                            engine::AppendMappingRow(&out, OutputFormat::kTsv,
                                                     i, m, vars, corpus[i]);
                      });
  return out;
}

class RunningServer {
 public:
  explicit RunningServer(server::ServerOptions options = {}) {
    if (options.socket_path.empty())
      options.socket_path = testing::TempDir() + "spanexd_fault_test_" +
                            std::to_string(reinterpret_cast<uintptr_t>(this)) +
                            ".sock";
    socket_path_ = options.socket_path;
    options.num_threads = 2;
    server_.emplace(std::move(options), TestCorpus());
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { exit_code_ = server_->Serve(); });
  }

  ~RunningServer() { Shutdown(); }

  int Shutdown() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    std::remove(socket_path_.c_str());
    return exit_code_;
  }

  server::Server& server() { return *server_; }
  const std::string& socket_path() const { return socket_path_; }

 private:
  std::optional<server::Server> server_;
  std::string socket_path_;
  std::thread thread_;
  int exit_code_ = -1;
};

std::string CollectBatch(server::Client& client, Status* status) {
  std::string out;
  Result<server::Client::ExtractSummary> result = client.ExtractBatch(
      OutputFormat::kTsv, /*header=*/true, /*all_resident=*/false,
      [&](const std::string& row) {
        out += row;
        out += '\n';
      });
  *status = result.status();
  return out;
}

TEST(ClientFaultTest, ConnectWithRetrySurvivesInjectedRefusal) {
  FaultGuard guard;
  RunningServer rs;
  ASSERT_TRUE(
      fault::Configure("client.connect=fail,errno=ECONNREFUSED,count=1").ok());
  server::RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  Result<server::Client> client =
      server::Client::ConnectWithRetry(rs.socket_path(), {}, policy);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value().retries_performed(), 1u);
  EXPECT_TRUE(client.value().Ping().ok());
}

TEST(ClientFaultTest, ConnectWithoutRetryFailsFast) {
  FaultGuard guard;
  RunningServer rs;
  ASSERT_TRUE(
      fault::Configure("client.connect=fail,errno=ECONNREFUSED,count=1").ok());
  Result<server::Client> client = server::Client::Connect(rs.socket_path());
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

/// A dropped connection mid-stream: the armed client reconnects,
/// re-registers the session's plans, replays the batch, and `on_row`
/// still sees every row exactly once — byte-identical to offline.
TEST(ClientFaultTest, RecvFaultMidStreamRetriesExactlyOnce) {
  FaultGuard guard;
  RunningServer rs;
  Result<server::Client> connected = server::Client::Connect(rs.socket_path());
  ASSERT_TRUE(connected.ok());
  server::Client client = std::move(connected).value();
  server::RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  client.set_retry_policy(policy);
  ASSERT_TRUE(client.Register(kErrPattern).ok());

  // First recv after arming dies ECONNRESET; everything after is clean.
  ASSERT_TRUE(
      fault::Configure("client.recv=fail,errno=ECONNRESET,count=1").ok());
  Status status;
  const std::string served = CollectBatch(client, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(client.retries_performed(), 1u);
  EXPECT_EQ(served, OfflineOutput(kErrPattern, TestCorpus()));
}

TEST(ClientFaultTest, SendFaultRetriesTransparently) {
  FaultGuard guard;
  RunningServer rs;
  Result<server::Client> connected = server::Client::Connect(rs.socket_path());
  ASSERT_TRUE(connected.ok());
  server::Client client = std::move(connected).value();
  server::RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_backoff_ms = 1;
  client.set_retry_policy(policy);
  ASSERT_TRUE(fault::Configure("client.send=fail,errno=EPIPE,count=1").ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(client.retries_performed(), 1u);
}

TEST(ClientFaultTest, ExhaustedRetriesReturnUnavailable) {
  FaultGuard guard;
  RunningServer rs;
  Result<server::Client> connected = server::Client::Connect(rs.socket_path());
  ASSERT_TRUE(connected.ok());
  server::Client client = std::move(connected).value();
  server::RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_backoff_ms = 1;
  client.set_retry_policy(policy);
  // Every send dies: 1 try + 2 retries, then the failure surfaces.
  ASSERT_TRUE(fault::Configure("client.send=fail,errno=EPIPE").ok());
  Status st = client.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.retries_performed(), 2u);
}

/// Server-side read/write faults: connections die, but the server's
/// accounting stays balanced and fresh traffic serves byte-identically.
TEST(ServerFaultTest, ReadFaultKillsConnNotServer) {
  FaultGuard guard;
  RunningServer rs;
  Result<server::Client> connected = server::Client::Connect(rs.socket_path());
  ASSERT_TRUE(connected.ok());
  server::Client client = std::move(connected).value();

  // The server's next read of this connection fails EIO and closes it;
  // the client sees the transport die, not a protocol error.
  ASSERT_TRUE(fault::Configure("server.read=fail,errno=EIO,count=1").ok());
  Status st = client.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);

  // The server survived: a fresh session serves byte-identical rows and
  // the queue drained to empty.
  fault::Clear();
  Result<server::Client> fresh = server::Client::Connect(rs.socket_path());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.value().Register(kErrPattern).ok());
  Status batch_status;
  const std::string served = CollectBatch(fresh.value(), &batch_status);
  ASSERT_TRUE(batch_status.ok());
  EXPECT_EQ(served, OfflineOutput(kErrPattern, TestCorpus()));
  const engine::ServerStatsReport stats = rs.server().StatsSnapshot();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(rs.Shutdown(), 0);
}

TEST(ServerFaultTest, ShortServerIoStillByteIdentical) {
  FaultGuard guard;
  RunningServer rs;
  // Server reads requests 3 bytes at a time and writes responses 5 bytes
  // at a time: pure partial-transfer stress, zero behavioral change.
  ASSERT_TRUE(
      fault::Configure("server.read=short,bytes=3;server.write=short,bytes=5")
          .ok());
  Result<server::Client> connected = server::Client::Connect(rs.socket_path());
  ASSERT_TRUE(connected.ok());
  server::Client client = std::move(connected).value();
  ASSERT_TRUE(client.Register(kErrPattern).ok());
  Status status;
  const std::string served = CollectBatch(client, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(served, OfflineOutput(kErrPattern, TestCorpus()));
  EXPECT_GT(fault::FiredCount("server.read"), 1u);
  EXPECT_GT(fault::FiredCount("server.write"), 1u);
}

/// The full sweep the acceptance criteria name: every registered point,
/// failed once under a seeded schedule, yields a clean Status somewhere
/// (never a crash), and after Clear() the system serves byte-identical
/// rows again.
TEST(SweepTest, EveryPointFailsCleanlyAndRecovers) {
  FaultGuard guard;
  const std::string expected = OfflineOutput(kErrPattern, TestCorpus());
  for (size_t i = 0; i < fault::kNumPoints; ++i) {
    const std::string point = fault::kPoints[i];
    fault::Clear();
    RunningServer rs;
    server::RetryPolicy policy;
    policy.max_retries = 3;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 5;
    Result<server::Client> connected =
        server::Client::ConnectWithRetry(rs.socket_path(), {}, policy);
    ASSERT_TRUE(connected.ok()) << point;
    server::Client client = std::move(connected).value();
    client.set_retry_policy(policy);

    ASSERT_TRUE(fault::Configure(point + "=fail,count=1").ok()) << point;

    // Storage faults fire in a writer, not the serving path.
    if (point.rfind("storage.", 0) == 0) {
      const std::string path = TempPath("sweep_" + std::to_string(i));
      Status st = storage::WriteFileDurable(path, "sweep bytes");
      if (point == "storage.dirsync") {
        EXPECT_FALSE(st.ok()) << point;  // visible file, reported sync risk
      } else {
        EXPECT_FALSE(st.ok()) << point;
        EXPECT_FALSE(PathExists(path)) << point;
      }
      std::remove(path.c_str());
    }

    // With retries armed, the served path must absorb whatever fired (or
    // remains armed) and still produce byte-identical rows.
    ASSERT_TRUE(client.Register(kErrPattern).ok()) << point;
    Status status;
    const std::string served = CollectBatch(client, &status);
    ASSERT_TRUE(status.ok()) << point << ": " << status.ToString();
    EXPECT_EQ(served, expected) << point;

    const engine::ServerStatsReport stats = rs.server().StatsSnapshot();
    EXPECT_EQ(stats.queue_depth, 0u) << point;
    EXPECT_EQ(rs.Shutdown(), 0) << point;
  }
}

}  // namespace
}  // namespace spanners
