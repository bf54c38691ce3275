// Deterministic fault injection for failure-path testing.
//
// An injection point is a named site in production code wrapped with
// SPANNERS_FAULT("layer.op"); a test (or an operator chasing a repro)
// arms a schedule against those names and the site misbehaves exactly as
// scripted — fail with a chosen errno, clamp a transfer to a short
// read/write, stall, or kill the process — while the surrounding code
// must unwind with a clean Status, torn-file-free storage, and balanced
// accounting. tests/fault_test.cc sweeps every point in kPoints.
//
// Cost model. The hooks are always compiled in and armed at run time;
// unarmed, a hit is one relaxed atomic load. Every point sits on an I/O
// path (a syscall per hit), never in an evaluation loop.
//
// Schedules are scripted with a small spec grammar, one rule per point,
// ';'-separated (via fault::Configure, the SPANNERS_FAULT environment
// variable, or `spanexd --fault`):
//
//   spec  := rule (';' rule)*
//   rule  := point '=' kind (',' param)*
//   kind  := 'fail' | 'short' | 'delay' | 'kill'
//   param := 'errno=' NAME|NUM   fail: errno to fail with (default EIO)
//          | 'after='  N         skip the first N hits (default 0)
//          | 'every='  N         then fire every Nth hit (default 1)
//          | 'count='  N         stop after N fires (default unlimited)
//          | 'bytes='  N         short: clamp the transfer to N (default 1)
//          | 'ms='     N         delay: stall N ms (default 10)
//          | 'prob='   P         fire with probability P per eligible hit
//          | 'seed='   S         PRNG seed for prob (deterministic)
//
//   storage.write=fail,errno=ENOSPC,after=3      4th write fails ENOSPC
//   server.read=short,bytes=1                    1-byte reads forever
//   client.recv=fail,errno=ECONNRESET,count=1    first recv dies once
//   storage.rename=kill                          SIGKILL-equivalent crash
//
// The schedule is deterministic: hit counting is per rule, and `prob`
// draws from a counter-indexed splitmix64 stream of `seed`, so the same
// build + spec + workload fires the same faults. 'kill' _exit(137)s at
// the point — the crash-simulation hook (fork the workload, assert on
// what the dead process left behind).
#ifndef SPANNERS_COMMON_FAULT_H_
#define SPANNERS_COMMON_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace spanners {
namespace fault {

/// What an injection point must do for this hit. Default-constructed =
/// proceed normally.
struct Action {
  /// Fail the operation without attempting it: set errno to `err` and
  /// take the caller's error path (as if the syscall returned -1).
  bool fail = false;
  int err = 0;
  /// Clamp the transfer length (short read/write). SIZE_MAX = no clamp.
  size_t clamp = SIZE_MAX;

  bool fired() const { return fail || clamp != SIZE_MAX; }
};

/// Every injection point compiled into the tree, for sweep tests. Keep in
/// sync with the SPANNERS_FAULT call sites.
inline constexpr const char* kPoints[] = {
    "storage.open",   "storage.write", "storage.fsync", "storage.rename",
    "storage.dirsync", "server.read",  "server.write",  "client.connect",
    "client.send",    "client.recv",
};
inline constexpr size_t kNumPoints = sizeof(kPoints) / sizeof(kPoints[0]);

namespace internal {
extern std::atomic<bool> g_armed;
}

/// Whether any schedule is armed (one relaxed load — the hot-path gate).
inline bool Armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// Evaluates one hit of `point` against the armed schedule: performs any
/// delay/kill inline and returns the fail/clamp the caller must apply.
/// Call through SPANNERS_FAULT, not directly.
Action Hit(const char* point);

/// Replaces the armed schedule with `spec` (see grammar above). An empty
/// spec disarms. InvalidArgument on a malformed spec.
Status Configure(const std::string& spec);

/// Configure(getenv("SPANNERS_FAULT")); OK when the variable is unset.
Status ConfigureFromEnv();

/// Disarms and drops every rule (counters included).
void Clear();

/// Total fires across the armed schedule / fires and hits of one point.
uint64_t FiredCount();
uint64_t FiredCount(const std::string& point);
uint64_t HitCount(const std::string& point);

#define SPANNERS_FAULT(point)                     \
  (::spanners::fault::Armed() ? ::spanners::fault::Hit(point) \
                              : ::spanners::fault::Action{})

}  // namespace fault
}  // namespace spanners

#endif  // SPANNERS_COMMON_FAULT_H_
