// EngineReport: the one formatter for end-of-run engine statistics.
//
// Callers (tools/spanex, the future spanexd stats endpoint) collect the
// relevant snapshots — per-plan PlanStats + lazy-DFA stats, plan-cache
// stats, batch totals, wall time, and optionally the full telemetry
// MetricsSnapshot — into this struct and render it exactly once, as
// either the human-readable text block --stats always printed or a
// machine-readable JSON object (--stats=json / --metrics=json). The
// struct is plain data built from snapshots, so rendering never races
// live counters and both formats always agree.
#ifndef SPANNERS_ENGINE_REPORT_H_
#define SPANNERS_ENGINE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automata/lazy_dfa.h"
#include "engine/batch_extractor.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"
#include "obs/metrics.h"

namespace spanners {
namespace engine {

/// One plan's stats snapshot. `label` is "" for a single-plan run (a
/// fleet of one included), "q<i>" (command-line position) for the
/// members of a larger fleet and "s<i>" for a query's i-th distinct scan
/// plan (PlanString order).
struct PlanReport {
  std::string label;
  std::string info;  // PlanInfo::ToString()
  PlanStats stats;
  LazyDfaStats dfa;
};

/// spanexd's service-side accounting, filled by server::Server from its
/// always-on counters (a plain-data section here rather than a server
/// header so engine/ never depends on server/). Rendered by ToText/ToJson
/// when EngineReport::have_server is set.
struct ServerStatsReport {
  uint64_t uptime_ns = 0;
  uint64_t connections_total = 0;  // accepted since start
  size_t connections_open = 0;
  uint64_t requests = 0;  // parsed request lines
  uint64_t admitted = 0;  // work items accepted into the queue
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_inflight_cap = 0;
  uint64_t rejected_draining = 0;
  /// Requests whose per-request deadline expired before (or while)
  /// executing; the client got Status::DeadlineExceeded.
  uint64_t deadline_exceeded = 0;
  /// In-flight work (an evaluation or a sleeping ping) aborted by an
  /// external Cancel() (disconnect, force-close) mid-execution.
  uint64_t cancelled = 0;
  /// Evaluations aborted by the per-request arena-byte cap; the client
  /// got Status::ResourceExhausted.
  uint64_t resource_exhausted = 0;
  /// Queued items from already-closed connections, dropped at dequeue
  /// without executing.
  uint64_t cancelled_disconnect = 0;
  /// Connections force-closed for sitting idle past idle_timeout_ms.
  uint64_t reaped_idle = 0;
  size_t queue_depth = 0;  // point-in-time
  size_t queue_capacity = 0;
  /// Age of the oldest admitted-but-unfinished item (0 when idle).
  uint64_t oldest_inflight_age_ms = 0;
  bool draining = false;
  /// Serving in degraded mode (spanexd's posting index is missing or
  /// corrupt): full-scan answers, still byte-identical, just slower.
  bool degraded = false;
  std::string degraded_reason;
};

struct EngineReport {
  std::vector<PlanReport> plans;
  /// MultiQueryExtractor::ToString() ("" outside fleet runs).
  std::string fleet;
  /// Compiled algebra plan string ("" outside query runs).
  std::string query_plan;
  bool have_cache = false;
  PlanCacheStats cache;

  size_t documents = 0;
  uint64_t total_mappings = 0;
  size_t matched_documents = 0;
  size_t shards = 0;
  size_t threads = 0;
  uint64_t wall_ns = 0;

  /// Telemetry snapshot; meaningful only when recording was enabled for
  /// the run (have_metrics tracks that, not whether metrics exist).
  bool have_metrics = false;
  obs::MetricsSnapshot metrics;

  /// Posting-index accounting of an --index run (have_index tracks
  /// whether the indexed path ran at all; `index` summarizes the opened
  /// index, e.g. NgramIndex::ToString()).
  bool have_index = false;
  std::string index_info;
  IndexedStats index_stats;

  /// spanexd server-side accounting (stats endpoint only).
  bool have_server = false;
  ServerStatsReport server;

  /// Adds `plan`'s own record (ExtractionPlan::stats(): what it was
  /// offered when run alone or as a query's scan) under `label`.
  void AddPlan(std::string label, const ExtractionPlan& plan);

  /// Adds the per-plan lines of `extractor`'s fleet, counted as the fleet
  /// was offered documents, and for more than one plan its `fleet` line.
  /// A fleet of one reports as its plan alone, as it prints
  /// (FleetOutputHeader).
  void AddFleet(const MultiQueryExtractor& extractor);

  /// The --stats text block, one `<prefix>...` line per fact.
  std::string ToText(const std::string& prefix) const;
  /// Everything above as one JSON object (single line, trailing newline
  /// excluded): {"plans":[...],"corpus":{...},"cache":{...},
  /// "wall_ns":...,"metrics":{...}}.
  std::string ToJson() const;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_REPORT_H_
