#include "engine/report.h"

#include <cstdio>

#include "engine/format.h"

namespace spanners {
namespace engine {

namespace {

void AppendDfaText(std::string* out, const LazyDfaStats& ds) {
  *out += " (" + std::to_string(ds.num_states) + " dfa states, " +
          std::to_string(ds.num_atoms) + " atoms";
  if (ds.evictions > 0)
    *out += ", " + std::to_string(ds.evictions) + " evicted";
  if (ds.fallbacks > 0)
    *out += ", " + std::to_string(ds.fallbacks) + " simulation fallbacks";
  *out += ")\n";
}

void AppendPlanJson(std::string* out, const PlanReport& p) {
  const PlanStats& s = p.stats;
  *out += "{\"label\":";
  AppendJsonString(out, p.label);
  *out += ",\"info\":";
  AppendJsonString(out, p.info);
  *out += ",\"stats\":{\"documents\":" +
          std::to_string(s.documents) +
          ",\"mappings\":" + std::to_string(s.mappings) +
          ",\"ac_gate_skipped\":" + std::to_string(s.ac_gate_skipped) +
          ",\"prefilter_skipped\":" + std::to_string(s.prefilter_skipped) +
          ",\"dfa_skipped\":" + std::to_string(s.dfa_skipped) +
          ",\"evaluated\":" + std::to_string(s.evaluated()) +
          "},\"lazy_dfa\":{\"states\":" + std::to_string(p.dfa.num_states) +
          ",\"atoms\":" + std::to_string(p.dfa.num_atoms) +
          ",\"misses\":" + std::to_string(p.dfa.misses) +
          ",\"evictions\":" + std::to_string(p.dfa.evictions) +
          ",\"fallbacks\":" + std::to_string(p.dfa.fallbacks) + "}}";
}

}  // namespace

void EngineReport::AddPlan(std::string label, const ExtractionPlan& plan) {
  plans.push_back(PlanReport{std::move(label), plan.info().ToString(),
                             plan.stats(), plan.lazy_dfa().stats()});
}

void EngineReport::AddFleet(const MultiQueryExtractor& extractor) {
  const bool single = extractor.num_plans() == 1;
  if (!single) fleet = extractor.ToString();
  for (size_t p = 0; p < extractor.num_plans(); ++p) {
    const ExtractionPlan& plan = extractor.plan(p);
    plans.push_back(PlanReport{single ? "" : "q" + std::to_string(p),
                               plan.info().ToString(),
                               extractor.plan_stats(p),
                               plan.lazy_dfa().stats()});
  }
}

std::string EngineReport::ToText(const std::string& prefix) const {
  std::string out;
  if (!fleet.empty()) out += prefix + fleet + "\n";
  if (!query_plan.empty())
    out += prefix + "query plan [" + query_plan + "]\n";
  for (const PlanReport& p : plans) {
    const std::string tag = p.label.empty() ? "" : p.label + " ";
    out += prefix + tag + "[" + p.info + "]\n";
    out += prefix + tag + p.stats.ToString();
    AppendDfaText(&out, p.dfa);
  }
  if (have_cache) {
    out += prefix + "plan cache: " + std::to_string(cache.size) +
           " plans, " + std::to_string(cache.hits) + " hits, " +
           std::to_string(cache.misses) + " misses";
    if (cache.evictions > 0)
      out += ", " + std::to_string(cache.evictions) + " evictions";
    out += "\n";
  }
  if (have_index) {
    if (!index_info.empty()) out += prefix + index_info + "\n";
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1f%%",
                  index_stats.CandidateRatio() * 100.0);
    out += prefix + "index: " +
           std::to_string(index_stats.candidate_docs) + "/" +
           std::to_string(index_stats.corpus_docs) + " candidate docs (" +
           ratio + (index_stats.narrowed ? "" : ", not narrowed") + "), " +
           std::to_string(index_stats.postings_touched) +
           " postings touched, " + std::to_string(index_stats.terms_probed) +
           " terms probed, lookup " +
           std::to_string(index_stats.lookup_ns / 1000) + " us, faults " +
           std::to_string(index_stats.minor_faults) + " minor/" +
           std::to_string(index_stats.major_faults) + " major\n";
  }
  if (have_server) {
    const ServerStatsReport& s = server;
    char up[32];
    std::snprintf(up, sizeof(up), "%.1f s", double(s.uptime_ns) / 1e9);
    out += prefix + "server: up " + up + ", " +
           std::to_string(s.connections_open) + "/" +
           std::to_string(s.connections_total) + " conns open/total, " +
           std::to_string(s.requests) + " requests, " +
           std::to_string(s.admitted) + " admitted, queue " +
           std::to_string(s.queue_depth) + "/" +
           std::to_string(s.queue_capacity) +
           (s.draining ? ", draining" : "") + "\n";
    if (s.degraded)
      out += prefix + "server: DEGRADED (" + s.degraded_reason + ")\n";
    const uint64_t rejected = s.rejected_queue_full +
                              s.rejected_inflight_cap + s.rejected_draining;
    if (rejected > 0)
      out += prefix + "server: rejected " +
             std::to_string(s.rejected_queue_full) + " queue-full, " +
             std::to_string(s.rejected_inflight_cap) + " inflight-cap, " +
             std::to_string(s.rejected_draining) + " draining\n";
    if (s.deadline_exceeded > 0 || s.reaped_idle > 0)
      out += prefix + "server: " + std::to_string(s.deadline_exceeded) +
             " deadline-exceeded, " + std::to_string(s.reaped_idle) +
             " idle conns reaped\n";
    if (s.cancelled > 0 || s.resource_exhausted > 0 ||
        s.cancelled_disconnect > 0)
      out += prefix + "server: " + std::to_string(s.cancelled) +
             " cancelled, " + std::to_string(s.resource_exhausted) +
             " resource-exhausted, " +
             std::to_string(s.cancelled_disconnect) +
             " dropped-at-dequeue (disconnect)\n";
    if (s.oldest_inflight_age_ms > 0)
      out += prefix + "server: oldest in-flight item " +
             std::to_string(s.oldest_inflight_age_ms) + " ms old\n";
  }
  out += prefix + std::to_string(documents) + " docs, " +
         std::to_string(total_mappings) + " mappings, " +
         std::to_string(matched_documents) + " matched docs, " +
         std::to_string(shards) + " shards, " + std::to_string(threads) +
         " threads";
  if (wall_ns > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f ms", double(wall_ns) / 1e6);
    out += ", ";
    out += buf;
  }
  out += " (streamed per shard)\n";
  if (have_metrics) out += metrics.ToString();
  return out;
}

std::string EngineReport::ToJson() const {
  std::string out = "{\"plans\":[";
  for (size_t i = 0; i < plans.size(); ++i) {
    if (i > 0) out += ",";
    AppendPlanJson(&out, plans[i]);
  }
  out += "]";
  if (!fleet.empty()) {
    out += ",\"fleet\":";
    AppendJsonString(&out, fleet);
  }
  if (!query_plan.empty()) {
    out += ",\"query_plan\":";
    AppendJsonString(&out, query_plan);
  }
  if (have_cache)
    out += ",\"plan_cache\":{\"size\":" + std::to_string(cache.size) +
           ",\"hits\":" + std::to_string(cache.hits) +
           ",\"misses\":" + std::to_string(cache.misses) +
           ",\"evictions\":" + std::to_string(cache.evictions) + "}";
  out += ",\"corpus\":{\"documents\":" + std::to_string(documents) +
         ",\"total_mappings\":" + std::to_string(total_mappings) +
         ",\"matched_documents\":" + std::to_string(matched_documents) +
         ",\"shards\":" + std::to_string(shards) +
         ",\"threads\":" + std::to_string(threads) + "}";
  if (have_index) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.6f",
                  index_stats.CandidateRatio());
    out += ",\"index\":{\"info\":";
    AppendJsonString(&out, index_info);
    out += ",\"corpus_docs\":" + std::to_string(index_stats.corpus_docs) +
           ",\"candidate_docs\":" +
           std::to_string(index_stats.candidate_docs) +
           ",\"candidate_ratio\":" + ratio +
           ",\"narrowed\":" + (index_stats.narrowed ? "true" : "false") +
           ",\"postings_touched\":" +
           std::to_string(index_stats.postings_touched) +
           ",\"terms_probed\":" + std::to_string(index_stats.terms_probed) +
           ",\"lookup_ns\":" + std::to_string(index_stats.lookup_ns) +
           ",\"minor_faults\":" + std::to_string(index_stats.minor_faults) +
           ",\"major_faults\":" + std::to_string(index_stats.major_faults) +
           "}";
  }
  if (have_server) {
    const ServerStatsReport& s = server;
    out += ",\"server\":{\"uptime_ns\":" + std::to_string(s.uptime_ns) +
           ",\"connections_total\":" + std::to_string(s.connections_total) +
           ",\"connections_open\":" + std::to_string(s.connections_open) +
           ",\"requests\":" + std::to_string(s.requests) +
           ",\"admitted\":" + std::to_string(s.admitted) +
           ",\"rejected_queue_full\":" +
           std::to_string(s.rejected_queue_full) +
           ",\"rejected_inflight_cap\":" +
           std::to_string(s.rejected_inflight_cap) +
           ",\"rejected_draining\":" + std::to_string(s.rejected_draining) +
           ",\"deadline_exceeded\":" + std::to_string(s.deadline_exceeded) +
           ",\"cancelled\":" + std::to_string(s.cancelled) +
           ",\"resource_exhausted\":" +
           std::to_string(s.resource_exhausted) +
           ",\"cancelled_disconnect\":" +
           std::to_string(s.cancelled_disconnect) +
           ",\"reaped_idle\":" + std::to_string(s.reaped_idle) +
           ",\"queue_depth\":" + std::to_string(s.queue_depth) +
           ",\"oldest_inflight_age_ms\":" +
           std::to_string(s.oldest_inflight_age_ms) +
           ",\"queue_capacity\":" + std::to_string(s.queue_capacity) +
           ",\"draining\":" + (s.draining ? "true" : "false") +
           ",\"degraded\":" + (s.degraded ? "true" : "false");
    if (s.degraded) {
      out += ",\"degraded_reason\":";
      AppendJsonString(&out, s.degraded_reason);
    }
    out += "}";
  }
  out += ",\"wall_ns\":" + std::to_string(wall_ns);
  if (have_metrics) out += ",\"metrics\":" + metrics.ToJson();
  out += "}";
  return out;
}

}  // namespace engine
}  // namespace spanners
