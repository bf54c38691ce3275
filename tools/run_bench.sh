#!/usr/bin/env bash
# Runs the engine benchmarks and records the results as BENCH_engine.json,
# so the performance trajectory is tracked from PR to PR.
#
# Usage: tools/run_bench.sh [--quick] [--build-dir DIR] [--out FILE]
#
#   --quick      single-thread batch benchmarks only (pattern and
#                algebra-query workloads), no repetitions outside the
#                gated paired benches — the CI smoke configuration (fails
#                on crash or a paired gate, not on absolute numbers;
#                shared runners are too noisy to gate on those)
#   --build-dir  build tree to use / create        (default: build)
#   --out        output JSON path                  (default: BENCH_engine.json)
#
# The full run sweeps thread counts with 3 repetitions and reports
# medians; docs/s, mappings/s, allocs/doc land in the JSON counters. Both
# modes additionally:
#   - run the paired metrics-overhead bench with
#     9 repetitions, and GATE on the median: enabling telemetry may cost at
#     most 2% of server-log throughput (same-machine paired comparison,
#     so runner noise cannot flip it);
#   - run the paired cancellation-overhead benches in their own invocation
#     with 9 repetitions of at least 3 s each, and GATE each median at 2%;
#   - run the paired single-thread fleet and indexed benches in their own
#     invocation with 9 repetitions, and GATE on each median (≥ 0.97);
#   - run `spanex --metrics=json` on a fleet workload and merge the
#     per-tier time/count breakdown into the output JSON under
#     "spanex_fleet_metrics";
#   - run the spanexd serving benches (bench_server) and GATE on the
#     paired served_ratio: extract_batch served over the AF_UNIX JSONL
#     protocol must keep at least 90% of in-process ExtractMulti
#     throughput (same-iteration comparison, noise-immune). The full run
#     also records open-loop qps and client-observed p50/p99 per client
#     count.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="build"
OUT="BENCH_engine.json"
QUICK=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

BENCH="$BUILD_DIR/bench_engine_throughput"
if [[ ! -x "$BENCH" ]]; then
  echo "== building $BENCH (Release) =="
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        -DSPANNERS_BUILD_BENCHMARKS=ON \
        -DSPANNERS_BUILD_TESTS=OFF -DSPANNERS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_engine_throughput
fi

# The paired gates' benches run in their own invocation below.
PAIRED='FleetSinglePassVsSequential|IndexedExtract_Needle'
ARGS=(--benchmark_out="$OUT" --benchmark_out_format=json)
if [[ "$QUICK" == 1 ]]; then
  ARGS+=(--benchmark_filter='(BatchExtract|(MultiQuery|Sequential)[A-Za-z]*_Fleet).*/1/')
else
  ARGS+=(--benchmark_repetitions=3 --benchmark_report_aggregates_only=true
         --benchmark_filter="-MetricsOverhead|CancelOverhead|$PAIRED")
fi

"$BENCH" "${ARGS[@]}"

# The telemetry bench always runs with 9 repetitions: its overhead gate is
# the median of paired same-iteration measurements (sides alternate which
# runs first). On a 4-vCPU VM a median of 3 swung by more than the 2%
# bound between runs of the same code; a median of 9 stays inside it.
TELEM_OUT="$(mktemp)"
CANCEL_OUT="$(mktemp)"
PAIRED_OUT="$(mktemp)"
METRICS_OUT="$(mktemp)"
SERVER_OUT="$(mktemp)"
trap 'rm -f "$TELEM_OUT" "$CANCEL_OUT" "$PAIRED_OUT" "$METRICS_OUT" "$SERVER_OUT"' EXIT
"$BENCH" --benchmark_filter='MetricsOverhead' \
         --benchmark_min_time=1 --benchmark_repetitions=9 \
         --benchmark_report_aggregates_only=true \
         --benchmark_out="$TELEM_OUT" --benchmark_out_format=json

# The cancellation-overhead gates, in their own invocation with longer
# paired iterations. At 1 s per repetition the fleet bench's median of 9
# read -1.2% to +2.3% over 15 --quick runs of code that does not touch
# it, and 2 of them failed the 2% bound. At 3 s each repetition pairs
# about three times as many iterations, and ten --quick runs read +0.2%
# to +1.8%.
"$BENCH" --benchmark_filter='CancelOverhead' \
         --benchmark_min_time=3 --benchmark_repetitions=9 \
         --benchmark_report_aggregates_only=true \
         --benchmark_out="$CANCEL_OUT" --benchmark_out_format=json

# The paired fleet and indexed gates, also on medians of 9 repetitions.
# A single --quick run timed 2-3 iterations of each and read 0.96-1.12
# (fleet) and 0.96-1.06 (indexed) on unchanged code against their 0.97
# bounds; the indexed ratio sits near 1.03 by construction, because
# evaluating the few matching documents dominates both sides.
PAIRED_FILTER="($PAIRED)"
[[ "$QUICK" == 1 ]] && PAIRED_FILTER="($PAIRED)/1/"
"$BENCH" --benchmark_filter="$PAIRED_FILTER" --benchmark_repetitions=9 \
         --benchmark_report_aggregates_only=true \
         --benchmark_out="$PAIRED_OUT" --benchmark_out_format=json

# Serving benches: the paired served-vs-in-process comparison always runs
# (it carries the 90% gate); the open-loop qps/latency sweep only in the
# full run.
SERVER_BENCH="$BUILD_DIR/bench_server"
if [[ ! -x "$SERVER_BENCH" ]]; then
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_server
fi
SERVER_ARGS=(--benchmark_out="$SERVER_OUT" --benchmark_out_format=json)
if [[ "$QUICK" == 1 ]]; then
  SERVER_ARGS+=(--benchmark_filter='ServedBatch.*/1/')
else
  SERVER_ARGS+=(--benchmark_repetitions=3
                --benchmark_report_aggregates_only=true)
fi
"$SERVER_BENCH" "${SERVER_ARGS[@]}"

# Per-tier breakdown of a real fleet run (spanex writes the JSON report
# to stderr; the TSV mappings go to /dev/null).
SPANEX="$BUILD_DIR/spanex"
if [[ ! -x "$SPANEX" ]]; then
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target spanex
fi
"$SPANEX" --generate fleet:2000:10:16 --metrics=json -j "$(nproc)" \
    > /dev/null 2> "$METRICS_OUT"

echo
echo "== $OUT summary (single-thread batch extraction) =="
python3 - "$OUT" "$TELEM_OUT" "$METRICS_OUT" "$SERVER_OUT" "$PAIRED_OUT" \
    "$CANCEL_OUT" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
telem = json.load(open(sys.argv[2]))
spanex_metrics = json.load(open(sys.argv[3]))
served = json.load(open(sys.argv[4]))
paired = json.load(open(sys.argv[5]))
cancel = json.load(open(sys.argv[6]))

# Merge the telemetry and cancellation benches, the paired gate benches,
# the serving benches and the fleet per-tier breakdown into the tracked
# JSON so one artifact carries the whole picture.
data["benchmarks"].extend(telem["benchmarks"])
data["benchmarks"].extend(cancel["benchmarks"])
data["benchmarks"].extend(paired["benchmarks"])
data["benchmarks"].extend(served["benchmarks"])
tiers = {}
hists = spanex_metrics.get("metrics", {}).get("histograms", {})
for name, h in hists.items():
    if name.startswith("tier.") or name == "engine.doc_ns":
        tiers[name] = {"count": h["count"], "sum_ns": h["sum"],
                       "p99_ns": h["p99"]}
data["spanex_fleet_metrics"] = {
    "workload": "fleet:2000:10:16",
    "wall_ns": spanex_metrics.get("wall_ns", 0),
    "counters": spanex_metrics.get("metrics", {}).get("counters", {}),
    "tiers": tiers,
}
json.dump(data, open(sys.argv[1], "w"), indent=1)

print("fleet per-tier breakdown (spanex --metrics=json):")
wall = data["spanex_fleet_metrics"]["wall_ns"] or 1
for name in sorted(tiers):
    t = tiers[name]
    print(f'  {name}: {t["count"]:,} records, '
          f'{t["sum_ns"] / 1e6:,.1f} ms total '
          f'({100.0 * t["sum_ns"] / wall:.1f}% of wall)')

# Telemetry overhead gate: median of the paired same-iteration
# comparison must stay within 2%.
overhead = None
cancel_overheads = {}
for b in telem["benchmarks"] + cancel["benchmarks"]:
    if "MetricsOverhead" in b["name"] and b["name"].endswith("_median"):
        overhead = b.get("overhead_pct")
    if "CancelOverhead" in b["name"] and b["name"].endswith("_median"):
        cancel_overheads[b["name"]] = b.get("overhead_pct")
if overhead is None:
    sys.exit("FAIL: BM_MetricsOverhead_ServerLog produced no median")
print(f'telemetry overhead (enabled vs disabled, paired median): '
      f'{overhead:+.2f}%')
if overhead > 2.0:
    sys.exit(f"FAIL: telemetry overhead {overhead:.2f}% exceeds the 2% "
             "budget")

# Cancellation-check overhead gate: an armed-but-untripped CancelToken
# (deadline + memory budget polled by every evaluation tier) must cost at
# most 2% on both the server-log and fleet workloads — same paired
# same-iteration methodology as the telemetry gate.
if not cancel_overheads:
    sys.exit("FAIL: BM_CancelOverhead benches produced no medians")
for name, pct in sorted(cancel_overheads.items()):
    workload = "fleet" if "Fleet" in name else "server-log"
    print(f'cancellation-check overhead ({workload}, paired median): '
          f'{pct:+.2f}%')
    if pct > 2.0:
        sys.exit(f"FAIL: cancellation-check overhead {pct:.2f}% on the "
                 f"{workload} workload exceeds the 2% budget")

rate = {}
fleet = {}
indexed = {}
for b in data["benchmarks"]:
    name = b["name"]
    if ("BatchExtract" not in name and "Fleet" not in name
            and "Indexed" not in name) or "/1/" not in name:
        continue
    if "median" in name or b.get("repetitions", 1) in (0, 1):
        print(f'{name}: {b.get("mappings/s", 0):,.0f} mappings/s, '
              f'{b.get("docs/s", 0):,.0f} docs/s, '
              f'{b.get("allocs/doc", 0):,.1f} allocs/doc')
        if "LowSelectivity" in name:
            rate["plain" if "NoGate" in name else "gated"] = b.get("docs/s", 0)
        if "MultiQueryExtract_Fleet" in name:
            fleet["multi"] = b.get("docs/s", 0)
        if "SequentialPlans_Fleet" in name:
            fleet["sequential"] = b.get("docs/s", 0)
        if "FleetSinglePassVsSequential" in name:
            fleet["paired_multi"] = b.get("multi_docs/s", 0)
            fleet["paired_sequential"] = b.get("sequential_docs/s", 0)
            fleet["paired_speedup"] = b.get("speedup", 0)
        if "MultiQueryGate_Fleet" in name:
            fleet["gate_multi"] = b.get("docs/s", 0)
        if "SequentialGate_Fleet" in name:
            fleet["gate_sequential"] = b.get("docs/s", 0)
        if "IndexedExtract_Needle" in name:
            indexed["indexed"] = b.get("indexed_docs/s", 0)
            indexed["scan"] = b.get("scan_docs/s", 0)
            indexed["speedup"] = b.get("speedup", 0)
            indexed["candidate_ratio"] = b.get("candidate_ratio", 1.0)

# Prefilter/lazy-DFA gate check: on the low-selectivity workload the gated
# path must never be slower than running the evaluator on every document.
if "gated" in rate and "plain" in rate:
    speedup = rate["gated"] / rate["plain"] if rate["plain"] else float("inf")
    print(f'low-selectivity gate speedup: {speedup:.1f}x '
          f'({rate["gated"]:,.0f} vs {rate["plain"]:,.0f} docs/s)')
    if rate["gated"] < rate["plain"]:
        sys.exit("FAIL: prefilter-gated throughput regressed below the "
                 "plain path")

# Multi-query gates, both same-run relative comparisons:
#  - the match-free pair isolates the shared corpus scan (what the
#    single-pass tier amortizes) and must win outright — strict;
#  - the 1%-match pair is end-to-end: both sides share the identical
#    (dominant) evaluator cost on matching (plan, doc) pairs, so the
#    structural margin is a few percent. The gate reads the median of 9
#    repetitions and allows 3% before failing.
if "gate_multi" in fleet and "gate_sequential" in fleet:
    speedup = (fleet["gate_multi"] / fleet["gate_sequential"]
               if fleet["gate_sequential"] else float("inf"))
    print(f'fleet shared-scan speedup (match-free): {speedup:.1f}x '
          f'({fleet["gate_multi"]:,.0f} vs '
          f'{fleet["gate_sequential"]:,.0f} docs/s)')
    if fleet["gate_multi"] < fleet["gate_sequential"]:
        sys.exit("FAIL: shared-scan gating fell below sequential "
                 "per-plan scanning")
if "paired_speedup" in fleet:
    print(f'multi-query fleet speedup (1% match, end-to-end, paired): '
          f'{fleet["paired_speedup"]:.2f}x '
          f'({fleet["paired_multi"]:,.0f} vs '
          f'{fleet["paired_sequential"]:,.0f} docs/s)')
    if fleet["paired_speedup"] < 0.97:
        sys.exit("FAIL: single-pass multi-query throughput fell below "
                 "sequential per-plan extraction (paired comparison)")

# Serving gate, same-iteration paired comparison: extract_batch served
# over the spanexd socket must keep ≥ 90% of in-process ExtractMulti
# throughput (the 10% budget covers JSONL framing, the admission queue
# and two socket hops). The open-loop rows are informational trajectory.
served_ratio = None
for b in served["benchmarks"]:
    name = b["name"]
    if "ServedBatch" in name and "/1/" in name:
        if name.endswith("_median") or b.get("repetitions", 1) in (0, 1):
            served_ratio = b.get("served_ratio")
            print(f'served batch (spanexd, 1 thread): '
                  f'{b.get("served_docs/s", 0):,.0f} docs/s served vs '
                  f'{b.get("inproc_docs/s", 0):,.0f} in-process '
                  f'({100.0 * (served_ratio or 0):.1f}%)')
    if "ServerOpenLoop" in name and (name.endswith("_median")
                                     or b.get("repetitions", 1) in (0, 1)):
        print(f'open-loop {int(b.get("clients", 0))} clients: '
              f'{b.get("qps", 0):,.0f} qps, '
              f'p50 {b.get("p50_us", 0):,.0f} µs, '
              f'p99 {b.get("p99_us", 0):,.0f} µs')
if served_ratio is None:
    sys.exit("FAIL: BM_ServedBatch_Fleet/1 produced no served_ratio")
if served_ratio < 0.90:
    sys.exit(f"FAIL: served-batch throughput is {100.0 * served_ratio:.1f}% "
             "of in-process ExtractMulti (budget: >= 90%)")

# Indexed-extraction gate, same-run paired comparison: on the needle
# corpus (1% selectivity) posting-list gating over the mmap'd segment
# must not fall below the full in-memory scan. Evaluating the matching
# documents dominates both sides, so the ratio sits near 1.03; like the
# fleet gate, it reads the median of 9 repetitions and allows 3%.
if "speedup" in indexed:
    print(f'indexed-vs-scan speedup (needle, paired): '
          f'{indexed["speedup"]:.2f}x '
          f'({indexed["indexed"]:,.0f} vs {indexed["scan"]:,.0f} docs/s, '
          f'{100.0 * indexed["candidate_ratio"]:.1f}% candidates)')
    if indexed["speedup"] < 0.97:
        sys.exit("FAIL: indexed extraction fell below the full scan "
                 "(paired comparison)")
EOF
