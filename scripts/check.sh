#!/usr/bin/env bash
# Tier-1 verification + SRGEMM bench smoke — the gate every PR must pass.
#
#   scripts/check.sh [build-dir]
#   scripts/check.sh --san address|thread|undefined [build-dir]
#   scripts/check.sh --faults [build-dir]
#   scripts/check.sh --bench [build-dir]
#   scripts/check.sh --tune [build-dir]
#   scripts/check.sh --paths [build-dir]
#   scripts/check.sh --serve [build-dir]
#   scripts/check.sh --monitor [build-dir]
#
# 1. Configure + build (Release, all warnings).
# 2. Run the full ctest suite. It includes both passes of the caller lint
#    (scripts/have_callers.py): lint.headers_have_callers (every src/
#    header is included by src/, tools/, examples/ or perfbench/ code) and
#    lint.functions_have_callers (every namespace-scope src/ header
#    function outside `detail` is named by src/, tools/, examples/,
#    perfbench/ or bench/ code), plus the lint's fixture self-test.
# 3. Run a ~2 s SRGEMM micro-bench smoke so kernel-dispatch regressions
#    (e.g. SIMD silently falling back to scalar) show up as a number, not
#    just as green tests.
#
# --san builds a separate instrumented tree (-DPARFW_SAN=<san>) and runs
# the concurrency-heavy suites under it — mpisim ranks are real OS
# threads, so `--san thread` is the data-race gate for the runtime and
# the trace sinks, the run monitor, and for the blocked solver's
# self-scheduled rounds and the thread pool they run on; `--san
# undefined` also covers the tune-manifest, serve-manifest and
# checkpoint-blob readers' hostile inputs. Every --san run also takes the
# pred-kernel suite (SrgemmPred.*): the argmin kernel reads predB at a
# lane-computed row, so a wrong t index is an out-of-bounds read.
#
# --faults is the resilience gate: the fault-injection matrix and the
# crash-restart suites under AddressSanitizer, so recovery paths
# (retransmission, world abort/unwind, checkpoint replay) are exercised
# with full leak/overflow checking.
#
# --bench is the perf-regression gate: it reruns the SRGEMM micro-bench
# and the (deterministic) Figure 7 DES sweep and diffs both against the
# committed baselines (BENCH_srgemm.json / BENCH_dist.json) with
# scripts/bench_compare.py, failing on a >15% throughput regression. It
# also runs trace_dump --mode metrics on every variant, which prints the
# measured-vs-modelled phase breakdown (perf::reconcile_run), asserts
# that wire bytes and compute phases equal the DES prediction exactly,
# and leaves metric snapshots (JSON + Prometheus) under <build>/metrics/
# for CI artifacts.
#
# --bench also runs the causal trace-analysis smoke: it captures a real
# mpisim trace, validates it (trace_dump --mode check), extracts the
# critical path + blame report with trace_analyze, checks the blame
# shares against the committed bands (BENCH_cp_band.json — tight on the
# deterministic DES reference, loose sanity on the noisy real run), keeps
# the real run's critical-path graph (critical_path.dot), and diffs the
# DES cp/* shares two-sidedly against BENCH_cp.json so attribution drift
# fails the gate in either direction.
#
# --bench additionally runs the full schedule autotuner on the reference
# workload (bench_tune) and diffs the tune/* rows against BENCH_tune.json
# twice: two-sided on the stall SHARES (the winner's attribution must not
# drift) and one-sided on real_time (the tuned makespan must not regress).
#
# --tune is the autotuner smoke: a tiny-n search through the sched_tune
# CLI with a manifest round-trip (fresh search persists the winner, the
# re-run must answer from the manifest) plus the real-runtime cross-check
# (--validate: wire bytes and compute phases equal the DES exactly), and
# an apsp --variant auto end-to-end run that
# must be bit-identical to explicitly running the winning schedule.
#
# --paths is the path-tracking gate: the witness-oracle suites, bench_paths
# (argmin-SIMD kernel vs the scalar oracle, the end-to-end paths overhead
# of a distributed solve, single-node paths solves next to their
# values-only twins) diffed against BENCH_paths.json, the >= 5x
# fused-kernel speedup, the pred/values outer-shape ratio floor and the
# single-node paths/values time ratios enforced from the fresh JSON, and
# apsp --paths end-to-end runs (distributed 2x2, then single-node on the
# pool) that must answer a path query with the same path, plus a max-min
# path query whose printed path must not repeat a vertex.
#
# --serve is the serving-tier gate (DESIGN.md §4.12-4.13): the
# test_serve and test_cli suites, bench_serve diffed against
# BENCH_serve.json three times (one-sided loose on the wall-clock
# p50/p99 latency rows, two-sided tight on the deterministic hit-rate
# rows, two-sided on the per-stage latency-attribution shares), and an
# apsp CLI round trip — solve + --publish answering repeated --query
# flags, then --serve answering the same batch from the manifest with
# byte-identical stdout while ALSO capturing a per-query Chrome trace
# and an SLO report; trace_analyze --mode serve must reassemble that
# trace into gapless span trees. Plus the values-only negative: a
# manifest published without --paths must hard-error on a path query and
# still serve distances.
#
# --monitor is the observability gate (DESIGN.md §4.14): the monitor and
# CLI suites, bench_monitor's flight-recorder overhead gated under the
# ABSOLUTE 3% always-on budget (bench_compare.py --ceiling — the relative
# diff vs BENCH_monitor.json is deliberately loose, ns-scale record costs
# drift with the machine), and the acceptance smoke: an apsp run with an
# injected straggler under --monitor + --flight-recorder must emit live
# progress/ETA lines on stderr, fire exactly ONE incident dump blaming
# the slow rank, keep stdout byte-identical to the unmonitored run, and
# produce an incident report that trace_analyze --incidents loads and
# re-analyzes cleanly.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

san=""
faults=0
bench=0
tune=0
paths=0
serve=0
monitor=0
if [[ "${1:-}" == "--faults" ]]; then
  faults=1
  shift
elif [[ "${1:-}" == "--bench" ]]; then
  bench=1
  shift
elif [[ "${1:-}" == "--tune" ]]; then
  tune=1
  shift
elif [[ "${1:-}" == "--paths" ]]; then
  paths=1
  shift
elif [[ "${1:-}" == "--serve" ]]; then
  serve=1
  shift
elif [[ "${1:-}" == "--monitor" ]]; then
  monitor=1
  shift
elif [[ "${1:-}" == "--san" ]]; then
  san="${2:?usage: check.sh --san address|thread|undefined [build-dir]}"
  shift 2
fi

if [[ "$bench" == 1 ]]; then
  build_dir="${1:-$repo_root/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" \
    --target bench_srgemm_micro bench_fig7_64node_perf \
             trace_dump_cli trace_analyze_cli
  out_dir="$build_dir/metrics"
  mkdir -p "$out_dir"

  echo "== SRGEMM micro-bench vs BENCH_srgemm.json =="
  "$build_dir/bench/bench_srgemm_micro" \
    --benchmark_min_time=0.1 \
    --benchmark_out="$out_dir/srgemm_fresh.json" \
    --benchmark_out_format=json
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_srgemm.json" "$out_dir/srgemm_fresh.json"

  echo "== Figure 7 DES sweep vs BENCH_dist.json =="
  PARFW_BENCH_JSON="$out_dir/dist_fresh.json" \
    "$build_dir/bench/bench_fig7_64node_perf" > /dev/null
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_dist.json" "$out_dir/dist_fresh.json"

  echo "== reconciliation + metric snapshots =="
  for v in baseline pipelined async offload; do
    "$build_dir/tools/trace_dump" --mode metrics --variant "$v" \
      --metrics-json "$out_dir/metrics_$v.json" \
      --metrics-prom "$out_dir/metrics_$v.prom"
  done

  echo "== causal trace-analysis smoke =="
  # Real run: capture -> validate -> blame, against the loose sanity band.
  "$build_dir/tools/trace_dump" --mode real --variant async \
    --pr 2 --pc 2 --n 256 --block 32 --out "$out_dir/real_trace.json"
  "$build_dir/tools/trace_dump" --mode check --in "$out_dir/real_trace.json"
  "$build_dir/tools/trace_analyze" --trace "$out_dir/real_trace.json" \
    --critical-path --blame \
    --band-file "$repo_root/BENCH_cp_band.json" --band-set real \
    --metrics-json "$out_dir/cp_real_metrics.json" \
    --dot "$out_dir/critical_path.dot" \
    | tee "$out_dir/blame_real.txt"
  # Deterministic DES reference: exact critical-path == makespan check is
  # built into trace_analyze --des --critical-path; the shares must stay
  # inside the tight band AND within 5% (two-sided) of BENCH_cp.json.
  "$build_dir/tools/trace_analyze" --des --variant async --nodes 4 \
    --n 49152 --block 768 --critical-path --blame --what-if comm=2 \
    --band-file "$repo_root/BENCH_cp_band.json" --band-set des \
    --bench-json "$out_dir/cp_fresh.json" \
    --metrics-json "$out_dir/cp_des_metrics.json" \
    | tee "$out_dir/blame_des.txt"
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_cp.json" "$out_dir/cp_fresh.json" \
    --metric share --two-sided --tolerance 0.05

  echo "== schedule autotuner vs BENCH_tune.json =="
  cmake --build "$build_dir" -j"$(nproc)" --target bench_tune
  PARFW_BENCH_JSON="$out_dir/tune_fresh.json" \
    "$build_dir/bench/bench_tune" | tee "$out_dir/tune_report.txt"
  # Two-sided on the stall shares: the winner's attribution must not
  # drift. One-sided on real_time: the tuned makespan must not regress.
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_tune.json" "$out_dir/tune_fresh.json" \
    --metric share --two-sided --tolerance 0.05
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_tune.json" "$out_dir/tune_fresh.json" \
    --tolerance 0.05

  echo "check.sh --bench: OK (snapshots in $out_dir)"
  exit 0
fi

if [[ "$tune" == 1 ]]; then
  build_dir="${1:-$repo_root/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" --target sched_tune_cli apsp_cli
  out_dir="$build_dir/tune-smoke"
  mkdir -p "$out_dir"
  rm -f "$out_dir/manifest.json"

  echo "== tiny-n tuner + manifest round-trip + real-run validation =="
  "$build_dir/tools/sched_tune" --n 256 --ranks 4 --rpn 2 \
    --manifest "$out_dir/manifest.json" --validate
  # Re-run: must answer from the manifest, not search again.
  "$build_dir/tools/sched_tune" --n 256 --ranks 4 --rpn 2 \
    --manifest "$out_dir/manifest.json" | grep -q "manifest hit" \
    || { echo "manifest round-trip failed: no hit on re-run"; exit 1; }

  echo "== apsp --variant auto: bit-identical to the explicit winner =="
  rm -f "$out_dir/cache.json"
  PARFW_TUNE_CACHE="$out_dir/cache.json" \
    "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm dist --dist 2x2 --rpn 2 --variant auto \
    --output "$out_dir/auto.txt"
  win_args=$(python3 - "$out_dir/cache.json" <<'EOF'
import json, sys
e = json.load(open(sys.argv[1]))["entries"][0]
# --dist PRxPC only expresses naive placements; on this workload the
# winner is naive (deterministic search). Fail loudly if that shifts.
assert not e["tiled"], "winner went tiled; express it via the tune API test"
grid = f"{e['pr']}x{e['pc']}"
print(f"--variant {e['variant']} --dist {grid} --block {e['block']}")
EOF
)
  # shellcheck disable=SC2086
  "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm dist --rpn 2 $win_args --output "$out_dir/explicit.txt"
  cmp "$out_dir/auto.txt" "$out_dir/explicit.txt" \
    || { echo "auto result differs from the explicit winner"; exit 1; }

  echo "check.sh --tune: OK"
  exit 0
fi

if [[ "$paths" == 1 ]]; then
  build_dir="${1:-$repo_root/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" \
    --target bench_paths apsp_cli test_core test_dist test_resilience
  out_dir="$build_dir/paths-smoke"
  mkdir -p "$out_dir"

  echo "== paths bit-identity + crash-restart suites =="
  "$build_dir/tests/test_core" --gtest_filter='Witness.*:*BlockedFwPaths*'
  "$build_dir/tests/test_dist" --gtest_filter='*DistPaths*'
  "$build_dir/tests/test_resilience" \
    --gtest_filter='*CrashRestartPaths*:CheckpointFormat.PredPayload*'

  echo "== paths bench vs BENCH_paths.json =="
  "$build_dir/bench/bench_paths" \
    --benchmark_min_time=0.5 \
    --benchmark_out="$out_dir/paths_fresh.json" \
    --benchmark_out_format=json
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_paths.json" "$out_dir/paths_fresh.json"

  echo "== argmin-SIMD kernel speedup acceptance (>= 5x scalar, n=512) =="
  python3 - "$out_dir/paths_fresh.json" <<'EOF'
import json, sys
rows = {b["name"]: b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"}
ratio = rows["BM_PredFused/512"]["GFLOP/s"] / rows["BM_PredScalar/512"]["GFLOP/s"]
print(f"fused/scalar argmin speedup at n=512: {ratio:.1f}x")
assert ratio >= 5.0, f"argmin SIMD kernel below 5x scalar ({ratio:.2f}x)"
EOF

  echo "== argmin kernel vs values kernel at the 2x2 outer shape (ratio) =="
  # Both rows run in one process, so host load mostly cancels out of the
  # ratio. The argmin kernel read 0.42-0.58 over seven runs, the
  # row-buffered sweep 0.15; the floor catches the outer product falling
  # back to the sweep.
  python3 - "$out_dir/paths_fresh.json" <<'EOF'
import json, sys
rows = {b["name"]: b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"}
ratio = rows["BM_PredOuter"]["GFLOP/s"] / rows["BM_ValueOuter"]["GFLOP/s"]
print(f"pred/values outer-shape rate ratio: {ratio:.2f}")
assert ratio >= 0.30, f"argmin outer rate below 0.30 of values ({ratio:.2f})"
EOF

  echo "== single-node paths/values time ratios (values solve + witness) =="
  # Twins in one process, so host load mostly cancels out of the ratio;
  # each pair shares a flop count, so the rate ratio is the time ratio.
  # Seven runs read 1.08-1.49 (ER n=3072, scan) and 2.69-3.38 (dense
  # n=1024, product); the fused pred kernel this replaced read ~3.3 and
  # ~4.7 on the same inputs.
  python3 - "$out_dir/paths_fresh.json" <<'EOF'
import json, sys
rows = {b["name"]: b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"}
def rate(prefix):
    return next(r["GFLOP/s"] for n, r in rows.items()
                if n.startswith(prefix + "/"))
for paths, values, bound in (
        ("BM_ApspPathsParallel", "BM_ApspValuesParallel", 1.8),
        ("BM_ApspPathsParallelDense", "BM_ApspValuesParallelDense",
         4.0)):
    ratio = rate(values) / rate(paths)
    print(f"{paths}: paths/values time {ratio:.2f} (bound {bound})")
    assert ratio <= bound, f"{paths} over {bound}x its values twin ({ratio:.2f})"
EOF

  echo "== apsp --paths end-to-end (distributed, path query) =="
  "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm dist --dist 2x2 --rpn 2 --block 48 --paths --query 0,199 \
    | tee "$out_dir/paths_query.txt"
  grep -q "^path:" "$out_dir/paths_query.txt" \
    || { echo "apsp --paths did not print a path"; exit 1; }

  echo "== apsp --paths end-to-end (single node, pool) =="
  # Bit-identical pred matrices imply the same path as the 2x2 run.
  "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm parallel --block 48 --paths --query 0,199 \
    | tee "$out_dir/paths_query_1node.txt"
  [[ "$(grep '^path:' "$out_dir/paths_query_1node.txt")" == \
     "$(grep '^path:' "$out_dir/paths_query.txt")" ]] \
    || { echo "single-node and 2x2 --paths runs print different paths"; exit 1; }

  echo "== apsp --semiring maxmin --paths (ties: the printed path is simple) =="
  "$build_dir/tools/apsp" --gen er --n 240 --p 0.05 --seed 7 \
    --algorithm parallel --block 48 --semiring maxmin --paths --query 0,199 \
    | tee "$out_dir/paths_maxmin.txt"
  python3 - "$out_dir/paths_maxmin.txt" <<'EOF'
import sys
path = [l.split()[1:] for l in open(sys.argv[1]) if l.startswith("path:")]
assert path and len(path[0]) >= 2, "max-min run printed no path"
assert len(set(path[0])) == len(path[0]), f"repeated vertex in {path[0]}"
print(f"max-min path of {len(path[0])} vertices, none repeated")
EOF

  echo "== apsp --paths --variant auto (paths runs tune the values schedule) =="
  rm -f "$out_dir/cache.json"
  PARFW_TUNE_CACHE="$out_dir/cache.json" \
    "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm dist --dist 2x2 --rpn 2 --variant auto --paths \
    --query 0,199 | tee "$out_dir/paths_auto.txt"
  grep -q "^path:" "$out_dir/paths_auto.txt" \
    || { echo "apsp --paths --variant auto did not print a path"; exit 1; }
  python3 - "$out_dir/cache.json" <<'EOF'
import json, sys
entries = json.load(open(sys.argv[1]))["entries"]
assert len(entries) == 1 and "track_paths" not in entries[0], \
    f"want one values-schedule entry for the paths run, got {entries}"
EOF

  echo "check.sh --paths: OK"
  exit 0
fi

if [[ "$serve" == 1 ]]; then
  build_dir="${1:-$repo_root/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" \
    --target test_serve test_cli bench_serve apsp_cli trace_analyze_cli
  out_dir="$build_dir/serve-smoke"
  mkdir -p "$out_dir"

  echo "== serving-tier + query-API suites =="
  "$build_dir/tests/test_serve"
  "$build_dir/tests/test_cli"

  echo "== serve bench vs BENCH_serve.json =="
  PARFW_BENCH_JSON="$out_dir/serve_fresh.json" \
    "$build_dir/bench/bench_serve" | tee "$out_dir/serve_report.txt"
  # One-sided loose on the latency rows: p50/p99 are wall-clock on shared
  # CI hardware, only a gross regression should fail. Two-sided tight on
  # the hit rates: cache decisions are deterministic under the fixed
  # workload seed, so any drift is a policy change, not noise.
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_serve.json" "$out_dir/serve_fresh.json" \
    --tolerance 0.50
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_serve.json" "$out_dir/serve_fresh.json" \
    --metric hit_rate --two-sided --tolerance 0.02
  # Per-stage latency attribution shares (DESIGN.md §4.13): two-sided —
  # a stage silently swallowing (or shedding) most of the query window is
  # an accounting bug even when the wall clock looks fine. Loose band:
  # the io/walk balance moves with the machine's disk-vs-CPU ratio.
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_serve.json" "$out_dir/serve_fresh.json" \
    --metric share --two-sided --tolerance 0.75

  echo "== apsp solve + publish -> serve round trip (CLI) =="
  rm -rf "$out_dir/manifest" "$out_dir/manifest_values"
  "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm dist --dist 2x2 --rpn 2 --block 48 --paths \
    --publish "$out_dir/manifest" \
    --query 0,199 --query 17,42 --query 199,0 \
    > "$out_dir/solve_answers.txt"
  [[ "$(grep -c '^dist(' "$out_dir/solve_answers.txt")" == 3 ]] \
    || { echo "repeated --query flags did not all get answered"; exit 1; }
  # The observability flags must not perturb stdout: the byte-identical
  # comparison below runs WITH tracing + SLO monitoring enabled.
  "$build_dir/tools/apsp" --serve "$out_dir/manifest" --paths --cache-mb 1 \
    --query 0,199 --query 17,42 --query 199,0 \
    --serve-trace "$out_dir/serve_trace.json" --slo-p99-ms 50 --slow-log 5 \
    > "$out_dir/serve_answers.txt" 2> "$out_dir/serve_stderr.txt"
  cmp "$out_dir/solve_answers.txt" "$out_dir/serve_answers.txt" \
    || { echo "served answers differ from the in-memory solve"; exit 1; }
  grep -q "SLO:" "$out_dir/serve_stderr.txt" \
    || { echo "--slo-p99-ms produced no SLO report"; exit 1; }
  grep -q "serve.cache.hits" "$out_dir/serve_stderr.txt" \
    || { echo "serve cache stats missing from the telemetry table"; exit 1; }

  echo "== trace_analyze --mode serve on the captured query trace =="
  "$build_dir/tools/trace_analyze" --trace "$out_dir/serve_trace.json" \
    --mode serve | tee "$out_dir/serve_trace_report.txt"
  grep -q "serve trace: 3 queries" "$out_dir/serve_trace_report.txt" \
    || { echo "serve trace did not reassemble into 3 query span trees"; \
         exit 1; }

  echo "== values-only manifest: path queries must hard-error =="
  "$build_dir/tools/apsp" --gen er --n 240 --p 0.2 --seed 7 \
    --algorithm dist --dist 2x2 --rpn 2 --block 48 \
    --publish "$out_dir/manifest_values" > /dev/null
  if "$build_dir/tools/apsp" --serve "$out_dir/manifest_values" --paths \
      --query 0,199 > /dev/null 2> "$out_dir/values_only_err.txt"; then
    echo "path query against a values-only manifest did not fail"
    exit 1
  fi
  grep -q "values-only manifest" "$out_dir/values_only_err.txt" \
    || { echo "values-only failure lacks the diagnostic"; exit 1; }
  "$build_dir/tools/apsp" --serve "$out_dir/manifest_values" --query 0,199 \
    | grep -q "^dist(0, 199)" \
    || { echo "distance-only serve from a values-only manifest failed"; \
         exit 1; }

  echo "check.sh --serve: OK"
  exit 0
fi

if [[ "$monitor" == 1 ]]; then
  build_dir="${1:-$repo_root/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" \
    --target test_monitor test_cli bench_monitor apsp_cli trace_analyze_cli
  out_dir="$build_dir/monitor-smoke"
  mkdir -p "$out_dir"

  echo "== monitor + CLI suites =="
  "$build_dir/tests/test_monitor"
  "$build_dir/tests/test_cli"

  echo "== flight-recorder overhead vs the 3% always-on budget =="
  PARFW_BENCH_JSON="$out_dir/monitor_fresh.json" \
    "$build_dir/bench/bench_monitor" | tee "$out_dir/monitor_report.txt"
  # The ceiling is the gate; the relative tolerance is loose on purpose
  # (the ns-scale record cost moves with the CI machine).
  python3 "$repo_root/scripts/bench_compare.py" \
    "$repo_root/BENCH_monitor.json" "$out_dir/monitor_fresh.json" \
    --metric overhead --tolerance 10 --ceiling 0.03

  echo "== live monitor smoke: injected straggler -> one blamed incident =="
  rm -f "$out_dir"/fr.json*
  apsp_args=(--gen er --n 240 --p 0.2 --seed 7 --algorithm dist \
             --dist 2x2 --rpn 2 --block 48 --query 0,199)
  # Reference stdout: same workload and injected fault, no monitoring.
  PARFW_SLOW_RANK=3 PARFW_SLOW_OP_MS=150 \
    "$build_dir/tools/apsp" "${apsp_args[@]}" > "$out_dir/plain_stdout.txt"
  PARFW_SLOW_RANK=3 PARFW_SLOW_OP_MS=150 \
    "$build_dir/tools/apsp" "${apsp_args[@]}" --monitor=0.01 \
    --flight-recorder "$out_dir/fr.json" \
    > "$out_dir/mon_stdout.txt" 2> "$out_dir/mon_stderr.txt"
  grep -q '^\[monitor\].*eta' "$out_dir/mon_stderr.txt" \
    || { echo "--monitor produced no live progress/ETA line"; exit 1; }
  cmp "$out_dir/plain_stdout.txt" "$out_dir/mon_stdout.txt" \
    || { echo "--monitor perturbed stdout"; exit 1; }
  [[ -s "$out_dir/fr.json" ]] \
    || { echo "--flight-recorder wrote no trace"; exit 1; }
  [[ "$(grep -c . "$out_dir/fr.json.incidents.jsonl")" == 1 ]] \
    || { echo "straggler run did not fire exactly one incident"; exit 1; }
  grep -q '"blamed_rank":3' "$out_dir/fr.json.incidents.jsonl" \
    || { echo "incident does not blame the injected slow rank 3"; exit 1; }

  echo "== trace_analyze --incidents on the dump =="
  "$build_dir/tools/trace_analyze" \
    --incidents "$out_dir/fr.json.incidents.jsonl" \
    | tee "$out_dir/incident_report.txt"

  echo "check.sh --monitor: OK"
  exit 0
fi

if [[ "$faults" == 1 ]]; then
  build_dir="${1:-$repo_root/build-faults}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARFW_SAN=address -DPARFW_BUILD_BENCH=OFF -DPARFW_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j"$(nproc)" \
    --target test_mpisim_stress test_resilience
  "$build_dir/tests/test_mpisim_stress" --gtest_filter='FaultMatrix.*'
  "$build_dir/tests/test_resilience"
  echo "check.sh --faults: OK"
  exit 0
fi

if [[ -n "$san" ]]; then
  build_dir="${1:-$repo_root/build-san-$san}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARFW_SAN="$san" -DPARFW_BUILD_BENCH=OFF -DPARFW_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j"$(nproc)" \
    --target test_mpisim_stress test_mpisim test_sched test_telemetry \
    test_core test_core_ext test_util test_monitor test_tune test_serve \
    test_resilience test_srgemm
  "$build_dir/tests/test_mpisim_stress"
  "$build_dir/tests/test_mpisim"
  "$build_dir/tests/test_sched"
  "$build_dir/tests/test_telemetry"
  # The run monitor's on_schedule/record path under real rank threads.
  "$build_dir/tests/test_monitor"
  # The tune-manifest reader on hostile documents.
  "$build_dir/tests/test_tune" --gtest_filter='Manifest.*'
  # The serve manifest reader on hostile stores (counts it must not trust).
  "$build_dir/tests/test_serve" --gtest_filter='ServeManifest.*'
  # The checkpoint-v3 codec on hostile headers, every truncation and a
  # flipped byte anywhere in a blob; the file store's shared descriptor
  # cache under concurrent readers and writers.
  "$build_dir/tests/test_resilience" \
    --gtest_filter='CheckpointFormat.*:CheckpointStore.*'
  # The blocked solver's look-ahead: pivot(k+1) writes panels while other
  # workers still run round k's tiles; the witness pass's rows on the pool.
  "$build_dir/tests/test_core" --gtest_filter='*BlockedFw*:Witness.*'
  "$build_dir/tests/test_core_ext" --gtest_filter='Checkpoint.Resume*'
  "$build_dir/tests/test_util" --gtest_filter='ThreadPool*'
  # The argmin kernel's pred gather reads predB at a lane-computed row: a
  # wrong t index is an out-of-bounds read. The values kernels' fringe
  # and edge paths on small tiles and strided views, likewise.
  "$build_dir/tests/test_srgemm" --gtest_filter='SrgemmPred.*:SrgemmKernels.*'
  echo "check.sh --san $san: OK"
  exit 0
fi

build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)"

ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)"

echo "== SRGEMM bench smoke (scalar tiled vs SIMD, n=512) =="
# Unsuffixed min_time: the "0.2s" form is rejected by google-benchmark
# < 1.8 (deprecation warning on newer versions, which still accept it).
"$build_dir/bench/bench_srgemm_micro" \
  --benchmark_filter='BM_Srgemm(TiledScalar|Simd)/512$' \
  --benchmark_min_time=0.2

echo "check.sh: OK"
