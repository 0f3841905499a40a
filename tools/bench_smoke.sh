#!/usr/bin/env bash
# Bench-regression smoke: runs the coloring, engine, and soak micro suites
# in Release mode and writes google-benchmark JSON to BENCH_coloring.json,
# BENCH_sim.json, and BENCH_soak.json at the repo root.
#
#   tools/bench_smoke.sh                 # default build dir build-bench
#   tools/bench_smoke.sh build           # reuse an existing build dir
#   FDLSP_BENCH_MIN_TIME=0.05 tools/bench_smoke.sh   # faster smoke (CI)
#   FDLSP_BENCH_SCALE=full tools/bench_smoke.sh      # n=10^6 shard curve
#
# FDLSP_BENCH_SCALE selects the BM_DistMisUdgSharded scale rows that
# micro_engines registers at startup (bench/micro_engines.cpp): the default
# "1" is a capped smoke — n=10^5 at 1 vs 2 shards, one iteration — sized so
# `tools/ci.sh bench` stays in CI budget while still feeding the sharded
# rows into BENCH_sim.json for bench-compare. "full" swaps in the n=10^6
# curve at 1/2/4/8 shards (the EXPERIMENTS.md "Shard scaling" table); that
# scale runs for tens of minutes and is meant for manual reruns on a
# multi-core box, not CI. Each scale row runs in a process of its own and
# is merged into BENCH_sim.json after the rest of the suite, so its
# peak_rss_mb (getrusage's process-wide high-water mark) is that row's own
# peak, not the largest of every row run before it.
#
# The committed JSON files are the regression references for later PRs:
# BENCH_coloring.json documents the ConflictIndex speedup; BENCH_sim.json
# documents the zero-alloc message path and sharded-round throughput
# (payload-size sweep, shard sweep, DistMIS-on-UDG wall times);
# BENCH_soak.json documents the churn pipeline (repair-latency percentiles,
# slots churned per event, incremental-index patch vs fresh rebuild).
# Compare a fresh run against them with `tools/ci.sh bench-compare` before
# merging perf changes.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build-bench}"
min_time="${FDLSP_BENCH_MIN_TIME:-0.1}"
export FDLSP_BENCH_SCALE="${FDLSP_BENCH_SCALE:-1}"

cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j --target micro_coloring micro_engines \
  micro_soak

"./${build_dir}/bench/micro_coloring" \
  --benchmark_min_time="${min_time}" \
  --benchmark_out=BENCH_coloring.json \
  --benchmark_out_format=json \
  --benchmark_format=console

engines="./${build_dir}/bench/micro_engines"
rows_dir="$(mktemp -d)"
trap 'rm -rf "${rows_dir}"' EXIT
"${engines}" \
  --benchmark_filter=-BM_DistMisUdgSharded \
  --benchmark_min_time="${min_time}" \
  --benchmark_out="${rows_dir}/suite.json" \
  --benchmark_out_format=json \
  --benchmark_format=console
row_index=0
while IFS= read -r row; do
  row_index=$((row_index + 1))
  "${engines}" \
    --benchmark_filter="^${row}\$" \
    --benchmark_out="${rows_dir}/row${row_index}.json" \
    --benchmark_out_format=json \
    --benchmark_format=console < /dev/null
done < <("${engines}" --benchmark_list_tests=true \
  --benchmark_filter=BM_DistMisUdgSharded)
python3 - "${rows_dir}" "${row_index}" BENCH_sim.json <<'PY'
import json, sys
rows_dir, rows, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(f"{rows_dir}/suite.json") as f:
    merged = json.load(f)
for i in range(1, rows + 1):
    with open(f"{rows_dir}/row{i}.json") as f:
        merged["benchmarks"] += json.load(f)["benchmarks"]
with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY

"./${build_dir}/bench/micro_soak" \
  --benchmark_min_time="${min_time}" \
  --benchmark_out=BENCH_soak.json \
  --benchmark_out_format=json \
  --benchmark_format=console

echo "=== bench_smoke.sh: wrote BENCH_coloring.json BENCH_sim.json" \
  "BENCH_soak.json ==="
