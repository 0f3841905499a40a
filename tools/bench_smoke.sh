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
# multi-core box, not CI.
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

"./${build_dir}/bench/micro_engines" \
  --benchmark_min_time="${min_time}" \
  --benchmark_out=BENCH_sim.json \
  --benchmark_out_format=json \
  --benchmark_format=console

"./${build_dir}/bench/micro_soak" \
  --benchmark_min_time="${min_time}" \
  --benchmark_out=BENCH_soak.json \
  --benchmark_out_format=json \
  --benchmark_format=console

echo "=== bench_smoke.sh: wrote BENCH_coloring.json BENCH_sim.json" \
  "BENCH_soak.json ==="
