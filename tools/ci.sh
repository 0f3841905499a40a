#!/usr/bin/env bash
# CI driver: tier-1 suite, sanitizer jobs over the property-test gate, and
# the static-analysis jobs (fdlsp-lint, clang-tidy).
#
#   tools/ci.sh            # tier-1 (full suite, RelWithDebInfo)
#   tools/ci.sh asan       # ASan+UBSan build, proptest-labeled suite plus
#                          # the zero-alloc and repair suites
#   tools/ci.sh tsan       # TSan build, same selection
#   tools/ci.sh faults     # fault-injection gate: faulttest-labeled suite,
#                          # plain and under ASan+UBSan
#   tools/ci.sh soak       # continuous-operation gate: soaktest-labeled
#                          # suite, plain (full streams) and under
#                          # ASan+UBSan (capped via FDLSP_SOAK_EVENTS),
#                          # each followed by a serial-vs-sharded soak
#                          # replay smoke
#   tools/ci.sh lint       # fdlsp-lint over src/ (determinism/isolation)
#   tools/ci.sh tidy       # clang-tidy (skipped when not installed)
#   tools/ci.sh bench      # Release build + micro suites (capped min-time;
#                          # writes BENCH_coloring.json, BENCH_sim.json)
#   tools/ci.sh bench-compare  # fresh bench run diffed against the
#                          # committed baselines with a tolerance band
#   tools/ci.sh all        # every job in sequence
#
# The proptest label selects the fdlsp_verify-based fuzzing suites — the
# regression gate every perf/refactor PR must keep green (see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-tier1}"

run_tier1() {
  echo "=== tier-1: build + full test suite ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"
}

run_sanitizer() {  # $1 = preset name (asan-ubsan | tsan)
  local preset="$1"
  echo "=== ${preset}: build + proptest suite ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j
  ctest --test-dir "build-${preset}" -L proptest --output-on-failure \
    -j "$(nproc)"
  # The zero-alloc gate also runs under the sanitizer build: the counting
  # operator new hooks are compiled out there (support/alloc_audit.h), so
  # this verifies the GTEST_SKIP seam and keeps the fixture itself
  # sanitizer-clean. The repair suites run here too: the sanitizer presets
  # are Debug builds, the only ones where FDLSP_ASSERT's range checks on
  # old-graph lookups are live. So does sync_engine_test: its sleeping-node
  # cases drive the engine's wake bitmap and calendar serially and sharded,
  # with live asserts and under TSan. And dist_mis_test and
  # dfs_schedule_test: their pinned sweeps run DistMIS (serially, at 4
  # shards and asynchronously) and DFS with the range asserts over the
  # learned-color regions live; dist_repair_test's pin does the same for
  # repair. async_engine_test drives the asynchronous post path (per-channel
  # FIFO, the non-neighbor rejection, determinism) with its asserts live.
  # dmgc_test's pin runs D-MGC's class orientation with the range asserts
  # over its owner and partner arrays live, and coloring_test runs the
  # unindexed checker's node sweep with the asserts over its marks live.
  ctest --test-dir "build-${preset}" \
    -R '^(engine_alloc_test|repair_test|dist_repair_test|sync_engine_test|dist_mis_test|dfs_schedule_test|async_engine_test|dmgc_test|coloring_test)$' \
    --output-on-failure
}

# Replay smoke for the fault gate; $1 = the replay binary. Pins the burst
# --faults= grammar and the oracle CLI path end to end on both reliable
# wrappers (distMIS: synchronous, DFS: asynchronous), drives the async
# detector through suspect -> probe -> re-trust under a whole-graph region
# outage, runs a soak whose every distributed repair is hardened by the
# synchronous wrapper under bursty loss, requires unhardened DistMIS, DFS
# and randomized under corruption to reach a fault-quiescence verdict
# instead of aborting (exit status 2), requires the same of a soak of
# unhardened distributed repairs under corruption, and checks that a
# retired flag, and flags the run would ignore (--shards without --faults,
# and --shards on DFS, whose asynchronous engine does not shard), are
# rejected, not ignored.
replay_smoke() {
  local replay="$1"
  local burst_smoke=(--family=grid --n=12 --density=0.5 --seed=5
    --faults=drop=0.05,bp=0.2,bq=0.25,bloss=0.9,regions=1)
  "${replay}" "${burst_smoke[@]}" --scheduler=distMIS
  "${replay}" "${burst_smoke[@]}" --scheduler=DFS
  "${replay}" --family=ring --n=6 --seed=1 --scheduler=DFS \
    --faults=cap=1,regions=1,regionr=2,regionh=2.5,regiond=60
  local hardened_soak
  hardened_soak="$("${replay}" --soak=seed=3,n=60,events=60 \
    --faults=drop=0.05,bp=0.2 --reliable=1)"
  echo "${hardened_soak}"
  if ! grep -q '^soak oracles: ok' <<< "${hardened_soak}"; then
    echo "hardened soak replay broke a soak oracle"
    return 1
  fi
  # Unhardened DistMIS treats a corrupted message as lost: the run ends in
  # a verdict (pass or fail) for the fault oracles, never a crash.
  local unhardened status=0
  unhardened="$("${replay}" --family=udg --n=8 --density=0.4 --seed=1 \
    --scheduler=distMIS --faults=drop=0.1,dup=0.1,corrupt=0.05,fseed=7 \
    --reliable=0 2>&1)" || status=$?
  echo "${unhardened}"
  if [ "${status}" -eq 2 ] ||
    ! grep -q '^fault-quiescence: ' <<< "${unhardened}"; then
    echo "unhardened DistMIS under corruption did not reach a verdict"
    return 1
  fi
  # So does a soak of unhardened distributed repairs under corruption: the
  # soak oracles judge every repair instead of the run aborting.
  status=0
  unhardened="$("${replay}" --soak=seed=3,n=50,events=50 --distributed=1 \
    --faults=corrupt=0.05,fseed=7 --reliable=0 2>&1)" || status=$?
  echo "${unhardened}"
  if [ "${status}" -eq 2 ] ||
    ! grep -q '^soak oracles: ' <<< "${unhardened}"; then
    echo "unhardened distributed repair under corruption did not reach a verdict"
    return 1
  fi
  # Unhardened DFS drops a duplicated REQ, REP, SubRep, Ack, Token or
  # TokenBack as a repeat: the run ends in a verdict (it exited 2 at "two
  # concurrent token holders").
  status=0
  unhardened="$("${replay}" --family=tree --n=12 --density=0.4 --seed=1 \
    --scheduler=DFS --faults=dup=0.2,fseed=9 --reliable=0 2>&1)" ||
    status=$?
  echo "${unhardened}"
  if [ "${status}" -eq 2 ] ||
    ! grep -q '^fault-quiescence: ' <<< "${unhardened}"; then
    echo "unhardened DFS under duplication did not reach a verdict"
    return 1
  fi
  # The same holds for unhardened DFS and randomized under corruption.
  local scheduler
  for scheduler in DFS randomized; do
    status=0
    unhardened="$("${replay}" --family=grid --n=12 --density=0.4 --seed=1 \
      --scheduler="${scheduler}" \
      --faults=drop=0.1,dup=0.1,corrupt=0.05,fseed=7 --reliable=0 2>&1)" ||
      status=$?
    echo "${unhardened}"
    if [ "${status}" -eq 2 ] ||
      ! grep -q '^fault-quiescence: ' <<< "${unhardened}"; then
      echo "unhardened ${scheduler} under corruption did not reach a verdict"
      return 1
    fi
  done
  if "${replay}" --family=ring --n=8 --seed=3 --scheduler=DFS \
    --faults=drop=0.1 --tuning=fixed >/dev/null 2>&1; then
    echo "replay accepted a retired transport flag"
    return 1
  fi
  if "${replay}" --family=ring --n=8 --seed=3 --scheduler=DFS \
    --shards=4 >/dev/null 2>&1; then
    echo "replay accepted --shards without --faults"
    return 1
  fi
  if "${replay}" --family=ring --n=8 --seed=3 --scheduler=DFS \
    --faults=none --shards=4 >/dev/null 2>&1; then
    echo "replay accepted --shards for DFS"
    return 1
  fi
}

# One soak replay run serially and at each shard count in $2 must print
# the same events/recolored/slots/oracle lines (the echoed soak: line and
# the wall-clock latency: line differ by design) and pass the soak
# oracles; $1 = the replay binary, the remaining arguments = the soak.
soak_matches_serial() {
  local replay="$1" counts="$2"
  shift 2
  local pattern='^(events|recolored|slots|soak oracles):'
  local serial sharded shards
  serial="$("${replay}" "$@" | grep -E "${pattern}")"
  if [ "$(grep -c . <<< "${serial}")" -ne 4 ] ||
    ! grep -q '^soak oracles: ok' <<< "${serial}"; then
    echo "serial soak replay printed no passing stream summary: $*"
    echo "${serial}"
    return 1
  fi
  for shards in ${counts}; do
    sharded="$("${replay}" "$@" --shards="${shards}" |
      grep -E "${pattern}")"
    if [ "${serial}" != "${sharded}" ]; then
      echo "sharded soak replay (--shards=${shards}) diverged from serial: $*"
      diff <(echo "${serial}") <(echo "${sharded}") || true
      return 1
    fi
  done
}

# Sharded soak replay smoke; $1 = the replay binary. With --shards=S every
# distributed repair runs on S shards of the synchronous engine, one thread
# each (S=8 is more threads than a small CI host has cores). The second
# soak has churn-lossy's shape: n=256 at the benchmark's density, every
# repair event-local and hardened under bursty loss. A fault plan pins the
# engine to one shard, so there --shards=4 must simply change nothing.
soak_replay_smoke() {
  local replay="$1"
  soak_matches_serial "${replay}" "4 8" \
    --soak=seed=3,n=60,events=100 --distributed=1
  soak_matches_serial "${replay}" "4" \
    --soak=seed=5,n=256,events=64,side=14.4,radius=1 --distributed=1 \
    --faults=drop=0.02,bp=0.02 --reliable=1
}

run_faults() {
  echo "=== faults: fault-injection suite (plain + ASan+UBSan) ==="
  # The faulttest label includes the correlated-loss sweep (Gilbert–Elliott
  # bursts, PRR matrix, region outages) judged by the burst-quiescence and
  # failure-detector oracles, plus the engine-free TransportPeer tests.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j
  ctest --test-dir build -L faulttest --output-on-failure -j "$(nproc)"
  replay_smoke ./build/examples/replay
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j
  ctest --test-dir build-asan-ubsan -L faulttest --output-on-failure \
    -j "$(nproc)"
  replay_smoke ./build-asan-ubsan/examples/replay
}

run_soak() {
  echo "=== soak: continuous-operation suite (plain + ASan+UBSan) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j
  ctest --test-dir build -L soaktest --output-on-failure -j "$(nproc)"
  soak_replay_smoke ./build/examples/replay
  # Sanitizer instrumentation makes long streams slow; cap the per-test
  # event count so the gate stays minutes, not hours.
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j
  FDLSP_SOAK_EVENTS="${FDLSP_SOAK_EVENTS:-200}" \
    ctest --test-dir build-asan-ubsan -L soaktest --output-on-failure \
    -j "$(nproc)"
  soak_replay_smoke ./build-asan-ubsan/examples/replay
}

run_lint() {
  echo "=== lint: fdlsp-lint --project over src/ ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j --target fdlsp-lint
  # Machine-readable reports first (for the CI artifact upload), then the
  # human-readable gate run. Project mode adds the include-layer DAG check
  # on top of the per-file rules.
  local status=0
  ./build/tools/fdlsp-lint --project --format=sarif src/ \
    > build/lint-report.sarif || status=$?
  [ "${status}" -le 1 ] || { echo "fdlsp-lint failed to run"; return 2; }
  ./build/tools/fdlsp-lint --project --format=json src/ \
    > build/lint-report.json || true
  ./build/tools/fdlsp-lint --project src/
}

run_tidy() {
  echo "=== clang-tidy: static analysis over src/ ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    # The minimal toolchain image ships without clang-tidy; the GitHub
    # workflow installs it, so the job still gates PRs.
    echo "clang-tidy not installed; skipping"
    return 0
  fi
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  git ls-files 'src/**/*.cpp' 'tools/**/*.cpp' |
    xargs -P "$(nproc)" -n 4 clang-tidy -p build --quiet
}

run_bench() {
  echo "=== bench: Release build + micro suites ==="
  # Capped min-time keeps the smoke fast in CI; local perf work can raise it
  # (FDLSP_BENCH_MIN_TIME=0.1 or more) for steadier numbers.
  FDLSP_BENCH_MIN_TIME="${FDLSP_BENCH_MIN_TIME:-0.05}" tools/bench_smoke.sh
}

run_bench_compare() {
  echo "=== bench-compare: fresh run vs committed baselines ==="
  # The comparator guards its own malformed-input handling; a hardening
  # regression there fails the gate before any benchmark runs.
  python3 tools/bench_compare.py --self-test
  # Save the committed baselines aside (bench_smoke.sh overwrites them),
  # run fresh, then diff with the tolerance band.
  local stash
  stash="$(mktemp -d)"
  cp BENCH_coloring.json BENCH_sim.json BENCH_soak.json "${stash}/"
  FDLSP_BENCH_MIN_TIME="${FDLSP_BENCH_MIN_TIME:-0.05}" tools/bench_smoke.sh
  local status=0
  python3 tools/bench_compare.py "${stash}/BENCH_coloring.json" \
    BENCH_coloring.json || status=1
  python3 tools/bench_compare.py "${stash}/BENCH_sim.json" \
    BENCH_sim.json || status=1
  python3 tools/bench_compare.py "${stash}/BENCH_soak.json" \
    BENCH_soak.json || status=1
  # Restore the committed baselines: the gate compares, it does not rebase.
  cp "${stash}/BENCH_coloring.json" "${stash}/BENCH_sim.json" \
    "${stash}/BENCH_soak.json" .
  rm -rf "${stash}"
  return "${status}"
}

case "${jobs}" in
  tier1) run_tier1 ;;
  asan) run_sanitizer asan-ubsan ;;
  tsan) run_sanitizer tsan ;;
  faults) run_faults ;;
  soak) run_soak ;;
  lint) run_lint ;;
  tidy) run_tidy ;;
  bench) run_bench ;;
  bench-compare) run_bench_compare ;;
  all)
    run_lint
    run_tier1
    run_sanitizer asan-ubsan
    run_sanitizer tsan
    run_faults
    run_soak
    run_tidy
    run_bench
    ;;
  *)
    echo "usage: tools/ci.sh" \
      "[tier1|asan|tsan|faults|soak|lint|tidy|bench|bench-compare|all]" >&2
    exit 2
    ;;
esac
echo "=== ci.sh: ${jobs} OK ==="
