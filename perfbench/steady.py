#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

    python3 perfbench/steady.py --workloads sec8-sweep udg-field \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 35] [--repeat-seed 1]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric that applies to the workload its median
and its spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread
passes when it is below a third of the metric's bound (setup_s is exempt).
With --repeat-seed it also runs that seed traced, twice, and checks that
every count (slots, rounds, messages, engine events, allocations, the
coloring fingerprint and the per-layer counts) repeats exactly, untraced
and traced. Exits 1 when a run fails, a spread misses or a count differs.
"""

import argparse
import json
import statistics
import subprocess
import sys

import benchlib
import run as runner

# Per-layer metrics derived from wall time; every other one is a count or a
# ratio of counts and must repeat exactly.
TIMED_UNITS = {"ms", "ns/msg", "ns/event", "ratio", "%"}


def is_timed(name, unit):
    return unit in TIMED_UNITS or name.startswith("self_share.")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(runner.HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          cwd=runner.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"run failed: {' '.join(command)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    raw = json.loads((runner.build_dir() / "results" /
                      f"{stem}.json").read_text())
    return result, raw


def fingerprint_view(phase):
    return {"counts": phase["counts"], "allocs": phase["allocs"],
            "fingerprint": phase["fingerprint"]}


def check_repeat(workload, seed, seconds):
    """Counts of one seed must repeat exactly across runs and modes."""
    _, plain = run_once(workload, seed, seconds, 0)
    first, traced = run_once(workload, seed, seconds, 1)
    second, traced_again = run_once(workload, seed, seconds, 1)
    problems = []
    if fingerprint_view(plain["phases"][0]) != fingerprint_view(
            traced["phases"][0]):
        problems.append("untraced phase differs between --trace 0 and 1")
    # Runs can hold different numbers of passes; bench.cpp already checks
    # every pass of a run against its first, so the first and the traced
    # pass of each run stand for all of them.
    for p in (0, -1):
        if fingerprint_view(traced["phases"][p]) != fingerprint_view(
                traced_again["phases"][p]):
            problems.append(f"pass {p} differs between two traced runs")
    for name, (unit, _) in benchlib.PER_LAYER.items():
        if is_timed(name, unit):
            continue
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} vs {b}")
    print(f"{workload} seed {seed}: counts "
          + ("repeat exactly" if not problems else "DIFFER"))
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=benchlib.WORKLOADS,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((runner.ROOT / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    parser.add_argument("--repeat-seed", type=int)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            result, raw = run_once(workload, seed, args.seconds, 0)
            ok &= result["correct"]
            for name, value in benchlib.end_to_end(raw).items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        print(f"{workload}: {len(args.seeds)} seeds")
        for name in benchlib.applicable(workload):
            if name not in values:
                continue
            unit = benchlib.END_TO_END[name][0]
            limit = benchlib.bound(name)
            series = values[name]
            s = benchlib.spread(series) if len(series) > 1 else 0.0
            verdict = "ok" if s < limit / 3 else "WIDE"
            if name == "setup_s":
                verdict = "exempt"
            elif verdict == "WIDE":
                ok = False
            print(f"  {name:<14} median {statistics.median(series):<12.6g} "
                  f"{unit:<6} spread {s:.4f}  bound {limit:.2f} "
                  f"{'gated' if name in benchlib.GATED else 'local'}  "
                  f"{verdict}")
        if args.repeat_seed is not None:
            ok &= check_repeat(workload, args.repeat_seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
