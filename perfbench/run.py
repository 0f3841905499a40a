#!/usr/bin/env python3
"""Pipeline benchmark: builds perfbench/bench.cpp in Release, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload sec8-sweep --seed 1 --seconds 35 \
        --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the BENCHMARK.json
end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.
The lines above it print every metric that applies to the workload, with
its unit, plus the machine context. Exit status: 0 when every item passed
its correctness gate, 1 when any failed, 2 when the benchmark could not run
(no result line then).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 178  # a run must end within 180 s
FIRST_RUN_LIMIT_S = 895  # the first run in a checkout, which builds: 900 s
BUILD_BUDGET_S = 780


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_bounded(command, timeout):
    """Runs `command` in its own process group; on timeout kills the whole
    group (make spawns compilers) and waits for it. Returns the completed
    process, or None on timeout."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures once, then lets CMake bring the binary up to date.
    Returns (binary path, whether anything was compiled)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fdlsp source tree at {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_bin",
                  "-j", jobs])
    compiled = False
    for step in steps:
        proc = run_bounded(step, BUILD_BUDGET_S)
        if proc is None:
            fail(f"build step timed out: {' '.join(step)}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}")
        compiled |= "Building CXX" in proc.stdout
    return out / "perfbench", compiled


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """Git commit when the tree is a checkout, plus a digest of the sources
    the benchmark builds (the harness runs it outside git)."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit or "none", digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    if args.seed < 0:
        fail("--seed must be non-negative")

    started = time.monotonic()
    binary, compiled = build()
    limit = FIRST_RUN_LIMIT_S if compiled else RUN_LIMIT_S
    budget = min(RUN_LIMIT_S, limit - (time.monotonic() - started))

    load_before = os.getloadavg()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    proc = run_bounded(command, max(1.0, budget))
    if proc is None:
        fail("benchmark binary timed out")
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with status {proc.returncode}")
    raw = json.loads(proc.stdout)

    commit, digest = source_revision()
    context = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "load_before": [round(x, 2) for x in load_before],
        "load_after": [round(x, 2) for x in load_after],
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "commit": commit,
        "source_digest": digest,
    }
    raw["context"] = context

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(raw))
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(benchlib.chrome_trace(raw)))
        print(f"chrome trace {trace_path}")

    lines, result = benchlib.render(raw, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
