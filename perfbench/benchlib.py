"""Metric arithmetic for the pipeline benchmark.

perfbench/bench.cpp measures; this module turns its raw JSON document into
the named metrics, the span self times and the Chrome trace. It has no
dependency beyond the standard library, so perfbench/tests can exercise it
without building anything.
"""

import json
import math
import statistics
from pathlib import Path

WORKLOADS = ("sec8-sweep", "udg-field", "churn-lossy")
ALL = WORKLOADS
SEC8 = ("sec8-sweep",)
UDG = ("udg-field",)
CHURN = ("churn-lossy",)

# Item percentiles need this many items, so that the p90 has at least ten
# items beyond it.
MIN_PERCENTILE_ITEMS = 100

# One canary sample's time on a quiet host of the reference machine (the
# 4-vCPU Xeon of perfbench/README.md). Scaled times are seconds at the host
# speed at which one canary sample takes this long.
CANARY_REFERENCE_NS = 5.0e6

# BENCHMARK.json at the repository root is the single source of the gated
# end-to-end metrics, which the harness checks on every workload, and of
# their bounds.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
GATED = {m["name"]: m for m in BENCHMARK["end_to_end"]}

# End-to-end metrics: name -> (unit, workloads it applies to). The ones not
# gated are local: printed where they apply and checked by perfbench/
# steady.py against LOCAL_BOUND. wall_run_s and wall_setup_s are run_s and
# setup_s before canary scaling. slots_mean applies everywhere but stays
# local: it is a pure function of the seed's inputs, and its seed-to-seed
# spread on udg-field (7-9% measured over twelve fields a pass) is input
# variance, not a regression.
END_TO_END = {
    "run_s": ("s", ALL),
    "setup_s": ("s", ALL),
    "peak_rss_mb": ("MB", ALL),
    "wall_run_s": ("s", ALL),
    "wall_setup_s": ("s", ALL),
    "slots_mean": ("slots", ALL),
    "item_p50_ms": ("ms", SEC8 + CHURN),
    "item_p90_ms": ("ms", SEC8 + CHURN),
    "rounds_mean": ("rounds", SEC8 + UDG),
    "msgs_mean": ("msgs", SEC8 + UDG),
    "churn_mean": ("arcs", CHURN),
}
LOCAL_BOUND = 0.25


def bound(name):
    return GATED[name]["bound"] if name in GATED else LOCAL_BOUND


# Per-layer metrics from the traced run: name -> (unit, workloads that
# exercise the layer). A workload that bypasses a layer reports 0 for it.
PER_LAYER = {
    "graph.gen_ms": ("ms", SEC8 + UDG),
    "coloring.index_ms": ("ms", UDG),
    "coloring.check_ms": ("ms", ALL),
    "coloring.bound_ms": ("ms", SEC8),
    "algos.distmis_ms": ("ms", SEC8 + UDG),
    "algos.distmis_allocs": ("count", SEC8 + UDG),
    "sim.sync_msgs": ("msgs", SEC8 + UDG),
    "sim.sync_ns_per_msg": ("ns/msg", SEC8 + UDG),
    "algos.dfs_ms": ("ms", SEC8),
    "algos.dfs_allocs": ("count", SEC8),
    "sim.dfs_msgs": ("msgs", SEC8),
    "sim.dfs_ns_per_msg": ("ns/msg", SEC8),
    "algos.dmgc_ms": ("ms", SEC8),
    "algos.distmis_async_ms": ("ms", UDG),
    "algos.distmis_async_allocs": ("count", UDG),
    "sim.async_events": ("events", UDG),
    "sim.async_timer_frac": ("frac", UDG),
    "sim.async_ns_per_event": ("ns/event", UDG),
    "sim.async_time": ("simtime", UDG),
    "sim.async_over_sync": ("ratio", UDG),
    "tdma.build_ms": ("ms", UDG),
    "tdma.replay_ms": ("ms", UDG),
    "tdma.convergecast_ms": ("ms", UDG),
    "tdma.delivered_frac": ("frac", UDG),
    "tdma.epoch_frames": ("frames", UDG),
    "tdma.slot_utilization": ("frac", UDG),
    "soak.init_ms": ("ms", CHURN),
    "soak.step_ms": ("ms", CHURN),
    "soak.step_allocs": ("count", CHURN),
    "soak.repairs": ("count", CHURN),
    "soak.fallback_frac": ("frac", CHURN),
    "soak.noop_frac": ("frac", CHURN),
    "soak.changed_edges_mean": ("edges", CHURN),
    "self_share.coloring": ("frac", ALL),
    "self_share.algos": ("frac", SEC8 + UDG),
    "self_share.tdma": ("frac", UDG),
    "self_share.soak": ("frac", CHURN),
    "self_share.bench": ("frac", ALL),
    "trace.overhead_pct": ("%", ALL),
}

# Layers whose self time self_share.* reports; "bench" is the remainder.
SHARE_LAYERS = ("coloring", "algos", "tdma", "soak")


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p% of
    the samples at or below it (rank ceil(p/100 * n), 1-based)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover. `spans` rows are (name, start, end, parent, item)
    with parent an index into the list or -1."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        kids = [(spans[k][1], spans[k][2]) for k in children[index]]
        result.append((end - start) - covered(kids, start, end))
    return result


def subtree(spans, root):
    """Indices of `root` and all its descendants (parents precede children)."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
    return sorted(inside)


def layer_of(name):
    return name.split(".", 1)[0]


def _ratio(num, den):
    return num / den if den else 0.0


def untraced_phases(raw):
    return [p for p in raw["phases"] if not p["traced"]]


def canary_scale(phase):
    """CANARY_REFERENCE_NS over the pass's median canary sample: the factor
    that takes the pass's times to the reference host speed."""
    return CANARY_REFERENCE_NS / statistics.median(phase["canary_ns"])


def item_median(raw, scaled):
    """Every item's median latency (ns) over the untraced passes, which all
    run identical inputs in identical order; `scaled` first multiplies each
    pass's latencies by its canary_scale. Co-tenant contention slows the
    host in phases lasting seconds to minutes; the fastest pass depends on
    whether a rare quiet moment fell inside the run, the median does not."""
    passes = [[ns * (canary_scale(p) if scaled else 1.0)
               for ns in p["item_ns"]] for p in untraced_phases(raw)]
    return [statistics.median(samples) for samples in zip(*passes)]


def end_to_end(raw):
    """Untraced end-to-end metrics of one run: name -> value, for the
    metrics that apply to its workload. run_s is the time of one pass over
    the fixed work, summed from the items' median latencies after canary
    scaling; setup_s is the median set-up, each scaled by its own pass's
    factor. wall_run_s and wall_setup_s are the same without scaling."""
    workload = raw["workload"]
    passes = untraced_phases(raw)
    counts = passes[0]["counts"]
    items = item_median(raw, scaled=True)
    items_ms = [ns / 1e6 for ns in items]
    setups = list(zip(raw["setup_ns"], passes))
    out = {
        "run_s": sum(items) / 1e9,
        "setup_s": statistics.median(ns * canary_scale(p)
                                     for ns, p in setups) / 1e9,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "wall_run_s": sum(item_median(raw, scaled=False)) / 1e9,
        "wall_setup_s": statistics.median(raw["setup_ns"]) / 1e9,
    }
    if workload == "churn-lossy":
        out["slots_mean"] = _ratio(counts["slots_sum"], counts["items"])
        out["churn_mean"] = _ratio(counts["recolored_sum"], counts["items"])
    else:
        out["slots_mean"] = _ratio(counts["slots_sum"], counts["schedules"])
        out["rounds_mean"] = _ratio(counts["rounds_sum"],
                                    counts["distmis_runs"])
        out["msgs_mean"] = _ratio(counts["msgs_sum"], counts["items"])
    if (len(items_ms) >= MIN_PERCENTILE_ITEMS
            and workload in END_TO_END["item_p50_ms"][1]):
        out["item_p50_ms"] = percentile(items_ms, 50)
        out["item_p90_ms"] = percentile(items_ms, 90)
    return out


def applicable(workload):
    return [name for name, spec in END_TO_END.items() if workload in spec[1]]


def per_layer(raw):
    """Per-layer metrics of a traced run: every PER_LAYER name, 0 for the
    layers its workload bypasses. Also returns the self-time breakdown."""
    spans = raw["spans"]
    traced = next(p for p in raw["phases"] if p["traced"])
    untraced_ns = statistics.median(p["run_ns"]
                                    for p in untraced_phases(raw))
    counts = traced["counts"]
    selfs = self_times(spans)

    roots = {spans[i][0]: i for i, s in enumerate(spans) if s[3] < 0}

    def total_ms(indices, name):
        return sum(spans[i][2] - spans[i][1] for i in indices
                   if spans[i][0] == name) / 1e6

    phase_spans = subtree(spans, roots["bench.phase"])
    setup_spans = subtree(spans, roots["bench.setup"])

    run_ns = traced["run_ns"]
    layer_self = {layer: 0 for layer in SHARE_LAYERS}
    for i in phase_spans:
        layer = layer_of(spans[i][0])
        if layer in layer_self:
            layer_self[layer] += selfs[i]
    remainder_ns = run_ns - sum(layer_self.values())

    m = {name: 0.0 for name in PER_LAYER}
    m["graph.gen_ms"] = total_ms(setup_spans, "graph.gen")
    m["soak.init_ms"] = total_ms(setup_spans, "soak.init")
    for metric, span in (("coloring.index_ms", "coloring.index"),
                         ("coloring.check_ms", "coloring.check"),
                         ("coloring.bound_ms", "coloring.bound"),
                         ("algos.distmis_ms", "algos.distmis"),
                         ("algos.dfs_ms", "algos.dfs"),
                         ("algos.dmgc_ms", "algos.dmgc"),
                         ("algos.distmis_async_ms", "algos.distmis_async"),
                         ("tdma.build_ms", "tdma.build"),
                         ("tdma.replay_ms", "tdma.replay"),
                         ("tdma.convergecast_ms", "tdma.convergecast"),
                         ("soak.step_ms", "soak.step")):
        m[metric] = total_ms(phase_spans, span)
    for key in ("algos.distmis_allocs", "algos.dfs_allocs",
                "algos.distmis_async_allocs", "soak.step_allocs"):
        m[key] = traced["allocs"].get(key, 0.0)
    for key in ("sim.sync_msgs", "sim.dfs_msgs"):
        m[key] = counts.get(key, 0.0)

    m["sim.sync_ns_per_msg"] = _ratio(m["algos.distmis_ms"] * 1e6,
                                      m["sim.sync_msgs"])
    m["sim.dfs_ns_per_msg"] = _ratio(m["algos.dfs_ms"] * 1e6,
                                     m["sim.dfs_msgs"])
    events = counts.get("sim.async_frames", 0.0) + counts.get(
        "sim.async_timers", 0.0)
    m["sim.async_events"] = events
    m["sim.async_timer_frac"] = _ratio(counts.get("sim.async_timers", 0.0),
                                       events)
    m["sim.async_ns_per_event"] = _ratio(m["algos.distmis_async_ms"] * 1e6,
                                         events)
    if raw["workload"] == "udg-field":
        m["sim.async_time"] = _ratio(counts["sim.async_time_sum"],
                                     counts["items"])
        m["tdma.epoch_frames"] = _ratio(counts["tdma.epoch_frames_sum"],
                                        counts["items"])
        m["tdma.slot_utilization"] = _ratio(counts["tdma.utilization_sum"],
                                            counts["items"])
    m["sim.async_over_sync"] = _ratio(m["sim.async_ns_per_event"],
                                      m["sim.sync_ns_per_msg"])
    m["tdma.delivered_frac"] = _ratio(counts.get("tdma.delivered", 0.0),
                                      counts.get("tdma.scheduled", 0.0))
    if raw["workload"] == "churn-lossy":
        m["soak.repairs"] = counts["repairs"]
        m["soak.fallback_frac"] = _ratio(counts["fallbacks"],
                                         counts["events"])
        m["soak.noop_frac"] = _ratio(counts["noops"], counts["events"])
        m["soak.changed_edges_mean"] = _ratio(counts["changed_edges_sum"],
                                              counts["events"])
    for layer, ns in layer_self.items():
        m["self_share." + layer] = _ratio(ns, run_ns)
    m["self_share.bench"] = _ratio(remainder_ns, run_ns)
    m["trace.overhead_pct"] = 100.0 * _ratio(run_ns - untraced_ns,
                                             untraced_ns)
    breakdown = {
        "traced_run_ns": run_ns,
        "untraced_run_ns": untraced_ns,
        "layer_self_ns": layer_self,
        "remainder_ns": remainder_ns,
    }
    return m, breakdown


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(raw, trace):
    """The report of one run: (text lines, result object). The result is
    the harness's last line; the text names every metric that applies to
    the workload with its unit, and the per-layer breakdown when traced."""
    workload = raw["workload"]
    phases = raw["phases"]
    attempted = sum(len(p["item_ns"]) for p in phases)
    failed = sum(p["failed"] for p in phases) + raw["warmup"]["failed"]
    lines = [
        f"perfbench {workload} seed={raw['seed']} "
        f"seconds={_fmt(raw['seconds'])} trace={int(bool(trace))}",
        "context " + json.dumps(raw.get("context", {})),
        f"warm-up {raw['warmup_ns'] / 1e9:.3f} s; items attempted "
        f"{attempted}, failed {failed}; coloring fingerprint "
        f"{phases[0]['fingerprint']}",
    ]
    for phase in [raw["warmup"]] + phases:
        lines += [f"FAILED {f}" for f in phase["failures"]]

    e2e = end_to_end(raw)
    n_items = len(phases[0]["item_ns"])
    passes = untraced_phases(raw)
    lines.append(
        f"{len(passes)} untraced passes of {n_items} items; pass wall "
        f"times (s) " + " ".join(f"{p['run_ns'] / 1e9:.4f}" for p in passes))
    lines.append(
        "canary scale per pass " + " ".join(f"{canary_scale(p):.4f}"
                                            for p in passes)
        + f" (reference {CANARY_REFERENCE_NS / 1e6:g} ms a sample)")
    lines.append("end-to-end (untraced phase):")
    for name in applicable(workload):
        unit = END_TO_END[name][0]
        if name not in e2e:
            lines.append(f"  {name:<24} n/a {unit} ({n_items} items < "
                         f"{MIN_PERCENTILE_ITEMS})")
            continue
        note = (f" (n={n_items} items, each its median over {len(passes)} "
                "passes)") if name.startswith("item_") else ""
        scope = "gated" if name in GATED else "local"
        lines.append(f"  {name:<24} {_fmt(e2e[name]):>14} {unit:<8} bound "
                     f"{bound(name):.2f} {scope}{note}")

    if trace:
        layer, breakdown = per_layer(raw)
        lines.append("per-layer (traced phase):")
        for name, (unit, workloads) in PER_LAYER.items():
            mark = "" if workload in workloads else "  (bypassed)"
            lines.append(f"  {name:<26} {_fmt(layer[name]):>14} {unit:<8}"
                         f"{mark}")
        parts = " + ".join(f"{k} {v / 1e9:.4f}"
                           for k, v in breakdown["layer_self_ns"].items())
        lines.append(
            f"self time (s): {parts} + remainder "
            f"{breakdown['remainder_ns'] / 1e9:.4f} = traced run_s "
            f"{breakdown['traced_run_ns'] / 1e9:.4f}; untraced run_s "
            f"{breakdown['untraced_run_ns'] / 1e9:.4f}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name][0]}
                   for name in GATED}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def chrome_trace(raw):
    """Chrome trace-event JSON (chrome://tracing, Perfetto) of the spans."""
    events = []
    for index, (name, start, end, parent, item) in enumerate(raw["spans"]):
        events.append({
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": start / 1e3,
            "dur": (end - start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"span": index, "parent": parent, "item": item},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")
