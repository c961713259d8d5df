"""Metric catalogue and the statistics the run and compare tools share.

``END_TO_END`` and ``PER_LAYER`` name every metric the benchmark can
report, with its unit and direction. ``BENCHMARK.json`` picks the subset
the JSON result line carries; the rest are printed and written to the
results file.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: name -> (unit, better). "Host" is wall time of the compiler and
#: simulator; "sim" is the modelled machine's time.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "point_p50_s": ("s", "lower"),
    "point_tail_s": ("s", "lower"),
    "compile_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "sim_firings_per_s": ("firings/s", "higher"),
    "sim_cycles_per_s": ("cycles/s", "higher"),
    "sim_cycles": ("cycles", "lower"),
    "nupea_speedup": ("x", "higher"),
    "fdo_speedup": ("x", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_ratio": ("-", "lower"),
}

#: Simulated metrics: exact functions of (workload, seed), compared
#: exactly rather than against a noise bound.
SIMULATED = ("sim_cycles", "nupea_speedup", "fdo_speedup")

#: Per-layer self times that, with ``other_s``, sum to the traced pass
#: wall time. name -> the span names whose self time it sums.
SELF_TIME_BUCKETS = {
    "workloads.build_s": ("workloads.build",),
    "workloads.validate_s": ("workloads.validate",),
    "ir.parallelize_s": ("ir.parallelize",),
    "dfg.lower_s": ("dfg.lower",),
    "core.criticality_s": ("core.criticality",),
    "pnr.netlist_s": ("pnr.netlist",),
    "pnr.place_s": ("pnr.initial_placement", "pnr.anneal"),
    "pnr.route_s": ("pnr.channels", "pnr.route"),
    "pnr.timing_s": ("pnr.timing",),
    "pnr.flow_s": ("pnr.compile_kernel", "pnr.compile_once"),
    "exp.cache.self_s": ("exp.cache",),
    "exp.harness.self_s": ("exp.harness",),
    "obs.manifest.write_s": ("obs.manifest.write",),
    "sim.simulate_s": ("sim.simulate",),
    "obs.critpath.simulate_s": ("sim.critpath",),
}

#: name -> unit for every per-layer metric of the traced run.
PER_LAYER = {
    **{name: "s" for name in SELF_TIME_BUCKETS},
    "other_s": "s",
    "dfg.nodes": "count",
    "pnr.compile_once_calls": "count",
    "pnr.compile_yield": "ratio",
    "pnr.candidates": "count",
    "pnr.anneal_proposals": "count",
    "pnr.anneal_accepted": "count",
    "pnr.anneal_accept_ratio": "ratio",
    "pnr.route_iterations": "count",
    "pnr.nets_rerouted": "count",
    "exp.cache.hits": "count",
    "exp.cache.disk_hits": "count",
    "exp.cache.misses": "count",
    "exp.cache.hit_ratio": "ratio",
    "obs.manifest.records": "count",
    "sim.firings": "count",
    "sim.executed_cycles": "cycles",
    "sim.skipped_cycles": "cycles",
    "sim.skip_ratio": "ratio",
    "sim.us_per_firing": "us",
    "sim.us_per_executed_cycle": "us",
    "sim.mem.loads": "count",
    "sim.mem.hit_ratio": "ratio",
    "sim.mem.bank_wait_cycles": "cycles",
    "sim.mem.avg_latency_cycles": "cycles",
    "sim.fmnoc_hops": "count",
    "sim.noc_hops": "count",
    "sim.numa.local_share": "ratio",
    "obs.critpath.overhead_x": "x",
    "trace_overhead_x": "x",
}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 where the layer did no work."""
    return num / den if den else 0.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than eleven
    samples there is no such percentile and the maximum is returned as
    the 100th.
    """
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_digest(result) -> str:
    """Stable per-point digest: simulated statistics plus final memory.

    ``executed_cycles``/``skipped_cycles`` describe how the engine got
    there (cycle skipping), and ``critpath`` is only present when the
    profiler was attached, so all three are left out.
    """
    stats = result.stats.to_dict()
    for key in ("executed_cycles", "skipped_cycles", "critpath"):
        stats.pop(key, None)
    blob = json.dumps(
        {"stats": stats, "memory": result.memory}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
