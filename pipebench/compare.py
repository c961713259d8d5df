"""Compare two sets of benchmark runs: a parent and a change.

    python3 pipebench/compare.py PARENT_DIR CHANGE_DIR [--json]

Each directory holds results files written by ``pipebench/run.py
--out DIR``. Runs should alternate between the sides (parent, change,
change, parent, ...) with the same seeds; pairs are formed in finishing
order on each side.

For every workload and end-to-end host metric there is one row with each
side's median and quartiles, the change's ratio to the parent median,
the fraction of pairs the change wins (ties count for neither) and a
verdict:

* ``gain``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: either side's quartile spread, as a share of its
  median, exceeds the bound (unless every change run beats every
  parent run);
* ``same``: none of the above.

Simulated metrics are not noisy: per-point cycles and digests of runs
with the same workload and seed must match exactly, and every point
that changed is listed with its cycle ratio (base: parent), plus the
geometric mean of those ratios per workload. Traced runs get one row
per per-layer metric (medians and ratio; no verdict, layers have no
bound).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from metrics import END_TO_END, SIMULATED, geomean, quartiles

#: Host metrics compared against a bound (simulated ones compare exactly).
HOST_METRICS = [m for m in END_TO_END if m not in SIMULATED]


def load(directory: str) -> list[dict]:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if "workload" in data and "plan" in data:
            runs.append(data)
    runs.sort(key=lambda r: r["finished_at"])
    return runs


def bounds_from(bench_path: Path) -> dict[str, float]:
    """Bounds from BENCHMARK.json; metrics it does not list get its
    largest bound."""
    bench = json.loads(bench_path.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    widest = max(bounds.values())
    return {name: bounds.get(name, widest) for name in END_TO_END}


def host_row(name, parent, change, bound) -> dict:
    better = END_TO_END[name][1]
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_fraction = wins / len(pairs)
    spread = max(
        (p3 - p1) / pm if pm else 0.0,
        (c3 - c1) / cm if cm else 0.0,
    )
    worse = sign * (pm - cm)
    # A zero parent median (fail_ratio) makes any worsening unbounded.
    worse_by = worse / pm if pm else (math.inf if worse > 0 else 0.0)
    dominates = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    improved = sign * (cm - pm) > 0
    if win_fraction >= 0.9 and improved and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "metric": name,
        "unit": END_TO_END[name][0],
        "better": better,
        "parent": {"q1": p1, "median": pm, "q3": p3, "n": len(parent)},
        "change": {"q1": c1, "median": cm, "q3": c3, "n": len(change)},
        "ratio_to_parent_median": cm / pm if pm else None,
        "win_fraction": win_fraction,
        "pairs": len(pairs),
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def simulated_diff(parent_runs, change_runs) -> dict:
    """Exact comparison of per-point cycles and digests, seed by seed."""
    def by_seed(runs):
        out = {}
        for run in runs:
            if run.get("digests"):
                out.setdefault(run["seed"], run)
        return out

    parents, changes = by_seed(parent_runs), by_seed(change_runs)
    changed, ratios, compared = [], [], 0
    for seed in sorted(set(parents) & set(changes)):
        p, c = parents[seed], changes[seed]
        for label in sorted(set(p["digests"]) | set(c["digests"])):
            compared += 1
            p_cyc = p.get("cycles", {}).get(label)
            c_cyc = c.get("cycles", {}).get(label)
            if p_cyc and c_cyc:
                ratios.append(c_cyc / p_cyc)
            if p["digests"].get(label) != c["digests"].get(label):
                changed.append({
                    "seed": seed,
                    "point": label,
                    "parent_cycles": p_cyc,
                    "change_cycles": c_cyc,
                    "cycles_ratio_to_parent": (
                        c_cyc / p_cyc if p_cyc and c_cyc else None
                    ),
                })
    metrics = {}
    for name in SIMULATED:
        values = {
            seed: (parents[seed]["metrics"].get(name),
                   changes[seed]["metrics"].get(name))
            for seed in set(parents) & set(changes)
        }
        diffs = {s: v for s, v in values.items() if v[0] != v[1]}
        if any(v[0] is not None for v in values.values()):
            metrics[name] = {"seeds": len(values), "differ": diffs}
    return {
        "points_compared": compared,
        "points_changed": changed,
        "cycles_geomean_ratio_to_parent": geomean(ratios) if ratios else None,
        "metrics": metrics,
    }


def layer_rows(parent_runs, change_runs) -> list[dict]:
    parent = [r["layers"] for r in parent_runs if r.get("layers")]
    change = [r["layers"] for r in change_runs if r.get("layers")]
    if not parent or not change:
        return []
    rows = []
    for name in parent[0]:
        p = quartiles([layers[name] for layers in parent])[1]
        c = quartiles([layers[name] for layers in change])[1]
        rows.append({
            "metric": name,
            "parent_median": p,
            "change_median": c,
            "ratio_to_parent_median": c / p if p else None,
        })
    return rows


def compare(parent_runs, change_runs, bounds) -> dict:
    out = {}
    workloads = sorted({r["workload"] for r in parent_runs + change_runs})
    for workload in workloads:
        mine = [r for r in parent_runs if r["workload"] == workload]
        theirs = [r for r in change_runs if r["workload"] == workload]
        plain_p = [r for r in mine if not r["trace"] and r["metrics"]]
        plain_c = [r for r in theirs if not r["trace"] and r["metrics"]]
        rows = []
        for name in HOST_METRICS:
            p = [r["metrics"][name] for r in plain_p if name in r["metrics"]]
            c = [r["metrics"][name] for r in plain_c if name in r["metrics"]]
            if p and c:
                rows.append(host_row(name, p, c, bounds[name]))
        out[workload] = {
            "host": rows,
            "simulated": simulated_diff(mine, theirs),
            "layers": layer_rows(
                [r for r in mine if r["trace"]],
                [r for r in theirs if r["trace"]],
            ),
        }
    return out


def render(result: dict) -> str:
    lines = []
    for workload, parts in result.items():
        lines.append(f"== {workload}")
        lines.append(
            f"  {'metric':<20} {'parent q1/med/q3':>32} "
            f"{'change q1/med/q3':>32} {'chg/par':>8} {'wins':>6} verdict"
        )
        for row in parts["host"]:
            p, c = row["parent"], row["change"]
            lines.append(
                f"  {row['metric']:<20} "
                f"{p['q1']:>10.4g}/{p['median']:<10.4g}/{p['q3']:<9.4g} "
                f"{c['q1']:>10.4g}/{c['median']:<10.4g}/{c['q3']:<9.4g} "
                f"{row['ratio_to_parent_median'] or 0:>8.3f} "
                f"{row['win_fraction']:>6.2f} {row['verdict']} "
                f"({row['unit']}, {row['better']} is better, "
                f"spread {row['spread']:.3f} vs bound {row['bound']})"
            )
        sim = parts["simulated"]
        gm = sim["cycles_geomean_ratio_to_parent"]
        lines.append(
            f"  simulated: {sim['points_compared']} points compared, "
            f"{len(sim['points_changed'])} changed; cycles geomean "
            f"change/parent = {gm if gm is None else f'{gm:.4f}'}"
        )
        for point in sim["points_changed"]:
            lines.append(f"    changed {point}")
        for name, entry in sim["metrics"].items():
            state = "identical" if not entry["differ"] else entry["differ"]
            lines.append(f"    {name} over {entry['seeds']} seeds: {state}")
        for row in parts["layers"]:
            ratio = row["ratio_to_parent_median"]
            lines.append(
                f"    layer {row['metric']:<28} "
                f"{row['parent_median']:>12.5g} -> "
                f"{row['change_median']:<12.5g} "
                f"(change/parent {'-' if ratio is None else f'{ratio:.3f}'})"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument(
        "--bench", default="BENCHMARK.json",
        help="BENCHMARK.json with the metric bounds",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    result = compare(
        load(args.parent), load(args.change), bounds_from(Path(args.bench))
    )
    print(json.dumps(result, indent=1) if args.json else render(result))
    bad = any(
        row["verdict"] == "regression"
        for parts in result.values()
        for row in parts["host"]
    ) or any(parts["simulated"]["points_changed"] for parts in result.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
