"""Pipeline benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 pipebench/run.py --workload compile-cold --seed 0 \\
        --seconds 32 --trace 0

``--trace 0`` measures untraced passes and prints every end-to-end
metric; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics of the traced ones. The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying
the metrics ``BENCHMARK.json`` lists; everything else (extra metrics,
per-point digests and cycles, per-pass detail) goes to the human report
above it and to a results file under ``--out``, which
``pipebench/compare.py`` reads.

The run is a closed loop with one serial caller. ``--seed`` sets both
the workload inputs and the placement seed. The pass count is
``round(--seconds / nominal pass time)``, at least two, so two commits
compared at the same settings run the same work.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("compile-cold", "sweep-sparse", "fdo")
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Fewest passes per run, so every run has a median and a tail sample
#: of at least twenty points.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload inputs and placement seed (0: development seed)",
    )
    parser.add_argument(
        "--seconds", type=float, default=32.0,
        help="nominal measuring time; sets the pass count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(HERE / "out"),
        help="directory for the per-run results file",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "pipebench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))

    import passes
    from repro.exp.cache import GLOBAL_CACHE

    own_import_s = time.perf_counter() - PROCESS_START
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = passes.WORKLOADS[args.workload](args.seed, workdir)
        report = measure(workload, args, own_import_s)
    finally:
        GLOBAL_CACHE.disable_disk()
        GLOBAL_CACHE.clear()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    path = write_results(report, args)
    print_report(report, path)
    keys = bench["per_layer" if args.trace else "end_to_end"]
    table = report["layers"] if args.trace else report["metrics"]
    if table is None:
        print("pipebench: no valid pass; no result", file=sys.stderr)
        return 1
    units = report["units"]
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": table[m["name"]], "unit": units[m["name"]]}
            for m in keys
        },
    }
    print(json.dumps(line))
    return 0 if report["failed"] == 0 else 1


# -- measurement ------------------------------------------------------------


def _is_program(name: str) -> bool:
    return name == "repro" or name.startswith("repro.") or name == "passes"


def reimport_program() -> None:
    """Execute the program's modules afresh, then put the originals back.

    The process imported them once at start; re-executing them from
    their compiled files lets every set-up repetition include the
    import. Standard and third-party modules stay cached, so what this
    times is the program's own module code. The new module objects are
    discarded: everything the run uses stays bound to the originals.
    """
    saved = {n: m for n, m in sys.modules.items() if _is_program(n)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("passes")
    finally:
        for name in [n for n in sys.modules if _is_program(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def measure(workload, args, own_import_s) -> dict:
    from passes import cache_counts

    clock = time.perf_counter
    # Each set-up repetition re-imports the program and runs the
    # workload's set-up, normalised like a pass from calibration samples
    # taken between repetitions. A first import, in this process or a
    # fresh one, also reads files and initialises third-party modules;
    # its wall time varied by 20-30% between runs and drifted by up to
    # 25% between sets of runs, far more than the calibration speed, so
    # it is only reported (``own_import_s``), not gated.
    samples = [calib.sample()]
    intervals = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = clock()
        reimport_program()
        middle = clock()
        workload.setup()
        intervals.append((start, middle, clock()))
        samples.append(calib.sample())
    timeline = calib.Timeline(samples)
    imports = [timeline.normalise(a, b) for a, b, _ in intervals]
    setup_times = [timeline.normalise(b, c) for _, b, c in intervals]

    count = max(MIN_PASSES, round(args.seconds / workload.nominal_pass_s))
    plan = (
        ["plain", "traced"] * max(1, round(count / 2))
        if args.trace
        else ["plain"] * count
    )
    rec = spans.Recorder()
    rec.install(spans.PROBES, calibrate=True)
    runs = []
    try:
        for kind in plan:
            workload.prepare()
            rec.reset()
            mark = rec.install(spans.LAYERS) if kind == "traced" else None
            before = cache_counts()
            gc.collect()
            rec.calibrate()
            start = clock()
            error = None
            try:
                labels = workload.run_pass(rec)
            except Exception:
                error = traceback.format_exc()
                labels = []
            finally:
                end = clock()
                if mark is not None:
                    rec.restore(mark)
            rec.calibrate()
            after = cache_counts()
            delta = {k: after[k] - before[k] for k in after}
            runs.append(
                summarize_pass(
                    workload, rec, kind, start, end, labels, delta, error
                )
            )
        critpath = critpath_overhead(runs) if args.trace else None
    finally:
        rec.restore()

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "plan": plan,
        "setup_times_s": setup_times,
        "import_times_s": imports,
        "own_import_s": own_import_s,
        "setup_speed": timeline.factor(),
    }
    report.update(score(runs, critpath))
    if report["metrics"] is not None:
        report["metrics"]["setup_s"] = statistics.median(
            i + s for i, s in zip(imports, setup_times)
        )
    report["units"] = {
        **{k: unit for k, (unit, _) in metrics.END_TO_END.items()},
        **metrics.PER_LAYER,
    }
    report["passes"] = [
        {k: v for k, v in run.items() if not k.startswith("_")}
        for run in runs
    ]
    return report


def summarize_pass(workload, rec, kind, start, end, labels, delta,
                   error) -> dict:
    """Everything one pass measured, in plain data.

    ``wall_s`` is host wall time without the calibration chunks; every
    other time is normalised to the reference speed (:mod:`calib`).
    """
    timeline = calib.Timeline(rec.cal)
    wall = end - start - timeline.chunk_time(start, end)
    run = {
        "kind": kind,
        "wall_s": wall,
        "norm_s": timeline.normalise(start, end),
        "speed": timeline.factor(),
        "calibration": [(a - start, d) for a, _, d in rec.cal],
        "cache": delta,
        "error": error,
    }
    if error is None and len(labels) != len(rec.sims):
        run["error"] = (
            f"{len(labels)} points but {len(rec.sims)} simulations"
        )
    if run["error"] is not None:
        return run
    want = workload.expected_cache(len(labels))
    run["violations"] = [] if delta == want else [f"cache {delta} != {want}"]
    intervals = rec.assign_points(start, end)
    results = [sim[3] for sim in rec.sims]
    run["points"] = [
        {
            "label": label,
            "latency_s": timeline.normalise(a, b),
            "wall_s": b - a - timeline.chunk_time(a, b),
            "cycles": result.stats.system_cycles,
            "digest": metrics.run_digest(result),
        }
        for label, (a, b), result in zip(labels, intervals, results)
    ]
    _, compile_s = rec.totals("pnr.compile_kernel", timeline)
    simulate_s = (
        rec.totals("sim.simulate", timeline)[1]
        + rec.totals("sim.critpath", timeline)[1]
    )
    firings = sum(r.stats.total_firings for r in results)
    cycles = sum(r.stats.system_cycles for r in results)
    run.update(
        compile_s=compile_s,
        simulate_s=simulate_s,
        sim_firings_per_s=firings / simulate_s,
        sim_cycles_per_s=cycles / simulate_s,
        simulated=workload.speedups(
            {p["label"]: p["cycles"] for p in run["points"]}
        ),
    )
    if kind == "traced":
        run["layers"] = layer_metrics(rec, wall, delta, results)
        for index, point in enumerate(run["points"]):
            point["self_s"] = rec.self_times(index)
    # Round-0 FDO simulations, kept (in memory only) for the critpath
    # attached-vs-detached comparison.
    run["_round0"] = [
        sim for label, sim in zip(labels, rec.sims)
        if label.endswith("/round0")
    ]
    return run


def layer_metrics(rec, wall, delta, results) -> dict:
    ratio = metrics.ratio
    self_times = rec.self_times()
    unknown = set(self_times) - {
        name for names in metrics.SELF_TIME_BUCKETS.values()
        for name in names
    }
    if unknown:
        raise RuntimeError(f"spans without a layer bucket: {unknown}")
    out = {
        metric: sum(self_times.get(name, 0.0) for name in names)
        for metric, names in metrics.SELF_TIME_BUCKETS.items()
    }
    # Self times partition the root spans; what lies outside every root
    # span is the benchmark's own loop and anything not wrapped.
    out["other_s"] = wall - sum(out.values())
    compile_once, _ = rec.totals("pnr.compile_once")
    compile_kernel, _ = rec.totals("pnr.compile_kernel")
    proposals = rec.info_sum("pnr.anneal", "proposals")
    accepted = rec.info_sum("pnr.anneal", "accepted")
    lookups = delta["hits"] + delta["disk_hits"] + delta["misses"]
    stats = [r.stats for r in results]
    firings = sum(s.total_firings for s in stats)
    executed = sum(s.executed_cycles for s in stats)
    skipped = sum(s.skipped_cycles for s in stats)
    sim_s = out["sim.simulate_s"] + out["obs.critpath.simulate_s"]
    mem_hits = sum(s.mem.hits for s in stats)
    mem_misses = sum(s.mem.misses for s in stats)
    local = sum(s.numa.get("local_accesses", 0) for s in stats)
    remote = sum(s.numa.get("remote_accesses", 0) for s in stats)
    out.update({
        "dfg.nodes": rec.info_sum("dfg.lower", "nodes"),
        "pnr.compile_once_calls": compile_once,
        "pnr.compile_yield": ratio(compile_kernel, compile_once),
        "pnr.candidates": rec.totals("pnr.initial_placement")[0],
        "pnr.anneal_proposals": proposals,
        "pnr.anneal_accepted": accepted,
        "pnr.anneal_accept_ratio": ratio(accepted, proposals),
        "pnr.route_iterations": rec.info_sum("pnr.route", "iterations"),
        "pnr.nets_rerouted": rec.info_sum("pnr.route", "nets_rerouted"),
        "exp.cache.hits": delta["hits"],
        "exp.cache.disk_hits": delta["disk_hits"],
        "exp.cache.misses": delta["misses"],
        "exp.cache.hit_ratio": ratio(
            delta["hits"] + delta["disk_hits"], lookups
        ),
        "obs.manifest.records": rec.totals("obs.manifest.write")[0],
        "sim.firings": firings,
        "sim.executed_cycles": executed,
        "sim.skipped_cycles": skipped,
        "sim.skip_ratio": ratio(skipped, executed + skipped),
        "sim.us_per_firing": ratio(sim_s * 1e6, firings),
        "sim.us_per_executed_cycle": ratio(sim_s * 1e6, executed),
        "sim.mem.loads": sum(s.mem.loads for s in stats),
        "sim.mem.hit_ratio": ratio(mem_hits, mem_hits + mem_misses),
        "sim.mem.bank_wait_cycles": sum(s.mem.bank_wait_cycles for s in stats),
        "sim.mem.avg_latency_cycles": ratio(
            sum(s.mem.latency_total for s in stats),
            sum(s.mem.responses for s in stats),
        ),
        "sim.fmnoc_hops": sum(s.fmnoc_hops for s in stats),
        "sim.noc_hops": sum(s.noc_hops for s in stats),
        "sim.numa.local_share": ratio(local, local + remote),
    })
    return out


def critpath_overhead(runs):
    """Attached vs detached host time of each round-0 FDO simulation.

    Uses the engine's ``simulate`` directly (not the wrapped name), once
    detached and once attached per kernel, and checks that attaching the
    profiler changed no simulated statistic.
    """
    from repro.sim.engine import simulate

    round0 = next((r["_round0"] for r in runs if r.get("_round0")), [])
    if not round0:
        return None
    clock = time.perf_counter
    times = {"attached": 0.0, "detached": 0.0}
    mismatches = []
    for _, args, kwargs, result in round0:
        compiled, params, arrays, arch = args[:4]
        detached = replace(arch, sim=replace(arch.sim, critpath=False))
        digests = {}
        for mode, use in (("detached", detached), ("attached", arch)):
            gc.collect()
            start = clock()
            out = simulate(compiled, params, arrays, use, *args[4:], **kwargs)
            times[mode] += clock() - start
            digests[mode] = metrics.run_digest(out)
        if digests["attached"] != digests["detached"]:
            mismatches.append(compiled.dfg.name)
    return {
        "overhead_x": metrics.ratio(times["attached"], times["detached"]),
        "checked": len(round0),
        "mismatches": mismatches,
    }


# -- scoring ----------------------------------------------------------------


def score(runs, critpath) -> dict:
    """Failures, digests and metrics over all passes of one run."""
    median = statistics.median
    reference = next(
        (
            {p["label"]: p["digest"] for p in run["points"]}
            for run in runs
            if run["error"] is None and not run["violations"]
        ),
        None,
    )
    expected = len(reference) if reference else 0
    attempted = failed = 0
    failures = []
    valid = []
    for index, run in enumerate(runs):
        points = run.get("points", [])
        attempted += max(expected, len(points))
        problems = []
        if run["error"] is not None:
            problems.append(run["error"])
        problems += run.get("violations", [])
        got = {p["label"]: p["digest"] for p in points}
        if not problems and reference is not None and got != reference:
            changed = sorted(
                label for label in set(reference) | set(got)
                if reference.get(label) != got.get(label)
            )
            problems.append(f"digests diverged: {changed}")
            failed += len(changed)
        elif problems:
            failed += max(expected, len(points))
        if problems:
            failures.append({"pass": index, "problems": problems})
        else:
            valid.append(run)
    if critpath is not None:
        attempted += critpath["checked"]
        failed += len(critpath["mismatches"])
        if critpath["mismatches"]:
            failures.append({"critpath_changed": critpath["mismatches"]})

    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": reference,
        "metrics": None,
        "layers": None,
    }
    plain = [r for r in valid if r["kind"] == "plain"]
    if not plain:
        return out
    latencies = [p["latency_s"] for r in plain for p in r["points"]]
    tail_value, tail_pct, tail_n = metrics.tail(latencies)
    first = plain[0]
    e2e = {
        "pass_s": median(r["norm_s"] for r in plain),
        "points_per_s": median(len(r["points"]) / r["norm_s"] for r in plain),
        "point_p50_s": median(latencies),
        "point_tail_s": tail_value,
        "compile_s": median(r["compile_s"] for r in plain),
        "simulate_s": median(r["simulate_s"] for r in plain),
        "sim_firings_per_s": median(r["sim_firings_per_s"] for r in plain),
        "sim_cycles_per_s": median(r["sim_cycles_per_s"] for r in plain),
        "sim_cycles": metrics.geomean(p["cycles"] for p in first["points"]),
        **first["simulated"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "fail_ratio": failed / attempted,
    }
    out["metrics"] = e2e
    out["wall_pass_s"] = median(r["wall_s"] for r in plain)
    out["tail"] = {"percentile": tail_pct, "samples": tail_n}
    out["cycles"] = {p["label"]: p["cycles"] for p in first["points"]}
    traced = [r for r in valid if r["kind"] == "traced"]
    if traced:
        names = traced[0]["layers"]
        layers = {
            name: median(r["layers"][name] for r in traced) for name in names
        }
        layers["trace_overhead_x"] = (
            median(r["norm_s"] for r in traced) / e2e["pass_s"]
        )
        layers["obs.critpath.overhead_x"] = (
            critpath["overhead_x"] if critpath else 0.0
        )
        out["layers"] = layers
    return out


# -- output -----------------------------------------------------------------


def write_results(report, args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / (
        f"{report['workload']}-seed{args.seed}-trace{args.trace}-"
        f"{stamp}-{os.getpid()}.json"
    )
    report["finished_at"] = time.time()
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def print_report(report, path) -> None:
    print(
        f"pipebench {report['workload']} seed={report['seed']} "
        f"trace={report['trace']} passes={len(report['plan'])} "
        f"({' '.join(report['plan'])})"
    )
    units = report["units"]
    for name, value in (report["metrics"] or {}).items():
        note = ""
        if name == "point_tail_s":
            tail = report["tail"]
            note = f"  (p{tail['percentile']:.1f} of {tail['samples']} points)"
        print(f"  {name:<28} {value:>14.6g} {units[name]}{note}")
    for name, value in (report["layers"] or {}).items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for failure in report["failures"]:
        print(f"  FAILURE {failure}")
    print(
        f"  attempted {report['attempted']} failed {report['failed']}; "
        f"results: {path}"
    )


if __name__ == "__main__":
    sys.exit(main())
