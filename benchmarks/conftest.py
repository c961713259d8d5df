"""Shared benchmark helpers.

Each benchmark regenerates one table or figure of the paper's evaluation
at the ``small`` input scale, prints the same rows/series the paper
reports, and saves the rendered table under ``benchmarks/results/``.
Compiled kernels are shared across benchmarks through the experiment
harness's global compile cache, mirroring how the paper reuses one binary
per workload across machine configurations — and, via the persistent
on-disk layer enabled below, across *invocations* of the benchmark suite
and across the parallel harness's worker processes (PnR dominated the
suite's wall clock before this; see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.exp.cache import GLOBAL_CACHE
from repro.obs.manifest import config_digest, git_rev

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Persistent compile cache shared by all benchmarks, re-invocations, and
#: run_parallel workers. Keys are derived from every compile input plus a
#: digest of the compiler's sources (repro.exp.runner.compile_key), so a
#: stale directory is never *wrong*, merely cold after a compiler edit.
#: Delete it to force re-PnR.
COMPILE_CACHE_DIR = pathlib.Path(__file__).parent / ".compile-cache"
GLOBAL_CACHE.enable_disk(COMPILE_CACHE_DIR)

#: Input scale used by every benchmark (see EXPERIMENTS.md for the
#: paper-to-repro scaling table).
BENCH_SCALE = "small"


def save_result(name: str, text: str) -> None:
    """Print and persist a rendered figure/table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}")


def record_bench(
    name: str,
    *,
    wall_s: float,
    workload: str | None = None,
    cycles: int | None = None,
    config: dict | None = None,
    extra: dict | None = None,
) -> pathlib.Path:
    """Persist machine-readable telemetry for one benchmark.

    Writes ``results/BENCH_<name>.json`` with the workload, simulated
    cycle count, wall time, and a stable digest of the configuration
    knobs that define the measurement (same digest helper the run
    manifests use, so a perf regression can be tied to the exact config
    it ran under). One file per benchmark, overwritten in place — the
    perf-trajectory record is the sequence of these files across
    revisions, keyed by ``git_rev``.
    """
    config = dict(config or {})
    payload = {
        "schema": 1,
        "bench": name,
        "workload": workload,
        "cycles": cycles,
        "wall_s": round(wall_s, 6),
        "config": {key: config[key] for key in sorted(config)},
        "config_digest": config_digest(config),
        "git_rev": git_rev(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **(extra or {}),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
