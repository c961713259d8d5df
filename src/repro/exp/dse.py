"""Design-space exploration of load-store PE placement (contribution 4).

The paper performs "a design space exploration of NUPEA in SDAs to
optimize the placement of load-store PEs within Monaco's fabric"; Monaco's
shipping configuration (three-column domains on alternating LS rows) is
the outcome. This module sweeps the two placement axes on Monaco-style
fabrics — how many columns each NUPEA domain spans (= direct D0 ports per
row) and how densely LS rows are interleaved — and measures end-to-end
execution time per point.
"""

from __future__ import annotations

from repro.arch.fabric import monaco_variant
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.errors import PnRError
from repro.exp.figures import FigureResult
from repro.exp.runner import compile_cached, run_config
from repro.exp.configs import MONACO
from repro.workloads.registry import make_workload

#: Domain widths swept (columns per NUPEA domain = D0 ports per LS row).
DSE_WIDTHS = (1, 2, 3, 4)
#: LS-row strides swept (2 = Monaco's alternating rows).
DSE_STRIDES = (2, 3)


def ls_placement_dse(
    workloads=("spmspv", "dmv"),
    scale: str = "small",
    seed: int = 0,
    rows: int = 12,
    cols: int = 12,
    widths=DSE_WIDTHS,
    strides=DSE_STRIDES,
) -> FigureResult:
    """Sweep (domain width, LS-row stride); values are system cycles."""
    result = FigureResult(
        "dse-ls",
        "LS-PE placement DSE: execution time (system cycles) per variant",
        [f"w{w}/s{s}" for s in strides for w in widths],
    )
    arch = ArchParams()
    for name in workloads:
        instance = make_workload(name, scale=scale, seed=seed)
        row: dict[str, float] = {}
        meta: dict[str, float] = {}
        for stride in strides:
            for width in widths:
                label = f"w{width}/s{stride}"
                try:
                    fabric = monaco_variant(
                        rows, cols, domain_width=width,
                        ls_row_stride=stride,
                    )
                    compiled = compile_cached(
                        instance, fabric, arch, policy=EFFCC, seed=seed
                    )
                    run = run_config(
                        instance, compiled, MONACO, arch, divider=None
                    )
                    row[label] = float(run.cycles)
                    meta[label] = float(compiled.parallelism)
                except PnRError:
                    row[label] = float("inf")
        result.rows[name] = row
        result.raw[name] = meta
    result.notes.append(
        "w = columns per NUPEA domain (= direct D0 ports per LS row); "
        "s = LS row stride (2 = Monaco's alternating rows). Monaco ships "
        "w3/s2. Raw table holds the PnR-chosen parallelism."
    )
    return result
