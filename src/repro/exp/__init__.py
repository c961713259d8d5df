"""Experiment harness: regenerate every table and figure of the paper."""

from repro.exp.cache import GLOBAL_CACHE, CompileCache
from repro.exp.configs import (
    MONACO,
    MachineConfig,
    ideal,
    numa,
    primary_configs,
    upea,
)
from repro.exp.dse import ls_placement_dse
from repro.exp.fdo import (
    FdoResult,
    FdoRound,
    blame_to_weights,
    run_fdo,
)
from repro.exp.figures import (
    FigureResult,
    fig6c,
    fig11,
    fig12,
    fig14,
    fig15,
    fig16,
    fig17,
)
from repro.exp.report import format_figure
from repro.exp.runner import (
    PAPER_DIVIDER,
    RunResult,
    RunSpec,
    compile_cached,
    execute,
    run_config,
)
from repro.exp.tables import format_table1, table1

__all__ = [
    "CompileCache",
    "FdoResult",
    "FdoRound",
    "FigureResult",
    "GLOBAL_CACHE",
    "blame_to_weights",
    "run_fdo",
    "MONACO",
    "MachineConfig",
    "PAPER_DIVIDER",
    "RunResult",
    "RunSpec",
    "compile_cached",
    "execute",
    "fig6c",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "format_figure",
    "format_table1",
    "ideal",
    "ls_placement_dse",
    "numa",
    "primary_configs",
    "run_config",
    "table1",
    "upea",
]
