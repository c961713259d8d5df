"""Run (workload, machine config) points and collect cycle counts.

One frozen :class:`RunSpec` names a point completely: the workload
instance (workload, scale, input seed), how it is compiled (fabric, the
full :class:`~repro.arch.params.ArchParams`, policy, parallelism,
placement seed, profile-guided flag, per-node weights) and how it is
simulated (the full :class:`~repro.exp.configs.MachineConfig` and the
clock divider). :func:`execute` is the one make-workload -> compile ->
simulate -> validate path; the CLI, the sweep workers and the FDO loop
all call it.

Every identity is derived, never assembled by hand:

* the compile-cache key (:func:`compile_key`) is a digest of the kernel
  IR, the fabric name, ``ArchParams`` without its ``sim`` block, policy,
  parallelism, placement seed, the profiling inputs when profile-guided,
  the node weights and :func:`repro.exp.cache.compiler_digest` (the
  compiler's own sources) — so a compile under other timing constants,
  another NoC model, another input seed of a sparse kernel or newer PnR
  code can never be served a stale artifact;
* the journal point identity and the snapshot file name are
  :meth:`RunSpec.digest`: the whole spec minus the three output-location
  fields (``checkpoint_path``, ``checkpoint_every``, ``trace_path``) that
  :func:`repro.sim.snapshot.sim_config_digest` also nulls.

Every simulated run is validated against the workload's reference output
— a performance number from a run that computed the wrong answer would be
meaningless.

:func:`run_parallel` fans a (workload x config x seed) sweep out over a
``ProcessPoolExecutor`` under the resilient sweep supervisor
(:mod:`repro.exp.resilient`), which sends each worker the point's
:class:`RunSpec`; simulation and PnR are deterministic, so the parallel
sweep is bit-identical to the serial one, and an on-disk compile cache
(see :mod:`repro.exp.cache`) shares PnR results between workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

from repro.arch.fabric import Fabric, build_fabric
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC, PlacementPolicy, get_policy
from repro.exp.cache import GLOBAL_CACHE, compiler_digest
from repro.exp.configs import MONACO, MachineConfig
from repro.ir.serialize import kernel_to_dict
from repro.obs.manifest import canonical, config_digest
from repro.pnr.flow import compile_kernel
from repro.pnr.result import CompiledKernel
from repro.sim.engine import simulate
from repro.sim.stats import SimStats
from repro.workloads.base import WorkloadInstance
from repro.workloads.registry import make_workload

#: The paper's evaluated fabric clock divider (Sec. 6).
PAPER_DIVIDER = 2

#: (topology, rows, cols) triple — picklable stand-in for a Fabric when
#: shipping jobs to worker processes.
FabricSpec = tuple[str, int, int]

DEFAULT_FABRIC_SPEC: FabricSpec = ("monaco", 12, 12)


@dataclass(frozen=True)
class RunSpec:
    """Every input of one compile -> simulate point."""

    workload: str
    scale: str = "small"
    #: Input seed of the workload instance.
    seed: int = 0
    #: Placement seed when it differs from ``seed`` (the supervisor's PnR
    #: retries perturb only this); None = ``seed``.
    pnr_seed: int | None = None
    fabric: FabricSpec = DEFAULT_FABRIC_SPEC
    arch: ArchParams = ArchParams()
    config: MachineConfig = MONACO
    policy: str = EFFCC.name
    #: Fixed parallelism degree; None = the automatic degree search.
    parallelism: int | None = None
    #: Refine class-B/C criticality by a profiling run on the instance's
    #: own inputs before placement (:mod:`repro.core.profile`).
    profile_guided: bool = False
    #: Per-node placement-weight overrides (:mod:`repro.exp.fdo`).
    node_weights: dict[int, float] | None = None
    #: Fabric clock divider; None = the routed rule
    #: ``max(PAPER_DIVIDER, routed divider)``.
    divider: int | None = None

    @property
    def placement_seed(self) -> int:
        return self.seed if self.pnr_seed is None else self.pnr_seed

    def identity(self) -> dict:
        """Canonical form of the spec minus where outputs are written."""
        sim = replace(
            self.arch.sim,
            checkpoint_path=None,
            checkpoint_every=0,
            trace_path=None,
        )
        return canonical(replace(self, arch=replace(self.arch, sim=sim)))

    def digest(self) -> str:
        """The point's journal identity and snapshot file name."""
        return config_digest(self.identity())


@dataclass
class RunResult:
    workload: str
    config: str
    cycles: int
    stats: SimStats
    parallelism: int
    #: Wall-clock seconds the timed simulation took (excluded from
    #: equality — two bit-identical runs never take identical time).
    wall_time: float = field(default=0.0, compare=False)
    #: Observability bus of the run (tracing on only), for profiling.
    obs: object = field(default=None, compare=False, repr=False)
    #: Placement seed the supervisor actually compiled with when a PnR
    #: retry perturbed it (None = the point's own seed). Journaled so
    #: retried results stay reproducible; excluded from equality so a
    #: retried run still compares equal to a direct run of that seed.
    pnr_seed: int | None = field(default=None, compare=False)
    #: Compile-time telemetry (:class:`repro.pnr.result.PnRStats`) of the
    #: kernel this run simulated. Wall-clock data, so excluded from
    #: equality like ``wall_time``; None when the compile predates the
    #: stats (old cache entries).
    pnr: object = field(default=None, compare=False, repr=False)
    #: ``{"from_cycle", "executed_before", "snapshot", "restore_wall_s"}``
    #: when this run continued from a mid-simulation snapshot (see
    #: :mod:`repro.sim.snapshot`); None for fresh runs. Excluded from
    #: equality — a resumed run is bit-identical to an uninterrupted one.
    resume_info: dict | None = field(default=None, compare=False)
    #: Checkpointer write telemetry, or None when checkpointing was off.
    #: Wall-clock data, excluded from equality like ``wall_time``.
    snapshot_stats: dict | None = field(
        default=None, compare=False, repr=False
    )
    #: :meth:`repro.core.profile.ProfileReport.to_dict` of the compile's
    #: profile-guided refinement pass, or None for static compiles.
    #: Deterministic, but excluded from equality so a profiled run still
    #: compares against hand-built expectations on cycles/stats.
    profile: dict | None = field(default=None, compare=False, repr=False)


def weight_map_digest(node_weights: dict[int, float]) -> str:
    """Stable 16-hex digest of a per-node weight override map."""
    payload = json.dumps(
        {str(int(n)): float(w) for n, w in node_weights.items()},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def compile_key(
    instance: WorkloadInstance,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy,
    parallelism: int | None,
    seed: int,
    profile_guided: bool = False,
    node_weights: dict[int, float] | None = None,
) -> str:
    """The compile-cache key: a digest of every input of the compile.

    ``arch.sim`` is left out because no simulation knob reaches place
    and route (``tests/test_spec_keys.py`` proves it field by field).
    """
    arch_fields = canonical(arch)
    del arch_fields["sim"]
    payload = {
        "compiler": compiler_digest(),
        "kernel": kernel_to_dict(instance.kernel),
        "fabric": fabric.name,
        "arch": arch_fields,
        "policy": policy.name,
        "parallelism": parallelism,
        "seed": seed,
        "profile": (
            canonical([instance.params, instance.arrays])
            if profile_guided
            else None
        ),
        "node_weights": canonical(node_weights or None),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def compile_cached(
    instance: WorkloadInstance,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy = EFFCC,
    parallelism: int | None = None,
    seed: int = 0,
    incremental: bool = True,
    portfolio_jobs: int = 1,
    profile_guided: bool = False,
    node_weights: dict[int, float] | None = None,
) -> CompiledKernel:
    """Compile with the shared cache under :func:`compile_key`.

    ``incremental`` and ``portfolio_jobs`` only change *how fast* the
    same artifact is produced (bit-identical outputs, see
    :mod:`repro.pnr.flow`), so they are deliberately not part of the
    key. ``profile_guided`` profiles the instance's own inputs;
    ``node_weights`` overrides per-node placement weights.
    """
    key = compile_key(
        instance, fabric, arch, policy, parallelism, seed,
        profile_guided, node_weights,
    )
    profile = (instance.params, instance.arrays) if profile_guided else None
    return GLOBAL_CACHE.get_or_compile(
        key,
        lambda: compile_kernel(
            instance.kernel,
            fabric,
            arch,
            policy=policy,
            parallelism=parallelism,
            seed=seed,
            incremental=incremental,
            portfolio_jobs=portfolio_jobs,
            profile=profile,
            node_weights=node_weights,
        ),
    )


def run_config(
    instance: WorkloadInstance,
    compiled: CompiledKernel,
    config: MachineConfig,
    arch: ArchParams,
    divider: int | None = PAPER_DIVIDER,
    obs=None,
    checkpoint=None,
    resume_from=None,
    resume_policy: str = "strict",
) -> RunResult:
    """Simulate one (compiled workload, machine config) pair and validate.

    ``divider=None`` applies the routed rule: the paper's divider, or
    slower when the routed design's timing needs it.
    ``checkpoint``/``resume_from``/``resume_policy`` pass through to
    :func:`repro.sim.engine.simulate` (see :mod:`repro.sim.snapshot`).
    """
    if divider is None:
        divider = max(PAPER_DIVIDER, compiled.timing.clock_divider)
    start = time.perf_counter()
    result = simulate(
        compiled,
        instance.params,
        instance.arrays,
        arch,
        frontend_factory=config.frontend_factory(divider),
        divider=divider,
        obs=obs,
        checkpoint=checkpoint,
        resume_from=resume_from,
        resume_policy=resume_policy,
    )
    wall = time.perf_counter() - start
    instance.check(result.memory)
    return RunResult(
        workload=instance.name,
        config=config.name,
        cycles=result.stats.system_cycles,
        stats=result.stats,
        parallelism=compiled.parallelism,
        wall_time=wall,
        obs=result.obs,
        pnr=compiled.pnr,
        resume_info=result.resume_info,
        snapshot_stats=result.snapshot_stats,
    )


def execute(
    spec: RunSpec,
    *,
    instance: WorkloadInstance | None = None,
    incremental: bool = True,
    portfolio_jobs: int = 1,
    checkpoint=None,
    resume_from=None,
    resume_policy: str = "strict",
) -> tuple[CompiledKernel, RunResult]:
    """Build, compile (through the cache), simulate and validate ``spec``.

    ``instance`` reuses an already built workload instance of the spec's
    (workload, scale, seed). ``incremental``/``portfolio_jobs`` only
    change compile speed; the checkpoint/resume arguments pass through
    to :func:`run_config`.
    """
    if instance is None:
        instance = make_workload(
            spec.workload, scale=spec.scale, seed=spec.seed
        )
    compiled = compile_cached(
        instance,
        build_fabric(*spec.fabric),
        spec.arch,
        policy=get_policy(spec.policy),
        parallelism=spec.parallelism,
        seed=spec.placement_seed,
        incremental=incremental,
        portfolio_jobs=portfolio_jobs,
        profile_guided=spec.profile_guided,
        node_weights=spec.node_weights,
    )
    run = run_config(
        instance,
        compiled,
        spec.config,
        spec.arch,
        spec.divider,
        checkpoint=checkpoint,
        resume_from=resume_from,
        resume_policy=resume_policy,
    )
    run.pnr_seed = spec.pnr_seed
    run.profile = compiled.meta.get("profile")
    return compiled, run


# -- parallel sweep ---------------------------------------------------------


def _run_sweep_job(
    spec: RunSpec,
    cache_dir: str | None = None,
    sweep_policy=None,
    journal: str | None = None,
) -> RunResult:
    """One sweep point; runs inside a worker process.

    ``cache_dir`` attaches the shared on-disk compile cache. The
    policy's ``job_timeout_s`` arms a ``SIGALRM`` wall-clock budget
    around compile+simulate (see
    :func:`repro.exp.resilient.call_with_timeout`).

    A ``spec.arch.sim.checkpoint_path`` (the supervisor sets
    ``<snapshot_dir>/<point digest>.snap`` when the sweep has a
    snapshot directory) arms mid-simulation checkpointing: any valid
    snapshot already there is resumed (invalid ones are discarded),
    SIGTERM/SIGINT and timeout expiry snapshot-then-raise instead of
    killing the attempt cold, the policy's ``job_cycle_budget`` bounds
    each attempt, and snapshot writes are journaled to ``journal``.
    """
    from repro.exp.resilient import ABORT, call_with_timeout

    sweep_policy = sweep_policy or ABORT
    if cache_dir is not None and (
        GLOBAL_CACHE.disk_dir is None
        or str(GLOBAL_CACHE.disk_dir) != cache_dir
    ):
        # Always point at the *requested* dir: warm in-process reuse
        # (max_workers <= 1) must not silently keep a previous sweep's
        # cache directory.
        GLOBAL_CACHE.enable_disk(cache_dir)

    path = spec.arch.sim.checkpoint_path
    watchdog = checkpoint = None
    if path is not None:
        from repro.sim.snapshot import CheckpointConfig, Watchdog

        watchdog = Watchdog()
        checkpoint = CheckpointConfig(
            path=path,
            every_cycles=spec.arch.sim.checkpoint_every,
            cycle_budget=sweep_policy.job_cycle_budget,
            install_signals=True,
            watchdog=watchdog,
            journal_path=journal,
            # The file is named by the point digest.
            journal_fields={
                "point_digest": os.path.splitext(os.path.basename(path))[0]
            },
        )

    def job() -> RunResult:
        # A retried attempt continues from its predecessor's snapshot;
        # torn/stale files are discarded, never fatal.
        return execute(
            spec,
            checkpoint=checkpoint,
            resume_from=path,
            resume_policy="discard",
        )[1]

    return call_with_timeout(
        sweep_policy.job_timeout_s,
        job,
        label=f"{spec.workload}/{spec.config.name}/seed{spec.seed}",
        watchdog=watchdog,
        grace_s=sweep_policy.grace_s,
    )


def run_parallel(
    workloads: list[str],
    configs: list[MachineConfig],
    scale: str = "small",
    seeds: tuple[int, ...] = (0,),
    arch: ArchParams | None = None,
    policy: PlacementPolicy = EFFCC,
    divider: int | None = PAPER_DIVIDER,
    fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
    max_workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    manifest_path: str | os.PathLike | None = None,
    sweep_policy=None,
    resume: bool = False,
    snapshot_dir: str | os.PathLike | None = None,
    profile_guided: bool = False,
) -> dict[tuple[str, str, int], RunResult]:
    """Fan (workload x config x seed) out over worker processes.

    Returns ``{(workload, config_name, seed): RunResult}``. Results are
    bit-identical to running each point serially: compilation and
    simulation are deterministic, and every job recompiles (or loads from
    the shared on-disk cache) its own kernel, so no cross-job state leaks.

    ``max_workers <= 1`` runs in-process — same code path minus the pool,
    which keeps the serial-vs-parallel equivalence testable without fork
    overhead. ``cache_dir`` points workers at a shared persistent compile
    cache so each distinct PnR key is placed-and-routed once per machine.

    ``manifest_path`` appends one JSONL record per run (see
    :mod:`repro.obs.manifest`). Records are written by the parent in job
    order, so serial and parallel sweeps produce identical manifests up
    to the volatile ``wall_time_s``/``timestamp`` fields.

    This is the results-only facade over
    :func:`repro.exp.resilient.run_resilient`: with the default
    fail-fast policy the first failure raises, exactly as before the
    supervisor existed. Pass ``sweep_policy`` / ``resume`` for graceful
    degradation — but use :func:`~repro.exp.resilient.run_resilient`
    directly when you need the typed
    :class:`~repro.exp.resilient.FailureRecord` s and the skipped-point
    list, since this facade returns the healthy results alone.
    """
    from repro.exp.resilient import run_resilient

    outcome = run_resilient(
        workloads,
        configs,
        scale=scale,
        seeds=seeds,
        arch=arch,
        policy=policy,
        divider=divider,
        fabric_spec=fabric_spec,
        max_workers=max_workers,
        cache_dir=cache_dir,
        manifest_path=manifest_path,
        sweep_policy=sweep_policy,
        resume=resume,
        snapshot_dir=snapshot_dir,
        profile_guided=profile_guided,
    )
    return outcome.results
