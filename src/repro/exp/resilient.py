"""Resilient sweep supervision: retry, timeout, skip, resume.

The paper's evaluation (Sec. 6) is a large (workload x config x seed)
sweep. Before this module, one raising job — a
:class:`~repro.errors.DeadlockError`, a routing failure on a tight
fabric, a reference-check mismatch, a killed worker — aborted the whole
sweep at ``future.result()`` and left a truncated manifest. The
supervisor here gives the harness the fault model of a real job
scheduler:

* every job runs under a :class:`SweepPolicy` — per-job wall-clock
  timeout (delivered *inside* the job via ``SIGALRM``, so it measures
  execution, not queueing), bounded retries with exponential backoff,
  and an ``on_failure`` disposition (``abort`` preserves the historical
  fail-fast behavior and stays the default);
* failures are caught per job — including worker-process death, which
  surfaces as ``BrokenProcessPool`` — classified against the repro
  exception hierarchy (:func:`classify_failure`), and surfaced as typed
  :class:`FailureRecord` s; the sweep returns every healthy point plus
  the failure records instead of crashing;
* place-and-route failures retry under a *perturbed placement seed*
  (``seed + PNR_SEED_STRIDE * attempt`` — deterministic, journaled into
  the manifest as ``pnr_seed``, so a retried result stays exactly
  reproducible) while the workload's *input* seed never changes;
* completed points are journaled to the JSONL manifest
  (:mod:`repro.obs.manifest`) and :func:`run_resilient` with
  ``resume=True`` skips any point whose validated journal entry already
  succeeded — a crash halfway through an overnight sweep costs only the
  unfinished points.
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.arch.params import ArchParams
from repro.core.policy import EFFCC, PlacementPolicy
from repro.errors import (
    DeadlockError,
    ExperimentError,
    JobTimeout,
    PlacementError,
    PnRError,
    ReproError,
    RoutingError,
    SimulationError,
    SimulationPreempted,
    ValidationError,
)
from repro.exp.runner import (
    DEFAULT_FABRIC_SPEC,
    PAPER_DIVIDER,
    RunSpec,
    _run_sweep_job,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    append_manifest,
    build_manifest,
    completed_points,
    git_rev,
)

#: Stride between perturbed placement seeds on PnR retry. A large prime
#: keeps retried seeds far from every input seed a sweep plausibly uses,
#: so a perturbed compile can never collide with a sibling point's cache
#: key.
PNR_SEED_STRIDE = 7919

#: Failure kinds whose retry may consult a perturbed placement seed.
PNR_KINDS = ("routing", "placement", "pnr")

#: Kinds that are deterministic properties of the point itself — the
#: same inputs will fail the same way, so retrying burns time for
#: nothing. (Deadlock and wrong answers are *bugs*, not bad luck.)
DETERMINISTIC_KINDS = ("validation", "deadlock", "simulation")


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the supervisor's failure taxonomy."""
    if isinstance(exc, SimulationPreempted):
        # Deliberately NOT a SimulationError: a preempted job is
        # retryable (it left a snapshot), never a deterministic bug.
        return exc.kind
    if isinstance(exc, JobTimeout):
        return "timeout"
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, RoutingError):
        return "routing"
    if isinstance(exc, PlacementError):
        return "placement"
    if isinstance(exc, PnRError):
        return "pnr"
    if isinstance(exc, SimulationError):
        return "simulation"
    if isinstance(exc, BrokenProcessPool):
        return "worker-death"
    if isinstance(exc, ReproError):
        return "repro"
    return "infrastructure"


def call_with_timeout(timeout_s, thunk, label: str = "", watchdog=None,
                      grace_s: float = 5.0):
    """Run ``thunk`` under a wall-clock budget; raise :class:`JobTimeout`.

    Uses ``SIGALRM``/``setitimer``, so it interrupts pure-Python
    simulation loops mid-flight and measures actual execution (it runs
    in the worker's main thread, after the job was dequeued). On
    platforms without ``SIGALRM`` — or off the main thread — the budget
    is silently not enforced.

    ``watchdog`` (a :class:`repro.sim.snapshot.Watchdog`) switches
    expiry to a two-stage graceful kill: the first alarm only *requests*
    cooperative preemption — the simulator snapshots its state and
    raises :class:`~repro.errors.SimulationPreempted` at the next cycle
    boundary — and the timer is re-armed for ``grace_s``; only if the
    job is still running when the grace period expires (hung outside
    the engine loop) does the hard :class:`JobTimeout` fire.
    """
    if not timeout_s:
        return thunk()
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return thunk()

    graced = False

    def _alarm(signum, frame):
        nonlocal graced
        if watchdog is not None and not graced:
            graced = True
            watchdog.request(
                f"job {label or '<anonymous>'} exceeded {timeout_s}s",
                kind="timeout",
            )
            signal.setitimer(signal.ITIMER_REAL, max(grace_s, 0.001))
            return
        raise JobTimeout(f"job {label or '<anonymous>'} exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return thunk()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class SweepPolicy:
    """How the supervisor treats one job's lifecycle.

    ``on_failure``:

    * ``"abort"`` — re-raise the first failure (historical behavior;
      the default, so unsupervised callers see no change);
    * ``"skip"`` — record a :class:`FailureRecord` and move on;
    * ``"retry"`` — retry kinds in ``retryable_kinds`` up to
      ``max_retries`` times (PnR kinds under a perturbed placement
      seed), then degrade to skip.
    """

    #: Per-job wall-clock budget in seconds (None = unlimited).
    job_timeout_s: float | None = None
    max_retries: int = 2
    #: Base backoff; attempt ``n`` sleeps ``backoff_s * 2**(n-1)``.
    backoff_s: float = 0.0
    on_failure: str = "abort"
    retryable_kinds: tuple[str, ...] = (
        "routing",
        "placement",
        "pnr",
        "timeout",
        "worker-death",
        "preempted",
    )
    #: Periodic snapshot cadence in system cycles, per job (0 = only on
    #: preemption). Effective only when the sweep runs with a
    #: ``snapshot_dir``.
    checkpoint_every: int = 0
    #: Cycles each *attempt* may execute before snapshotting and yielding
    #: (None = unlimited). Counts per process, so a resumed attempt
    #: always advances past its predecessor.
    job_cycle_budget: int | None = None
    #: Seconds a timed-out job gets to snapshot cooperatively before the
    #: hard :class:`~repro.errors.JobTimeout` fires.
    grace_s: float = 5.0

    def __post_init__(self):
        if self.on_failure not in ("abort", "skip", "retry"):
            raise ExperimentError(
                f"on_failure must be abort|skip|retry, got {self.on_failure!r}"
            )
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ExperimentError("job_timeout_s must be positive")
        if self.checkpoint_every < 0:
            raise ExperimentError("checkpoint_every must be >= 0")
        if self.job_cycle_budget is not None and self.job_cycle_budget < 0:
            raise ExperimentError("job_cycle_budget must be >= 0")
        if self.grace_s <= 0:
            raise ExperimentError("grace_s must be positive")

    def wants_retry(self, kind: str, attempts: int) -> bool:
        return (
            self.on_failure == "retry"
            and kind in self.retryable_kinds
            and attempts <= self.max_retries
        )


#: Fail-fast policy: exactly the pre-supervisor sweep semantics.
ABORT = SweepPolicy(on_failure="abort")


@dataclass
class FailureRecord:
    """One sweep point that did not produce a result."""

    workload: str
    config: str
    seed: int
    #: Taxonomy bucket from :func:`classify_failure`.
    kind: str
    message: str
    #: Total attempts made (1 = failed first try, no retries granted).
    attempts: int = 1
    #: Perturbed placement seeds tried on PnR retries (reproducibility).
    pnr_seeds: tuple[int, ...] = ()
    #: Pre-run identity digest (matches the resume journal).
    point_digest: str = ""

    def describe(self) -> str:
        extra = (
            f" after {self.attempts} attempts" if self.attempts > 1 else ""
        )
        return (
            f"{self.workload}/{self.config}/seed{self.seed}: "
            f"[{self.kind}]{extra} {self.message.splitlines()[0]}"
        )

    def to_manifest(self, spec: RunSpec) -> dict:
        """A ``status: failed`` journal record for this failure of the
        point ``spec``."""
        return {
            "schema": MANIFEST_SCHEMA,
            "status": "failed",
            "point_digest": spec.digest(),
            "spec": spec.identity(),
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "pnr_seeds": list(self.pnr_seeds),
            "git_rev": git_rev(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }


@dataclass
class SweepOutcome:
    """What a supervised sweep produced.

    ``results`` holds every healthy point, ``failures`` a typed record
    per point that exhausted its policy, ``skipped`` the keys resumed
    from the journal (already complete, not rerun).
    """

    results: dict = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    skipped: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = [f"{len(self.results)} ok"]
        if self.skipped:
            parts.append(f"{len(self.skipped)} resumed")
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        return ", ".join(parts)


@dataclass
class _Job:
    """Mutable supervision state for one sweep point."""

    spec: RunSpec
    attempts: int = 0
    pnr_seed: int | None = None
    pnr_seeds: list[int] = field(default_factory=list)
    #: The point's journal identity (:meth:`RunSpec.digest`).
    digest: str = field(init=False)

    def __post_init__(self):
        self.digest = self.spec.digest()

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.spec.workload, self.spec.config.name, self.spec.seed)


def run_resilient(
    workloads: list[str],
    configs: list,
    scale: str = "small",
    seeds: tuple[int, ...] = (0,),
    arch: ArchParams | None = None,
    policy: PlacementPolicy = EFFCC,
    divider: int | None = PAPER_DIVIDER,
    fabric_spec=DEFAULT_FABRIC_SPEC,
    max_workers: int | None = None,
    cache_dir=None,
    manifest_path=None,
    sweep_policy: SweepPolicy | None = None,
    resume: bool = False,
    snapshot_dir=None,
    job_fn=None,
    profile_guided: bool = False,
) -> SweepOutcome:
    """Supervised (workload x config x seed) sweep.

    Mirrors :func:`repro.exp.runner.run_parallel` (which delegates here)
    but returns a :class:`SweepOutcome` of ``(results, failures,
    skipped)`` instead of raising on the first bad point. With the
    default :data:`ABORT` policy the behavior — results, manifest
    records, raised exception — is that of a fail-fast sweep.

    Each point is one :class:`~repro.exp.runner.RunSpec`; its digest is
    the point's journal identity. ``resume=True`` requires
    ``manifest_path`` and skips every point the journal proves complete
    (see :func:`repro.obs.manifest.completed_points` for the digest
    validation that keeps a stale journal from poisoning the run).

    ``snapshot_dir`` arms mid-simulation checkpointing
    (:mod:`repro.sim.snapshot`): each job periodically snapshots to
    ``<snapshot_dir>/<point_digest>.snap`` per the policy's
    ``checkpoint_every``/``job_cycle_budget``, a timed-out or SIGTERMed
    job snapshots during its grace period instead of dying cold, and a
    retried (or ``resume=True``-rerun) point *continues from its last
    valid snapshot* rather than from cycle 0. Torn or configuration-
    mismatched snapshots are detected, discarded and the point restarts
    fresh — never wedging the retry loop.

    ``job_fn`` is a test seam: a picklable callable taking one
    :class:`~repro.exp.runner.RunSpec` (default:
    :func:`repro.exp.runner._run_sweep_job` bound to this sweep's cache
    directory, policy and journal).

    ``profile_guided`` compiles every point with profile-refined
    criticality (the profiling input is each point's own instance); the
    flag is part of the spec, so profiled and static sweeps can never
    resume from each other's journals.
    """
    sweep_policy = sweep_policy or ABORT
    snapshot_str = str(snapshot_dir) if snapshot_dir is not None else None
    if snapshot_str is not None:
        os.makedirs(snapshot_str, exist_ok=True)
    job_fn = job_fn or functools.partial(
        _run_sweep_job,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        sweep_policy=sweep_policy,
        journal=str(manifest_path) if manifest_path is not None else None,
    )

    arch = arch or ArchParams()
    jobs = [
        _Job(
            RunSpec(
                name,
                scale,
                seed,
                fabric=tuple(fabric_spec),
                arch=arch,
                config=config,
                policy=policy.name,
                profile_guided=profile_guided,
                divider=divider,
            )
        )
        for name in workloads
        for config in configs
        for seed in seeds
    ]

    outcome = SweepOutcome()
    if resume:
        if manifest_path is None:
            raise ExperimentError("resume requires a manifest path")
        done = completed_points(manifest_path)
        remaining = []
        for job in jobs:
            if job.digest in done:
                outcome.skipped.append(job.key)
            else:
                remaining.append(job)
        jobs = remaining

    def attempt_spec(job: _Job) -> RunSpec:
        """The spec one attempt runs: the point's own spec plus the
        retry's placement seed and the snapshot location. Records are
        journaled under the point's own spec, so a retried point still
        proves itself complete for ``resume``."""
        spec = replace(job.spec, pnr_seed=job.pnr_seed)
        if snapshot_str is not None:
            sim = replace(
                spec.arch.sim,
                checkpoint_path=os.path.join(
                    snapshot_str, f"{job.digest}.snap"
                ),
                checkpoint_every=sweep_policy.checkpoint_every,
            )
            spec = replace(spec, arch=replace(spec.arch, sim=sim))
        return spec

    def emit_success(job: _Job, run) -> None:
        outcome.results[job.key] = run
        if manifest_path is not None:
            append_manifest(manifest_path, build_manifest(job.spec, run))

    def handle_failure(job: _Job, exc: BaseException, pending) -> None:
        kind = classify_failure(exc)
        job.attempts += 1
        if sweep_policy.on_failure == "abort":
            raise exc
        if sweep_policy.wants_retry(kind, job.attempts):
            if kind in PNR_KINDS:
                job.pnr_seed = job.spec.seed + PNR_SEED_STRIDE * job.attempts
                job.pnr_seeds.append(job.pnr_seed)
            if sweep_policy.backoff_s:
                time.sleep(
                    sweep_policy.backoff_s * (2 ** (job.attempts - 1))
                )
            pending.append(job)
            return
        failure = FailureRecord(
            workload=job.spec.workload,
            config=job.spec.config.name,
            seed=job.spec.seed,
            kind=kind,
            message=str(exc),
            attempts=job.attempts,
            pnr_seeds=tuple(job.pnr_seeds),
            point_digest=job.digest,
        )
        outcome.failures.append(failure)
        if manifest_path is not None:
            append_manifest(manifest_path, failure.to_manifest(job.spec))

    pending: deque[_Job] = deque(jobs)
    if max_workers is not None and max_workers <= 1:
        # In-process twin of the pool path — same supervision, no fork.
        while pending:
            job = pending.popleft()
            try:
                run = job_fn(attempt_spec(job))
            except Exception as exc:
                handle_failure(job, exc, pending)
            else:
                emit_success(job, run)
        return outcome

    while pending:
        batch = list(pending)
        pending.clear()
        # One pool per retry round: a BrokenProcessPool poisons every
        # outstanding future, so the round collects what it can, the
        # survivors are requeued, and the next round gets fresh workers.
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            submitted: list[tuple[_Job, object]] = []
            for job in batch:
                try:
                    submitted.append(
                        (job, pool.submit(job_fn, attempt_spec(job)))
                    )
                except BrokenProcessPool as exc:
                    handle_failure(job, exc, pending)
            # Collect in submission order so manifests stay in job order
            # (the serial/parallel manifest-equivalence contract).
            for job, future in submitted:
                try:
                    run = future.result()
                except Exception as exc:
                    handle_failure(job, exc, pending)
                else:
                    emit_success(job, run)
    return outcome
