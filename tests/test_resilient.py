"""Resilient sweep supervisor: classify, retry, timeout, resume.

The contract under test (see ``repro.exp.resilient``): a supervised
sweep returns every healthy point plus typed failure records instead of
crashing; retries are deterministic (PnR retries perturb only the
*placement* seed, journaled for reproducibility); and ``resume`` skips
exactly the points a validated journal proves complete.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from pathlib import Path

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.errors import (
    DeadlockError,
    ExperimentError,
    JobTimeout,
    PlacementError,
    PnRError,
    ReproError,
    RoutingError,
    SimulationError,
    ValidationError,
)
from repro.exp.configs import MONACO, upea
from repro.exp.resilient import (
    PNR_SEED_STRIDE,
    SweepPolicy,
    call_with_timeout,
    classify_failure,
    run_resilient,
)
from repro.exp.runner import RunSpec, _run_sweep_job
from repro.obs.manifest import completed_points, read_manifest

CONFIGS = [MONACO, upea(2)]


# -- taxonomy ---------------------------------------------------------------


def test_classify_failure_taxonomy():
    cases = [
        (JobTimeout("t"), "timeout"),
        (ValidationError("v"), "validation"),
        (DeadlockError("d"), "deadlock"),
        (RoutingError("r"), "routing"),
        (PlacementError("p"), "placement"),
        (PnRError("p"), "pnr"),
        (SimulationError("s"), "simulation"),
        (BrokenProcessPool("w"), "worker-death"),
        (ReproError("g"), "repro"),
        (RuntimeError("x"), "infrastructure"),
    ]
    for exc, kind in cases:
        assert classify_failure(exc) == kind, kind


def test_validation_error_carries_context():
    """The typed wrong-answer error names what diverged and where."""
    from repro.workloads.registry import make_workload

    instance = make_workload("dmv", scale="tiny", seed=0)
    good = {name: list(instance.reference[name]) for name in instance.outputs}
    instance.check(good)  # the reference itself validates

    bad = {name: list(vals) for name, vals in good.items()}
    first = instance.outputs[0]
    bad[first][0] += 1
    with pytest.raises(ValidationError) as err:
        instance.check(bad)
    assert err.value.workload == "dmv"
    assert err.value.array == first
    assert err.value.index == 0
    assert err.value.got != err.value.want

    short = {name: list(vals) for name, vals in good.items()}
    short[first] = short[first][:-1]
    with pytest.raises(ValidationError) as err:
        instance.check(short)
    assert err.value.array == first
    assert err.value.index is None  # length mismatch, no single index


# -- policy -----------------------------------------------------------------


def test_sweep_policy_validates_inputs():
    with pytest.raises(ExperimentError):
        SweepPolicy(on_failure="explode")
    with pytest.raises(ExperimentError):
        SweepPolicy(max_retries=-1)
    with pytest.raises(ExperimentError):
        SweepPolicy(job_timeout_s=0)


def test_wants_retry_matrix():
    retry = SweepPolicy(on_failure="retry", max_retries=2)
    assert retry.wants_retry("routing", 1)
    assert retry.wants_retry("timeout", 2)
    assert not retry.wants_retry("routing", 3)  # budget exhausted
    assert not retry.wants_retry("validation", 1)  # deterministic kind
    skip = SweepPolicy(on_failure="skip")
    assert not skip.wants_retry("routing", 1)


def test_call_with_timeout_interrupts_and_restores():
    def sleepy():
        time.sleep(10)

    before = time.perf_counter()
    with pytest.raises(JobTimeout):
        call_with_timeout(0.1, sleepy, label="sleepy")
    assert time.perf_counter() - before < 5.0
    # The previous handler and timer are restored: a fast job afterwards
    # must not be shot by a stale alarm.
    assert call_with_timeout(5.0, lambda: "ok") == "ok"
    time.sleep(0.15)  # an un-cancelled 0.1s timer would fire here


def test_call_with_timeout_passthrough_when_unlimited():
    assert call_with_timeout(None, lambda: 41 + 1) == 42
    assert call_with_timeout(0, lambda: "zero-means-off") == "zero-means-off"


# -- supervised sweeps over fake jobs ---------------------------------------
# job_fn doubles must be module-level (pickled into pool workers) and take
# the one RunSpec the supervisor sends.


def _point(spec):
    return (spec.workload, spec.config.name, spec.seed, spec.pnr_seed)


def _ok_job(spec):
    return _point(spec)


def _fail_one_job(spec):
    if spec.workload == "dmv" and spec.config.name == "upea2":
        raise SimulationError("injected mid-sweep failure")
    return _point(spec)


def _routing_until_perturbed_job(spec):
    if spec.pnr_seed is None:
        raise RoutingError("congested under the original placement seed")
    return _point(spec)


def _die_once_job(spec, marker):
    if spec.workload == "spmv" and spec.config.name == "monaco":
        marker = Path(marker)
        if not marker.exists():
            marker.write_text("x")
            os._exit(1)  # worker death -> BrokenProcessPool in the parent
    return _point(spec)


def test_skip_policy_returns_healthy_results_serial_and_pool():
    policy = SweepPolicy(on_failure="skip")
    kwargs = dict(
        scale="tiny",
        sweep_policy=policy,
        job_fn=_fail_one_job,
    )
    serial = run_resilient(["spmspv", "dmv"], CONFIGS, max_workers=1, **kwargs)
    pooled = run_resilient(["spmspv", "dmv"], CONFIGS, max_workers=2, **kwargs)
    for outcome in (serial, pooled):
        assert set(outcome.results) == {
            ("spmspv", "monaco", 0),
            ("spmspv", "upea2", 0),
            ("dmv", "monaco", 0),
        }
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert (failure.workload, failure.config) == ("dmv", "upea2")
        assert failure.kind == "simulation"
        assert not outcome.ok
    assert serial.results == pooled.results
    assert serial.failures == pooled.failures


def test_retry_perturbs_placement_seed_deterministically():
    outcome = run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=2),
        job_fn=_routing_until_perturbed_job,
    )
    assert outcome.ok
    name, config, seed, pnr_seed = outcome.results[("spmspv", "monaco", 0)]
    assert pnr_seed == 0 + PNR_SEED_STRIDE * 1  # first retry's seed


def test_retry_budget_exhaustion_records_failure():
    def always_routing(*args, **kwargs):
        raise RoutingError("never routes")

    outcome = run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=2),
        job_fn=always_routing,
    )
    assert not outcome.results
    (failure,) = outcome.failures
    assert failure.kind == "routing"
    assert failure.attempts == 3  # first try + 2 retries
    assert failure.pnr_seeds == (
        PNR_SEED_STRIDE * 1,
        PNR_SEED_STRIDE * 2,
    )


def test_abort_policy_reraises_first_failure():
    with pytest.raises(SimulationError):
        run_resilient(
            ["spmspv", "dmv"],
            CONFIGS,
            scale="tiny",
            max_workers=1,
            job_fn=_fail_one_job,  # default ABORT policy
        )


def test_job_timeout_is_classified_and_bounded(tmp_path, monkeypatch):
    # A cold compile cache: the real job's first compile alone outlasts
    # the budget, so the policy's timeout must reach the worker.
    from repro.exp import runner
    from repro.exp.cache import CompileCache

    monkeypatch.setattr(runner, "GLOBAL_CACHE", CompileCache())
    before = time.perf_counter()
    outcome = run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        cache_dir=tmp_path / "cache",
        sweep_policy=SweepPolicy(job_timeout_s=0.01, on_failure="skip"),
    )
    assert time.perf_counter() - before < 8.0
    (failure,) = outcome.failures
    assert failure.kind == "timeout"


def test_worker_death_is_retried_with_a_fresh_pool(tmp_path):
    outcome = run_resilient(
        ["spmv", "spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=2,
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=3),
        job_fn=functools.partial(
            _die_once_job, marker=str(tmp_path / "died-once")
        ),
    )
    assert outcome.ok, [f.describe() for f in outcome.failures]
    assert set(outcome.results) == {
        ("spmv", "monaco", 0),
        ("spmspv", "monaco", 0),
    }
    assert (tmp_path / "died-once").exists()


# -- real-simulator equivalence with a mid-sweep failure --------------------


def _real_but_one_fails_job(spec):
    if spec.workload == "dmv" and spec.config.name == "upea2":
        raise DeadlockError("injected mid-sweep failure")
    return _run_sweep_job(spec)


def test_serial_vs_parallel_identical_around_a_failure(tmp_path):
    """One failing point must not disturb any healthy point's result."""
    policy = SweepPolicy(on_failure="skip")
    kwargs = dict(
        scale="tiny",
        cache_dir=tmp_path / "cache",
        sweep_policy=policy,
        job_fn=_real_but_one_fails_job,
    )
    serial = run_resilient(
        ["spmspv", "dmv"], CONFIGS, max_workers=1,
        manifest_path=tmp_path / "serial.jsonl", **kwargs,
    )
    pooled = run_resilient(
        ["spmspv", "dmv"], CONFIGS, max_workers=2,
        manifest_path=tmp_path / "pooled.jsonl", **kwargs,
    )
    assert serial.results == pooled.results
    assert len(serial.results) == 3
    assert serial.failures == pooled.failures

    def stable(path):
        out = []
        for record in read_manifest(path):
            out.append(
                {
                    k: v
                    for k, v in record.items()
                    if k not in ("wall_time_s", "timestamp", "git_rev")
                }
            )
        return out

    assert stable(tmp_path / "serial.jsonl") == stable(tmp_path / "pooled.jsonl")
    statuses = [r["status"] for r in read_manifest(tmp_path / "serial.jsonl")]
    assert statuses.count("ok") == 3 and statuses.count("failed") == 1


# -- resume -----------------------------------------------------------------


def test_resume_requires_manifest():
    with pytest.raises(ExperimentError):
        run_resilient(
            ["spmspv"], [MONACO], scale="tiny", max_workers=1, resume=True,
            job_fn=_ok_job,
        )


def test_resume_skips_completed_and_reruns_failed(tmp_path):
    manifest = tmp_path / "journal.jsonl"
    first = run_resilient(
        ["spmspv", "dmv"],
        CONFIGS,
        scale="tiny",
        max_workers=1,
        cache_dir=tmp_path / "cache",
        manifest_path=manifest,
        sweep_policy=SweepPolicy(on_failure="skip"),
        job_fn=_real_but_one_fails_job,
    )
    assert len(first.results) == 3 and len(first.failures) == 1

    # Resume with the failure "fixed": only the failed point reruns.
    second = run_resilient(
        ["spmspv", "dmv"],
        CONFIGS,
        scale="tiny",
        max_workers=1,
        cache_dir=tmp_path / "cache",
        manifest_path=manifest,
        sweep_policy=SweepPolicy(on_failure="skip"),
        resume=True,
    )
    assert sorted(second.skipped) == sorted(first.results)
    assert set(second.results) == {("dmv", "upea2", 0)}
    assert second.ok

    # A third resume finds everything journaled and runs nothing.
    third = run_resilient(
        ["spmspv", "dmv"],
        CONFIGS,
        scale="tiny",
        max_workers=1,
        cache_dir=tmp_path / "cache",
        manifest_path=manifest,
        resume=True,
    )
    assert not third.results and len(third.skipped) == 4


def test_resume_ignores_stale_journal_configuration(tmp_path):
    """A journal from a different sweep configuration skips nothing."""
    manifest = tmp_path / "journal.jsonl"
    run_resilient(
        ["spmspv"], [MONACO], scale="tiny", max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest, job_fn=None,
    )
    assert len(completed_points(manifest)) == 1
    # Same points, different divider: digests differ, so nothing skips.
    outcome = run_resilient(
        ["spmspv"], [MONACO], scale="tiny", divider=4, max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest, resume=True,
    )
    assert not outcome.skipped
    assert set(outcome.results) == {("spmspv", "monaco", 0)}


def test_resume_ignores_tampered_journal_records(tmp_path):
    manifest = tmp_path / "journal.jsonl"
    run_resilient(
        ["spmspv"], [MONACO], scale="tiny", max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest,
    )
    (record,) = read_manifest(manifest)
    record["spec"]["seed"] = 99  # hand-edit without recomputing the digest
    manifest.write_text(json.dumps(record, sort_keys=True) + "\n")
    assert completed_points(manifest) == set()


def test_resume_survives_a_torn_final_line(tmp_path):
    manifest = tmp_path / "journal.jsonl"
    run_resilient(
        ["spmspv"], [MONACO], scale="tiny", max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest,
    )
    with open(manifest, "a") as handle:
        handle.write('{"schema": 3, "status": "ok", "trunca')  # killed mid-append
    assert len(completed_points(manifest)) == 1
    with pytest.raises(json.JSONDecodeError):
        read_manifest(manifest, strict=True)


# -- serial supervision ----------------------------------------------------


def test_serial_sweep_supervised(tmp_path):
    """The in-process sweep honors the same policy surface as the pool."""
    from dataclasses import replace

    from repro.arch.params import ArchParams, FaultParams

    arch = ArchParams()
    arch = replace(
        arch, sim=replace(arch.sim, faults=FaultParams(mem_drop_prob=1.0))
    )
    manifest = tmp_path / "man.jsonl"
    outcome = run_resilient(
        ["spmspv"],
        CONFIGS,
        scale="tiny",
        arch=arch,
        max_workers=1,
        manifest_path=manifest,
        sweep_policy=SweepPolicy(on_failure="skip"),
    )
    assert outcome.results == {}
    assert [f.kind for f in outcome.failures] == ["deadlock", "deadlock"]
    records = read_manifest(manifest)
    assert all(r["status"] == "failed" for r in records)
    assert all(
        r["spec"]["arch"]["sim"]["faults"]
        == dataclasses.asdict(FaultParams(mem_drop_prob=1.0))
        for r in records
    )


# -- profile-guided sweeps ---------------------------------------------------


def _spec_job(spec):
    return spec


def test_job_receives_profile_guided_spec():
    outcome = run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        job_fn=_spec_job,
        profile_guided=True,
    )
    (spec,) = outcome.results.values()
    assert isinstance(spec, RunSpec)
    assert spec.profile_guided is True


def test_profile_guided_sweep_journals_profile(tmp_path):
    """A real profile-guided sweep marks its manifest identity and
    carries the refinement report; resume honors the new digest."""
    manifest = tmp_path / "man.jsonl"
    outcome = run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        manifest_path=manifest,
        profile_guided=True,
    )
    assert outcome.ok
    (run,) = outcome.results.values()
    assert run.profile is not None
    assert set(run.profile) >= {"promoted", "demoted", "degenerate"}
    (record,) = read_manifest(manifest)
    assert record["spec"]["profile_guided"] is True
    assert record["profile_report"] == dict(run.profile)
    # The journal proves the point complete under the *guided* digest...
    resumed = run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        manifest_path=manifest,
        profile_guided=True,
        resume=True,
    )
    assert resumed.skipped == [("spmspv", "monaco", 0)]
    # (A static sweep's refusal to alias this journal is covered by
    # test_static_resume_does_not_alias_guided_journal below.)


def test_static_resume_does_not_alias_guided_journal(tmp_path):
    """A guided record must not prove the *static* point complete: the
    two identities digest differently, so resume never aliases them."""
    from repro.obs.manifest import config_digest

    manifest = tmp_path / "man.jsonl"
    run_resilient(
        ["spmspv"],
        [MONACO],
        scale="tiny",
        max_workers=1,
        manifest_path=manifest,
        profile_guided=True,
    )
    (record,) = read_manifest(manifest)
    done = completed_points(manifest)
    assert record["point_digest"] in done  # the guided identity is proven
    # The static identity of the same point.
    static_digest = config_digest({**record["spec"], "profile_guided": False})
    assert static_digest not in done
