"""Every identity is derived from the RunSpec, and derived soundly.

Two identities hang off one :class:`~repro.exp.runner.RunSpec`: the
compile-cache key (:func:`repro.exp.runner.compile_key`) and the journal
point digest (:meth:`RunSpec.digest`, also the snapshot file name). A key
that leaves out an input aliases two different artifacts or results; the
regression tests below reproduce the three aliasing bugs the hand-built
identities had, and the soundness tests walk every dataclass field of the
spec so that a field added later cannot silently escape either identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from benchmarks.bench_pnr_compile import pnr_digest
from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, FaultParams, SimParams, TimingParams
from repro.exp import runner
from repro.exp.cache import CompileCache
from repro.exp.configs import MONACO, numa
from repro.exp.resilient import run_resilient
from repro.exp.runner import (
    PAPER_DIVIDER,
    RunSpec,
    compile_cached,
    execute,
    run_config,
    run_parallel,
)
from repro.obs.manifest import build_manifest, completed_points, read_manifest
from repro.workloads.registry import make_workload


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private two-layer compile cache in place of the global one."""
    cache = CompileCache(tmp_path / "cache")
    monkeypatch.setattr(runner, "GLOBAL_CACHE", cache)
    return cache


# -- the three reproduced aliasing bugs -------------------------------------


@pytest.mark.parametrize(
    "arch",
    [ArchParams(timing=TimingParams(hop_units=3.0)),
     ArchParams(noc_model="monaco-tracks")],
    ids=["hop-units", "noc-model"],
)
def test_arch_change_misses_both_cache_layers(fresh_cache, arch):
    instance = make_workload("spmspv", scale="tiny", seed=0)
    default = compile_cached(instance, monaco(12, 12), ArchParams())
    assert default.timing.clock_divider == 2
    fresh_cache.clear()  # the second compile must miss on disk too
    compiled = compile_cached(instance, monaco(12, 12), arch)
    assert (fresh_cache.misses, fresh_cache.disk_hits) == (1, 0)
    if arch.timing.hop_units == 3.0:
        assert compiled.timing.clock_divider == 5


def test_sparse_input_seed_misses_under_a_shared_placement_seed(fresh_cache):
    """spmv's IR (array sizes) follows its input seed; a PnR retry's
    placement seed can collide with another point's input seed."""
    first = make_workload("spmv", scale="tiny", seed=0)
    compile_cached(first, monaco(12, 12), ArchParams(), seed=5)
    second = make_workload("spmv", scale="tiny", seed=5)
    compiled = compile_cached(second, monaco(12, 12), ArchParams(), seed=5)
    assert fresh_cache.misses == 2
    run = run_config(second, compiled, MONACO, ArchParams())
    assert run.cycles > 0  # validated against the seed-5 reference


def _journal_one(tmp_path, name, **kwargs):
    manifest = tmp_path / f"{name}.jsonl"
    run_resilient(
        ["spmspv"], [kwargs.pop("config", MONACO)], scale="tiny",
        max_workers=1, manifest_path=manifest, **kwargs,
    )
    return manifest


def test_journal_under_default_arch_does_not_resume_other_tracks(tmp_path):
    manifest = _journal_one(tmp_path, "default")
    resumed = run_resilient(
        ["spmspv"], [MONACO], scale="tiny", max_workers=1,
        arch=ArchParams(noc_tracks=7), manifest_path=manifest, resume=True,
    )
    assert not resumed.skipped
    assert set(resumed.results) == {("spmspv", "monaco", 0)}


def test_journal_under_one_numa_seed_does_not_resume_another(tmp_path):
    assert numa(2).name == numa(2, seed=1).name == "numa-upea2"
    manifest = _journal_one(tmp_path, "numa", config=numa(2))
    resumed = run_resilient(
        ["spmspv"], [numa(2, seed=1)], scale="tiny", max_workers=1,
        manifest_path=manifest, resume=True,
    )
    assert not resumed.skipped
    again = run_resilient(
        ["spmspv"], [numa(2)], scale="tiny", max_workers=1,
        manifest_path=manifest, resume=True,
    )
    assert again.skipped == [("spmspv", "numa-upea2", 0)]


def test_execute_and_sweep_journal_one_point_digest(tmp_path):
    spec = RunSpec("spmspv", "tiny", divider=PAPER_DIVIDER)
    _, run = execute(spec)
    manifest = tmp_path / "sweep.jsonl"
    swept = run_parallel(
        ["spmspv"], [MONACO], scale="tiny", max_workers=1,
        manifest_path=manifest,
    )
    (record,) = read_manifest(manifest)
    assert record["point_digest"] == build_manifest(spec, run)["point_digest"]
    assert record["point_digest"] == spec.digest()
    assert record["point_digest"] in completed_points(manifest)
    assert swept[("spmspv", "monaco", 0)].cycles == run.cycles


# -- key soundness over every field -----------------------------------------

#: A base point whose dataclass tree reaches every field: the fault block
#: is present (all probabilities zero, so inactive).
BASE = RunSpec(
    "spmspv",
    "tiny",
    parallelism=1,
    arch=ArchParams(sim=SimParams(faults=FaultParams())),
)

#: Another valid value for every leaf field, by dotted path.
PERTURB = {
    "workload": "dmv",
    "scale": "small",
    "seed": 3,
    "pnr_seed": 5,
    "fabric": ("monaco", 10, 10),
    "arch.memory.n_banks": 16,
    "arch.memory.line_words": 8,
    "arch.memory.cache_lines": 2048,
    "arch.memory.total_words": 1 << 20,
    "arch.memory.hit_cycles": 3,
    "arch.memory.memory_cycles": 6,
    "arch.memory.bank_throughput": 2,
    "arch.sim.fifo_capacity": 3,
    "arch.sim.max_outstanding": 3,
    "arch.sim.clock_divider": 3,
    "arch.sim.deadlock_cycles": 40_000,
    "arch.sim.max_cycles": 100_000_000,
    "arch.sim.cycle_skip": False,
    "arch.sim.trace": True,
    "arch.sim.trace_path": "trace.json",
    "arch.sim.critpath": True,
    "arch.sim.faults.seed": 1,
    "arch.sim.faults.mem_delay_prob": 0.1,
    "arch.sim.faults.mem_delay_cycles": 4,
    "arch.sim.faults.mem_drop_prob": 0.1,
    "arch.sim.faults.pe_stall_prob": 0.1,
    "arch.sim.faults.grant_skip_prob": 0.1,
    "arch.sim.check": True,
    "arch.sim.checkpoint_path": "point.snap",
    "arch.sim.checkpoint_every": 50,
    "arch.timing.pe_logic_units": 1.5,
    "arch.timing.hop_units": 3.0,
    "arch.timing.system_period_units": 5.0,
    "arch.noc_tracks": 7,
    "arch.noc_model": "monaco-tracks",
    "config.name": "monaco-b",
    "config.kind": "upea",
    "config.upea_fabric_cycles": 2,
    "config.numa_domains": 2,
    "config.numa_seed": 1,
    "policy": "only-domain-aware",
    "parallelism": 2,
    "profile_guided": True,
    "node_weights": {0: 4.0},
    "divider": 3,
}


def leaf_paths(value, prefix=""):
    """Dotted paths of every non-dataclass field under ``value``."""
    for f in dataclasses.fields(value):
        child = getattr(value, f.name)
        path = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(child):
            yield from leaf_paths(child, path + ".")
        else:
            yield path


def perturbed(value, path: str, new):
    head, _, rest = path.partition(".")
    if rest:
        new = perturbed(getattr(value, head), rest, new)
    return dataclasses.replace(value, **{head: new})


def test_every_field_has_a_perturbation():
    assert sorted(leaf_paths(BASE)) == sorted(PERTURB)


class _Probed(Exception):
    pass


class _KeyProbe:
    """Stands in for the compile cache: records the key ``execute``
    derives and the compile it would run, then stops the point."""

    def get_or_compile(self, key, thunk):
        self.key, self.thunk = key, thunk
        raise _Probed


def _compile_request(spec, monkeypatch):
    probe = _KeyProbe()
    monkeypatch.setattr(runner, "GLOBAL_CACHE", probe)
    with pytest.raises(_Probed):
        execute(spec)
    return probe.key, probe.thunk


def _artifact_digest(compiled) -> str:
    payload = [
        pnr_digest(compiled),
        compiled.parallelism,
        [sorted(getattr(compiled.criticality, f"class_{k}")) for k in "abc"],
        json.dumps(compiled.meta, sort_keys=True, default=str),
    ]
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def test_compile_key_covers_every_compile_input(monkeypatch):
    """Each field either changes the compile key or leaves the compiled
    artifact unchanged — which proves every ``sim`` field compile-neutral."""
    base_key, base_thunk = _compile_request(BASE, monkeypatch)
    base = _artifact_digest(base_thunk())
    neutral = []
    for path, value in PERTURB.items():
        key, thunk = _compile_request(
            perturbed(BASE, path, value), monkeypatch
        )
        if key == base_key:
            assert _artifact_digest(thunk()) == base, path
            neutral.append(path)
    assert "arch.sim.check" in neutral and "divider" in neutral


def _result_digest(spec, monkeypatch) -> str:
    """Digest of the point's SimStats and final memory."""
    results = []
    simulate = runner.simulate

    def capture(*args, **kwargs):
        results.append(simulate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(runner, "simulate", capture)
    execute(spec)
    (result,) = results
    payload = [result.stats.to_dict(), result.memory]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_point_identity_covers_every_result_input(tmp_path, monkeypatch):
    """Each field either changes the point digest or leaves the point's
    SimStats and final memory unchanged — which proves the three
    excluded output-location fields result-neutral."""
    monkeypatch.chdir(tmp_path)  # checkpoint and trace files land here
    base_digest = BASE.digest()
    base = _result_digest(BASE, monkeypatch)
    neutral = []
    for path, value in PERTURB.items():
        spec = perturbed(BASE, path, value)
        if spec.digest() == base_digest:
            assert _result_digest(spec, monkeypatch) == base, path
            neutral.append(path)
    assert sorted(neutral) == [
        "arch.sim.checkpoint_every",
        "arch.sim.checkpoint_path",
        "arch.sim.trace_path",
    ]
