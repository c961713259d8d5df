"""Structured JSONL run manifests — and the sweep's resume journal.

Every harness run can append one JSON object per (workload, config, seed)
point to a manifest file: what ran (config digest), where (git revision,
fabric), how long (wall time) and what it measured (the full
``SimStats.to_dict()``). Scripts consume the JSONL instead of scraping
``summary()`` text, and two manifests of the same sweep — serial or
parallel, any ``--jobs`` — differ only in ``wall_time_s`` and
``timestamp``.

The manifest doubles as the resilient sweep's checkpoint journal
(see :mod:`repro.exp.resilient`): every record carries a ``status``
(``"ok"`` / ``"failed"``), the point's ``spec`` — the canonical form of
its :class:`~repro.exp.runner.RunSpec`, everything known before the run
— and a ``point_digest`` of that spec (:meth:`RunSpec.digest`). On
``sweep --resume`` a point is skipped only when the journal holds an
``ok`` record whose stored digest both matches the digest recomputed
from the record's own ``spec`` (integrity: a hand-edited or truncated
journal entry is ignored) and equals the digest of the point about to
run (staleness: a journal written under any other sweep configuration —
different scale, arch knob, machine config, fault model — can never
poison a run).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import subprocess
import time

#: Manifest schema version; bump on incompatible layout changes.
#: v2: ``status``, ``point_digest`` and ``faults`` fields (resume journal).
#: v3: the identity is the whole canonical ``spec`` (no flat fields).
MANIFEST_SCHEMA = 3

#: Keys that legitimately differ between two runs of the same point.
#: ``pnr`` is compile-time telemetry (moves/s, per-phase wall times) —
#: informative in the record, but never part of the stable view.
#: ``resume`` records how a preempted point was continued from its
#: snapshot (see :mod:`repro.sim.snapshot`); the resumed run's results
#: are bit-identical to an uninterrupted one, so the stable views of a
#: clean and a resumed manifest must compare equal.
VOLATILE_KEYS = ("wall_time_s", "timestamp", "git_rev", "pnr", "resume")


@functools.lru_cache(maxsize=1)
def git_rev() -> str:
    """Current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def canonical(value):
    """``value`` as plain JSON data: dataclasses become field dicts
    (recursively), tuples lists, mapping keys strings. Identities are
    digests of this form, so a field added to any dataclass joins every
    identity that embeds it without further code."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def config_digest(fields: dict) -> str:
    """Stable short digest of the run configuration."""
    payload = json.dumps(
        {"schema": MANIFEST_SCHEMA, **fields}, sort_keys=True
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _energy_block(stats) -> dict:
    """Deterministic energy breakdown for one record.

    Priced purely from stable counters (firings, hops, accesses), so the
    block belongs in the *stable* view: serial and parallel sweeps of
    the same point must produce byte-identical energy blocks.
    """
    from repro.sim.energy import estimate_energy

    return estimate_energy(stats).to_dict()


def build_manifest(spec, run) -> dict:
    """One manifest record for a :class:`~repro.exp.runner.RunResult`
    of the point ``spec`` (a :class:`~repro.exp.runner.RunSpec`)."""
    identity = spec.identity()
    pnr_seed = getattr(run, "pnr_seed", None)
    record = {
        "schema": MANIFEST_SCHEMA,
        "status": "ok",
        "digest": config_digest(
            {**identity, "parallelism": run.parallelism}
        ),
        "point_digest": config_digest(identity),
        "spec": identity,
        "parallelism": run.parallelism,
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": round(getattr(run, "wall_time", 0.0), 6),
        "cycles": run.cycles,
        "stats": run.stats.to_dict(),
        "energy": _energy_block(run.stats),
    }
    if pnr_seed is not None and pnr_seed != spec.placement_seed:
        # The supervisor retried PnR under a perturbed placement seed;
        # journal it so the result stays reproducible from the record.
        record["pnr_seed"] = pnr_seed
    pnr = getattr(run, "pnr", None)
    if pnr is not None:
        record["pnr"] = pnr.to_dict()
    profile_report = getattr(run, "profile", None)
    if profile_report is not None:
        # Outcome of the profile-guided refinement pass — deterministic
        # (promoted/demoted node ids, degeneracy note), so it lives in
        # the *stable* view; the pre-run identity above carries only the
        # ``profile_guided`` flag.
        record["profile_report"] = dict(profile_report)
    resume_info = getattr(run, "resume_info", None)
    if resume_info is not None:
        # The point was continued from a mid-simulation snapshot; the
        # stats above are still bit-identical to an uninterrupted run
        # (``resume`` is volatile, see VOLATILE_KEYS).
        record["resume"] = dict(resume_info)
    return record


def completed_points(path) -> set[str]:
    """Point digests the journal proves completed successfully.

    Only ``status == "ok"`` records of the current schema count, and
    only when the stored ``point_digest`` matches the digest recomputed
    from the record's own fields — a tampered, truncated or
    stale-schema entry is silently ignored rather than trusted.
    """
    try:
        records = read_manifest(path, strict=False)
    except OSError:
        return set()
    done: set[str] = set()
    for record in records:
        if record.get("schema") != MANIFEST_SCHEMA:
            continue
        if record.get("status", "ok") != "ok":
            continue
        stored = record.get("point_digest")
        spec = record.get("spec")
        if stored and isinstance(spec, dict) and stored == config_digest(spec):
            done.add(stored)
    return done


def append_manifest(path, record: dict) -> None:
    """Append one record as a single JSONL line (creates the file)."""
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_manifest(path, strict: bool = True) -> list[dict]:
    """Parse a JSONL manifest back into records.

    ``strict=False`` skips unparsable lines instead of raising — a sweep
    killed mid-append leaves a torn final line, and the resume journal
    must survive that (losing at most the record being written).
    """
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
    return records


def stable_view(record: dict) -> dict:
    """The record minus volatile keys — equal across repeat runs."""
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}
