"""CI guard: a SIGKILLed sweep resumes from its snapshots bit-identically.

End-to-end preemption drill, driven through the real CLI in real
subprocesses (no cooperation from the victim):

1. run a clean reference sweep and key its manifest by point digest;
2. launch the same sweep with ``--snapshot-dir``/``--checkpoint-every``,
   poll until the first snapshot file is published, then SIGKILL the
   whole process — no signal handler runs, exactly like an OOM kill or
   a node reclaim;
3. ``repro sweep --resume`` against the same journal: completed points
   are skipped, the interrupted point continues from its last valid
   snapshot (the torn journal line and any stale ``.tmp`` are ignored);
4. assert the final journal's ok-records equal the clean sweep's —
   keyed by ``point_digest`` and compared on
   :func:`repro.obs.manifest.stable_view`, since retries may reorder
   records but must never change results — and that any resumed record
   carries ``resume.from_cycle > 0`` with its final attempt executing
   fewer cycles than the whole run.

The kill races the sweep by construction; if the victim finishes before
the signal lands, the drill degrades to the plain resume-skips-all path
(still asserted) and says so. CI treats that as success — the race is
rare at small scale and the bit-identity contract is covered either way.

Run: ``python benchmarks/kill_resume_smoke.py [--workdir DIR] [--keep]``
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.manifest import read_manifest, stable_view  # noqa: E402

WORKLOADS = ["spmspv", "dmv"]
CONFIGS = ["monaco"]
SCALE = "small"
CHECKPOINT_EVERY = "500"
#: How long to wait for the victim's first snapshot file.
SNAPSHOT_WAIT_S = 120.0


def sweep_cmd(
    manifest: Path,
    cache: Path,
    stats_json: Path | None = None,
    snapshot_dir: Path | None = None,
    resume: bool = False,
) -> list[str]:
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "--workloads",
        *WORKLOADS,
        "--configs",
        *CONFIGS,
        "--scale",
        SCALE,
        "--jobs",
        "1",
        "--cache-dir",
        str(cache),
        "--manifest",
        str(manifest),
    ]
    if stats_json is not None:
        cmd += ["--stats-json", str(stats_json)]
    if snapshot_dir is not None:
        cmd += [
            "--snapshot-dir",
            str(snapshot_dir),
            "--checkpoint-every",
            CHECKPOINT_EVERY,
        ]
    if resume:
        cmd += ["--resume"]
    return cmd


def run(cmd: list[str], log: Path) -> None:
    env = {**os.environ, "PYTHONPATH": "src"}
    with open(log, "ab") as handle:
        subprocess.run(
            cmd, cwd=REPO, env=env, stdout=handle, stderr=handle, check=True
        )


def keyed_ok(manifest: Path) -> dict:
    return {
        record["point_digest"]: stable_view(record)
        for record in read_manifest(manifest, strict=False)
        if record.get("status") == "ok"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where manifests/snapshots/logs land (default: a temp dir)",
    )
    parser.add_argument(
        "--keep",
        action="store_true",
        help="keep the workdir for triage instead of deleting it",
    )
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="kill-resume-"))
    workdir.mkdir(parents=True, exist_ok=True)
    cache = workdir / "cache"
    snaps = workdir / "snaps"
    clean_manifest = workdir / "clean.jsonl"
    victim_manifest = workdir / "victim.jsonl"
    log = workdir / "log.txt"

    # 1. Reference sweep — also warms the shared compile cache, so the
    #    victim spends its wall time simulating, not compiling.
    print(f"[1/4] clean reference sweep -> {clean_manifest}")
    run(sweep_cmd(clean_manifest, cache), log)
    clean = keyed_ok(clean_manifest)
    expected_points = len(WORKLOADS) * len(CONFIGS)
    assert len(clean) == expected_points, (
        f"clean sweep journaled {len(clean)} ok points, "
        f"expected {expected_points}"
    )

    # 2. Victim sweep: SIGKILL as soon as the first snapshot publishes.
    print("[2/4] victim sweep, SIGKILL after first snapshot")
    env = {**os.environ, "PYTHONPATH": "src"}
    with open(log, "ab") as handle:
        victim = subprocess.Popen(
            sweep_cmd(victim_manifest, cache, snapshot_dir=snaps),
            cwd=REPO,
            env=env,
            stdout=handle,
            stderr=handle,
        )
        killed = False
        deadline = time.monotonic() + SNAPSHOT_WAIT_S
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if list(snaps.glob("*.snap")):
                victim.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.02)
        returncode = victim.wait(timeout=60)

    if killed:
        assert returncode != 0, "SIGKILLed sweep exited 0"
        print(
            f"      killed mid-flight (rc={returncode}); snapshots on "
            f"disk: {[p.name for p in sorted(snaps.glob('*.snap'))]}"
        )
    else:
        assert returncode == 0, f"victim sweep failed on its own: {log}"
        print("      victim finished before the kill landed; the drill "
              "degrades to resume-skips-all")

    # 3. Resume the journal. Completed points skip; the interrupted one
    #    continues from its snapshot.
    print("[3/4] repro sweep --resume")
    run(
        sweep_cmd(
            victim_manifest,
            cache,
            stats_json=workdir / "resumed-stats.json",
            snapshot_dir=snaps,
            resume=True,
        ),
        log,
    )

    # 4. The recovered journal must equal the clean one — keyed, since
    #    recovery may reorder records but never change their content.
    print("[4/4] comparing journals")
    recovered = keyed_ok(victim_manifest)
    assert set(recovered) == set(clean), (
        f"recovered sweep covers {sorted(recovered)}, "
        f"clean covers {sorted(clean)}"
    )
    mismatched = [d for d in clean if recovered[d] != clean[d]]
    assert not mismatched, (
        f"resumed points diverged from the uninterrupted sweep: {mismatched}"
    )

    # ``resume`` is volatile (stripped by stable_view) — read it raw.
    raw_resumed = [
        record
        for record in read_manifest(victim_manifest, strict=False)
        if record.get("status") == "ok" and record.get("resume")
    ]
    for record in raw_resumed:
        info = record["resume"]
        assert info["from_cycle"] > 0, record
        assert info["executed_before"] > 0, record
        final_attempt = record["stats"]["executed_cycles"] - info["executed_before"]
        assert 0 < final_attempt < record["stats"]["executed_cycles"], (
            "resumed attempt did not execute fewer cycles than the full run"
        )
        print(
            f"      {record['spec']['workload']}/"
            f"{record['spec']['config']['name']}: resumed from "
            f"cycle {info['from_cycle']} "
            f"({final_attempt}/{record['stats']['executed_cycles']} cycles "
            "in the final attempt)"
        )
    if killed and not raw_resumed:
        # Kill landed after the in-flight point's last journal append but
        # before its snapshot could matter — point simply reran clean.
        print("      kill landed between points; all reran/skipped clean")

    snapshots = [
        record
        for record in read_manifest(victim_manifest, strict=False)
        if record.get("status") == "snapshot"
    ]
    if killed:
        assert snapshots, "victim died after a snapshot but journaled none"
    leftover = list(snaps.glob("*.snap"))
    assert not leftover, f"recovered sweep left snapshots behind: {leftover}"

    print(
        f"OK: {len(recovered)} points bit-identical to the clean sweep "
        f"({len(raw_resumed)} resumed mid-flight, "
        f"{len(snapshots)} snapshot journal records)"
    )
    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
