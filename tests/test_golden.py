"""Golden-output gate: the reduced 7-label campaign must reproduce the
committed per-run-directory digests byte for byte.

Regenerate ``golden_manifest.json`` only for an intended behaviour change,
and say why in CHANGES.md; the failure message prints the new manifest.
"""
import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

from coexsim import emit_report, parse_config, run_campaign

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"
SEEDS = [1, 2, 3]


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_sha(run_dir: Path) -> str:
    """Digest over the sorted file names and their bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def golden_manifest(out: Path) -> dict:
    cfg = replace(parse_config(str(ROOT / "scripts" / "reduced_campaign.cfg")), duration_s=0.2)
    run_campaign(cfg, SEEDS, str(out), parallelism=2, verbose=False)
    emit_report(str(out), str(out / "boxstats.csv"))
    runs = out / "runs"
    return {
        "runs": {name: _dir_sha(runs / name) for name in sorted(os.listdir(runs))},
        "boxstats.csv": _file_sha(out / "boxstats.csv"),
    }


def test_reduced_campaign_matches_golden_manifest(tmp_path):
    got = golden_manifest(tmp_path / "campaign")
    want = json.loads(MANIFEST.read_text())
    names = sorted(set(got["runs"]) | set(want["runs"]))
    differ = [n for n in names if got["runs"].get(n) != want["runs"].get(n)]
    if got["boxstats.csv"] != want["boxstats.csv"]:
        differ.append("boxstats.csv")
    assert not differ, (
        f"golden outputs differ: {', '.join(differ)}\n"
        f"new manifest:\n{json.dumps(got, indent=2, sort_keys=True)}"
    )
