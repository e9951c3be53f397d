"""Golden-output gate: the reduced 7-label campaign must reproduce the
committed digest of every output file byte for byte, once at the default
parameters and once with every component parameter moved off its default
(`scripts/non_default.cfg`).
A manifest key is `<run dir>/<file>` (or `boxstats.csv`), so a missing or
extra file shows as a key difference and a mismatch names each file.

Regenerate ``golden_manifest.json`` only for an intended behaviour change,
and say why in CHANGES.md; the failure message prints the new manifest.
"""
import hashlib
import json
from dataclasses import replace
from pathlib import Path

from coexsim import emit_report, parse_config, run_campaign, run_once

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"
SEEDS = [1, 2, 3]


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _file_shas(root: Path) -> dict:
    """sha256 of every file under `root`, keyed by its path relative to it."""
    return {
        path.relative_to(root).as_posix(): _file_sha(path)
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def golden_manifest(out: Path) -> dict:
    cfg = replace(parse_config(str(ROOT / "scripts" / "reduced_campaign.cfg")), duration_s=0.2)
    run_campaign(cfg, SEEDS, str(out), parallelism=2, verbose=False)
    emit_report(str(out), str(out / "boxstats.csv"))
    return {**_file_shas(out / "runs"), "boxstats.csv": _file_sha(out / "boxstats.csv")}


def non_default_manifest(out: Path) -> dict:
    """One traced seed-1 0.05 s run per label of `scripts/non_default.cfg`,
    which moves every parameter a component reads off its default."""
    cfg = replace(parse_config(str(ROOT / "scripts" / "non_default.cfg")), duration_s=0.05)
    for label in cfg.sweep_labels():
        run_dir = out / label.replace("/", "-")
        run_once(cfg.for_label(label), 1, out_dir=str(run_dir), traces=("cam", "mac", "frames"))
    return _file_shas(out)


def _assert_matches(got: dict, want: dict) -> None:
    differ = [n for n in sorted(set(got) | set(want)) if got.get(n) != want.get(n)]
    assert not differ, (
        f"golden outputs differ: {', '.join(differ)}\n"
        f"new manifest entries:\n{json.dumps(got, indent=2, sort_keys=True)}"
    )


def test_reduced_campaign_matches_golden_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text())["campaign"]
    _assert_matches(golden_manifest(tmp_path / "campaign"), want)


def test_non_default_parameters_match_golden_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text())["non_default"]
    _assert_matches(non_default_manifest(tmp_path / "non_default"), want)
