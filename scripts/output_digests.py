"""Digest every output file of one traced run per (label, seed).

    PYTHONPATH=src python3 scripts/output_digests.py scripts/full_campaign.cfg \
        --seeds 1 2 --duration 0.05 > digests.json

Runs every label of the config's `access_sweep` at each seed, for the given
simulated duration, with every trace on, and prints one JSON object keyed by
`<label>_seed<seed>`: the sha256 of each output file, the sha256 of
`run.json` without its `event_count` (key `run.json-event_count`), and the
run's executed-event count. Identical file digests show that a change leaves
the run outputs byte-identical, and the event counts show what it saves.

To check a change against a digest file made on the parent tree:

    PYTHONPATH=src python3 scripts/output_digests.py scripts/full_campaign.cfg \
        --seeds 1 2 --duration 0.05 --against parent_digests.json

prints one `differs <run> <file>` line per file whose digest differs or
that one side lacks, then one `event_count <run> <parent> -> <this>` line
per changed event count, and exits 1 if any file differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from coexsim import parse_config, run_once
from coexsim.runner import TRACES


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(config: str, seeds: list[int], duration_s: float, out: Path) -> dict:
    cfg = replace(parse_config(config), duration_s=duration_s)
    runs = {}
    for label in cfg.sweep_labels():
        for seed in seeds:
            run_dir = out / f"{label.replace('/', '-')}_seed{seed}"
            result = run_once(cfg.for_label(label), seed, out_dir=str(run_dir), traces=tuple(TRACES))
            files = {path.name: _sha(path.read_bytes()) for path in sorted(run_dir.iterdir())}
            meta = json.loads((run_dir / "run.json").read_text())
            meta.pop("event_count", None)
            # The same layout as runner._write_run, so an unchanged run.json
            # without the key digests the same.
            files["run.json-event_count"] = _sha((json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
            runs[run_dir.name] = {"files": files, "event_count": result.event_count}
    return runs


def compare(parent: dict, runs: dict) -> tuple[list[tuple[str, str]], list[tuple[str, object, object]]]:
    """(run, file) for every file digest that differs between `parent` and
    `runs`, a file on one side only included, and (run, parent count, this
    count) for every changed event count; a missing side reads None."""
    differs, counts = [], []
    for run in sorted(parent.keys() | runs.keys()):
        old, new = parent.get(run, {}), runs.get(run, {})
        old_files, new_files = old.get("files", {}), new.get("files", {})
        for name in sorted(old_files.keys() | new_files.keys()):
            if old_files.get(name) != new_files.get(name):
                differs.append((run, name))
        if old.get("event_count") != new.get("event_count"):
            counts.append((run, old.get("event_count"), new.get("event_count")))
    return differs, counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="campaign config file; its access_sweep names the labels")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--duration", type=float, required=True, help="simulated seconds per run")
    parser.add_argument("--against", metavar="PARENT.json",
                        help="compare with this digest file instead of printing the digests")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        runs = output_digests(args.config, args.seeds, args.duration, Path(tmp))
    if args.against is None:
        print(json.dumps(runs, indent=2, sort_keys=True))
        return
    differs, counts = compare(json.loads(Path(args.against).read_text()), runs)
    for run, name in differs:
        print(f"differs {run} {name}")
    for run, old, new in counts:
        print(f"event_count {run} {old} -> {new}")
    if differs:
        sys.exit(1)
    print(f"identical: {len(runs)} runs")


if __name__ == "__main__":
    main()
