"""List the lines of the coexsim package that no run executes.

    PYTHONPATH=src python3 scripts/run_coverage.py > scripts/run_coverage.txt

Imports coexsim and runs, in this one process under `sys.settrace`, every
label of each `--configs` file (by default `scripts/full_campaign.cfg` and
`scripts/non_default.cfg`) at seeds 1 to `--seeds` (2) for `--duration`
simulated seconds (0.05), with every trace on. Then it runs the `--campaign`
config (`scripts/reduced_campaign.cfg`), cut to the same duration, through
the command line: `coexsim run` at seed 1 with every trace, `coexsim
campaign` over seeds 1 to `--seeds` in one process, and `coexsim report`.

It prints one line per source line of a function, method, lambda or
comprehension of the package that none of these executed, sorted by file
and line, tab-separated: file:line, the qualified name of the code the line
belongs to, and the source text. A function that never runs is listed from
its `def` line on. Module and class bodies, which only the import runs, are
left out. The listing depends on neither timing nor hash seed, so the
listings of two trees compare line for line.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
import tempfile
from dataclasses import replace
from inspect import CO_NEWLOCALS
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
# Found, not imported: the import runs under the trace.
PACKAGE = Path(importlib.util.find_spec("coexsim").origin).resolve().parent


def function_lines(path: Path) -> set[tuple[str, int, str, int]]:
    """(file name, first line, qualified name, line) of every line of every
    function-like code object (not a module or class body) in `path`."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
        if code.co_flags & CO_NEWLOCALS:
            for _start, _end, line in code.co_lines():
                if line is not None:
                    lines.add((path.name, code.co_firstlineno, code.co_qualname, line))
    return lines


def executed_lines(configs: list[str], campaign: str, seeds: int, duration_s: float,
                   out: Path) -> set[tuple[str, int, str, int]]:
    """The `function_lines` keys that the runs execute; `out` takes their files."""
    executed = set()
    names: dict[str, str] = {}  # code file -> its name if in the package, else ""

    def on_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            executed.add((names[code.co_filename], code.co_firstlineno, code.co_qualname,
                          frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        name = names.get(code.co_filename)
        if name is None:
            path = Path(code.co_filename).resolve()
            name = names[code.co_filename] = path.name if path.parent == PACKAGE else ""
        if not name:
            return None
        executed.add((name, code.co_firstlineno, code.co_qualname, code.co_firstlineno))
        return on_line

    campaign_cfg = out / "campaign.cfg"  # its duration_s line replaced: a key may not repeat
    kept = [line for line in Path(campaign).read_text().splitlines()
            if line.split("=", 1)[0].strip() != "duration_s"]
    campaign_cfg.write_text("\n".join(kept) + f"\nduration_s = {duration_s}\n")
    sys.settrace(on_call)
    try:
        from coexsim import parse_config, run_once
        from coexsim.cli import main as cli_main
        from coexsim.runner import TRACES

        commands = [
            ["run", "--config", str(campaign_cfg), "--seed", "1", "--trace", ",".join(TRACES),
             "--out", str(out / "run")],
            ["campaign", "--config", str(campaign_cfg), "--seeds", str(seeds), "--out", str(out)],
            ["report", "--in", str(out), "--out", str(out / "boxstats.csv")],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for config in configs:
                cfg = replace(parse_config(config), duration_s=duration_s)
                for label in cfg.sweep_labels():
                    for seed in range(1, seeds + 1):
                        run_once(cfg.for_label(label), seed, traces=tuple(TRACES))
            for command in commands:
                if cli_main(command) != 0:
                    raise SystemExit(f"coexsim {command[0]} failed")
    finally:
        sys.settrace(None)
    return executed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", nargs="+", metavar="CFG",
                        default=[str(SCRIPTS / "full_campaign.cfg"), str(SCRIPTS / "non_default.cfg")],
                        help="configs whose every label runs at each seed")
    parser.add_argument("--campaign", metavar="CFG", default=str(SCRIPTS / "reduced_campaign.cfg"),
                        help="config run through coexsim run, campaign and report")
    parser.add_argument("--seeds", type=int, default=2, help="run seeds 1 to this")
    parser.add_argument("--duration", type=float, default=0.05, help="simulated seconds per run")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        executed = executed_lines(args.configs, args.campaign, args.seeds, args.duration, Path(tmp))
    missed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        missed |= function_lines(path)
    sources: dict[str, list[str]] = {}
    for name, _first, qualname, line in sorted(missed - executed, key=lambda k: (k[0], k[3], k[2])):
        text = sources.setdefault(name, (PACKAGE / name).read_text().splitlines())[line - 1]
        print(f"{name}:{line}\t{qualname}\t{text.strip()}")


if __name__ == "__main__":
    main()
