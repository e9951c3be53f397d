"""Count the bytecodes one run executes inside its event loop.

    PYTHONPATH=src python3 scripts/loop_opcodes.py scripts/full_campaign.cfg \
        --label Cat4/Cat2 --seed 1 --duration 0.05 [--top 20]

Runs one untraced run of the config's `--label` at `--seed` for `--duration`
simulated seconds and prints the number of opcode events `sys.settrace`
reports inside `Engine.run_until`: every bytecode the loop executes, in the
simulator and in the standard library's Python code it calls. Set-up before
the loop is not counted. Unlike a timing, the count repeats exactly from run
to run and under any PYTHONHASHSEED, so running it with each tree's `src` on
PYTHONPATH compares the work two versions do; it says nothing of time spent
in C code or waiting.

With `--top N`, the total is followed by the N functions that execute the
most of those bytecodes, one per line, tab-separated: qualified name, file
and first line, bytecodes, calls (a resumed generator counts a call).
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from coexsim import Engine, parse_config, run_once


def loop_opcodes(config: str, label: str, seed: int, duration_s: float) -> tuple[Counter, Counter]:
    """Bytecodes and calls inside the loop, per code object."""
    cfg = replace(parse_config(config), duration_s=duration_s).for_label(label)
    opcodes, calls = Counter(), Counter()

    def on_opcode(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        calls[frame.f_code] += 1
        return on_opcode

    run_until = Engine.run_until

    def counted_run_until(engine, t_end):
        sys.settrace(on_call)
        try:
            return run_until(engine, t_end)
        finally:
            sys.settrace(None)

    Engine.run_until = counted_run_until
    try:
        run_once(cfg, seed)
    finally:
        Engine.run_until = run_until
    return opcodes, calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="campaign config file")
    parser.add_argument("--label", required=True, help="access label, e.g. Cat4/Cat2 or WiGig-only")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True, help="simulated seconds")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N functions with the most loop bytecodes")
    args = parser.parse_args()
    opcodes, calls = loop_opcodes(args.config, args.label, args.seed, args.duration)
    print(sum(opcodes.values()))
    for code, n in opcodes.most_common(args.top) if args.top > 0 else ():
        where = f"{Path(code.co_filename).name}:{code.co_firstlineno}"
        print(f"{code.co_qualname}\t{where}\t{n}\t{calls[code]}")


if __name__ == "__main__":
    main()
