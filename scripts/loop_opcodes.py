"""Count the bytecodes one run executes inside its event loop.

    PYTHONPATH=src python3 scripts/loop_opcodes.py scripts/full_campaign.cfg \
        --label Cat4/Cat2 --seed 1 --duration 0.05

Runs one untraced run of the config's `--label` at `--seed` for `--duration`
simulated seconds and prints the number of opcode events `sys.settrace`
reports inside `Engine.run_until`: every bytecode the loop executes, in the
simulator and in the standard library's Python code it calls. Set-up before
the loop is not counted. Unlike a timing, the count repeats exactly from run
to run and under any PYTHONHASHSEED, so running it with each tree's `src` on
PYTHONPATH compares the work two versions do; it says nothing of time spent
in C code or waiting.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from coexsim import Engine, parse_config, run_once


def loop_opcodes(config: str, label: str, seed: int, duration_s: float) -> int:
    cfg = replace(parse_config(config), duration_s=duration_s).for_label(label)
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
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
    return count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="campaign config file")
    parser.add_argument("--label", required=True, help="access label, e.g. Cat4/Cat2 or WiGig-only")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True, help="simulated seconds")
    args = parser.parse_args()
    print(loop_opcodes(args.config, args.label, args.seed, args.duration))


if __name__ == "__main__":
    main()
