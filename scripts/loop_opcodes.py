"""Count the bytecodes one run executes inside its event loop.

    PYTHONPATH=src python3 scripts/loop_opcodes.py scripts/full_campaign.cfg \
        --label Cat4/Cat2 --seed 1 --duration 0.05 [--top 20] [--unspecialised 20]

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

With `--unspecialised N`, the same label and seed then run twice more
untraced in the same interpreter (CPython 3.11 does not specialise while
`sys.settrace` is on), and the script prints `unspecialised` and the number of
the traced loop's executions at sites still named `*_ADAPTIVE` (but for a
CALL that a specialised PRECALL skips, as it calls into C itself), then the N
such sites executed most, one per line, tab-separated: qualified name, file
and line, opname, attribute name (or operator, or `-`), executions. These are
the reads PEP 659's specialising interpreter could not specialise, weighted
by how often the loop runs them.
"""
from __future__ import annotations

import argparse
import dis
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

from coexsim import CampaignConfig, Engine, parse_config, run_once


def loop_opcodes(cfg: CampaignConfig, seed: int) -> tuple[Counter, Counter]:
    """Bytecodes inside the loop per (code object, instruction offset), and
    calls per code object."""
    sites, calls = Counter(), Counter()

    def on_opcode(frame, event, arg):
        if event == "opcode":
            sites[frame.f_code, frame.f_lasti] += 1
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
    return sites, calls


# PRECALL forms that hand over to the CALL after them; every other PRECALL
# specialisation calls into C itself and skips that CALL, which then stays
# adaptive and never runs untraced, though the traced run counts it.
PRECALL_TO_CALL = {"PRECALL_ADAPTIVE", "PRECALL_BOUND_METHOD", "PRECALL_PYFUNC"}


def unspecialised(sites: Counter) -> list[tuple[int, str, str, str, str]]:
    """(executions, qualified name, file:line, opname, argument) of each
    executed site that is still adaptive now, most executed first."""
    offsets = defaultdict(dict)
    for (code, offset), n in sites.items():
        offsets[code][offset] = n
    rows = []
    for code, counts in offsets.items():
        previous = ""
        for ins in dis.get_instructions(code, adaptive=True):
            n = counts.get(ins.offset)
            skipped = ins.opname == "CALL_ADAPTIVE" and previous not in PRECALL_TO_CALL
            previous = ins.opname
            if n and ins.opname.endswith("_ADAPTIVE") and not skipped:
                arg = ins.argval if isinstance(ins.argval, str) else ins.argrepr or "-"
                where = f"{Path(code.co_filename).name}:{ins.positions.lineno}"
                rows.append((n, code.co_qualname, where, ins.opname, arg))
    return sorted(rows, key=lambda row: (-row[0], row[1:]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="campaign config file")
    parser.add_argument("--label", required=True, help="access label, e.g. Cat4/Cat2 or WiGig-only")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True, help="simulated seconds")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N functions with the most loop bytecodes")
    parser.add_argument("--unspecialised", type=int, default=0, metavar="N",
                        help="also list the N most executed sites left unspecialised")
    args = parser.parse_args()
    cfg = replace(parse_config(args.config), duration_s=args.duration).for_label(args.label)
    sites, calls = loop_opcodes(cfg, args.seed)
    opcodes = Counter()
    for (code, _offset), n in sites.items():
        opcodes[code] += n
    print(sum(opcodes.values()))
    for code, n in opcodes.most_common(args.top) if args.top > 0 else ():
        where = f"{Path(code.co_filename).name}:{code.co_firstlineno}"
        print(f"{code.co_qualname}\t{where}\t{n}\t{calls[code]}")
    if args.unspecialised > 0:
        for _warm in range(2):
            run_once(cfg, args.seed)
        rows = unspecialised(sites)
        print(f"unspecialised\t{sum(row[0] for row in rows)}")
        for n, *site in rows[: args.unspecialised]:
            print("\t".join(site) + f"\t{n}")


if __name__ == "__main__":
    main()
