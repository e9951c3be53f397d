"""Time the phases of one run in fresh interpreters, alternating two source trees.

    python3 scripts/phase_times.py OLD/src NEW/src [--config scripts/full_campaign.cfg] \
        [--label Cat4/Cat2] [--duration 0.05] [--seed 1] [--pairs 10]

Each pair starts one fresh interpreter per tree, with that tree's `src` on
PYTHONPATH, alternating which tree goes first. The interpreter times
`import coexsim`, the build (from `run_once`'s start to `Engine.run_until`'s),
the loop (`run_until`) and the post-loop (from `run_until`'s return to
`run_once`'s: collecting the results, the garbage-collector pass that
follows the loop, and writing the run directory to a temporary folder). It
reads its peak RSS (`ru_maxrss`) and `gc.get_count()` as `run_once`
returns. Every pair runs the same seed.

Prints, per tree, the host medians over the pairs; per metric, the median
and quartiles of the paired ratios NEW / OLD, the pairs in which NEW read
lower, and whether a gain may be claimed ("holds" when NEW read lower in
at least nine tenths of the pairs, ties counting for neither, and OLD's
median exceeds NEW's by more than the distance between OLD's quartiles;
else "fails"); and per tree the distinct `gc.get_count()`
readings with how often each occurred.
A WARNING line follows when the two trees' readings differ, and one when
their event counts differ: a change meant to keep outputs byte-identical
then runs another event sequence, or was timed against the wrong tree.
Times are host seconds on whatever machine runs it, so compare only the two
trees of one invocation.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter

CHILD = """
import gc, json, resource, sys, tempfile, time
t0 = time.perf_counter()
from dataclasses import replace
from coexsim import parse_config, runner
from coexsim.engine import Engine
t_import = time.perf_counter() - t0
config, label, duration, seed = sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4])
cfg = replace(parse_config(config), duration_s=duration).for_label(label)
marks = []
run_until = Engine.run_until

def timed_run_until(engine, t_end):
    marks.append(time.perf_counter())
    events = run_until(engine, t_end)
    marks.append(time.perf_counter())
    return events

Engine.run_until = timed_run_until
with tempfile.TemporaryDirectory() as out:
    t_start = time.perf_counter()
    result = runner.run_once(cfg, seed, out_dir=out)
    t_done = time.perf_counter()
    counts = gc.get_count()
print(json.dumps({
    "import_s": t_import, "build_s": marks[0] - t_start, "loop_s": marks[1] - marks[0],
    "post_loop_s": t_done - marks[1],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "gc_count": counts, "events": result.event_count,
}))
"""

METRICS = ("import_s", "build_s", "loop_s", "post_loop_s", "peak_rss_mb")


def quartiles(xs: list[float]) -> tuple[float, float]:
    """The first and third quartiles of `xs` (`statistics.quantiles`); one value is both."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def gain_holds(old: list[float], new: list[float]) -> bool:
    """Whether paired runs show a gain in a lower-is-better metric: NEW lower in at
    least nine tenths of the pairs, and a median gap over OLD's quartile spread."""
    wins = sum(n < o for o, n in zip(old, new))
    q1, q3 = quartiles(old)
    return 10 * wins >= 9 * len(old) and statistics.median(old) - statistics.median(new) > q3 - q1


def run_child(src: str, args) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, args.config, args.label, str(args.duration), str(args.seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="the first tree's src directory")
    ap.add_argument("new", help="the second tree's src directory")
    ap.add_argument("--config", default="scripts/full_campaign.cfg")
    ap.add_argument("--label", default="Cat4/Cat2")
    ap.add_argument("--duration", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    srcs = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    for k in range(args.pairs):
        for side in ("old", "new") if k % 2 == 0 else ("new", "old"):
            runs[side].append(run_child(srcs[side], args))
    events = {side: {r["events"] for r in rs} for side, rs in runs.items()}
    print(f"{args.label} at {args.duration} s, seed {args.seed}, {args.pairs} pairs; "
          f"events old {sorted(events['old'])}, new {sorted(events['new'])}")
    print("metric\told median\tnew median\tnew/old (median of pairs)\tnew/old q1\t"
          "new/old q3\tnew lower\tgain claim")
    for m in METRICS:
        old = [r[m] for r in runs["old"]]
        new = [r[m] for r in runs["new"]]
        ratios = [n / o for o, n in zip(old, new)]
        wins = sum(n < o for o, n in zip(old, new))
        q1, q3 = quartiles(ratios)
        print(f"{m}\t{statistics.median(old):.4f}\t{statistics.median(new):.4f}\t"
              f"{statistics.median(ratios):.3f}\t{q1:.3f}\t{q3:.3f}\t{wins} of {len(ratios)}\t"
              f"{'holds' if gain_holds(old, new) else 'fails'}")
    seen = {side: Counter(tuple(r["gc_count"]) for r in rs) for side, rs in runs.items()}
    for side, counts in seen.items():
        print(f"gc.get_count() at return, {side}: "
              + ", ".join(f"{c} x{n}" for c, n in sorted(counts.items())))
    if seen["old"] != seen["new"]:
        print("WARNING: the trees' gc.get_count() readings differ: the collector runs at "
              "other points in each, so a loop-time gap may be the collector's, not the code's")
    if events["old"] != events["new"]:
        print("WARNING: the trees' event counts differ: they do not run the same events, "
              "so the pairs do not time like for like")


if __name__ == "__main__":
    main()
