"""Compare a workload's cost mix at its benchmark duration and at longer ones.

Run from the repository root:

    python3 perfbench/duration_check.py --workload floor-wigig --durations 0.05,1.5 --ops 3

It runs ``--ops`` rounds of untraced operations (as in run.py). A round runs
the same seeds once per simulated duration, back to back, so that the
durations are compared on the same user drops and under the same host load.
Then it runs one traced operation per duration in one process. Per duration
it prints medians over the rounds:

- ``setup_share``: ``setup_s`` over ``wall_s``.
- ``loop_s_per_sim_s``: host seconds in ``Engine.run_until`` per simulated
  second, unscaled.
- ``loop_ratio``: the round's ``loop_s_per_sim_s`` over that of the longest
  duration in the same round, so 1.0 means the same loop cost per simulated
  second as the long runs.
- ``events_per_sim_s``, and ``backoff_share``: executed WiGig and LBT
  ``_slot_done``/``_defer_done`` timer events over all executed events, from
  the traced operation.

Operations here have no time limit; a traced 1.5 s campaign takes minutes.
"""
from __future__ import annotations

import argparse
import shutil
import statistics
import time

from run import OUT, WORKLOADS, run_op


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--durations", required=True,
                        help="simulated seconds, comma-separated, longest last")
    parser.add_argument("--ops", type=int, default=3, help="untraced rounds")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds-per-op", type=int, help="default: the workload's")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced operations")
    args = parser.parse_args()
    config, seeds_per_op, parallelism = WORKLOADS[args.workload]
    seeds_per_op = args.seeds_per_op or seeds_per_op
    labels = len(config["access_sweep"].split(",")) if "access_sweep" in config else 1
    durations = [float(d) for d in args.durations.split(",")]
    work = OUT / f"duration-check-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfgs = {}
    for d in durations:
        cfgs[d] = work / f"d{d}.cfg"
        cfgs[d].write_text("".join(f"{k} = {v}\n" for k, v in {**config, "duration_s": d}.items()))

    def op(duration: float, seeds: list[int], traced: bool) -> dict:
        out = work / "op"
        res = run_op({"config": str(cfgs[duration]), "seeds": seeds, "out": str(out),
                      "parallelism": 1 if traced else parallelism, "trace": traced},
                     deadline=time.monotonic() + 3600)
        shutil.rmtree(out, ignore_errors=True)
        if "error" in res or res["failures"]:
            raise SystemExit(f"duration {duration} seeds {seeds}: "
                             f"{res.get('error') or res['failures']}")
        return res

    rounds = []
    for i in range(args.ops):
        seeds = [args.seed * 10_000 + i * seeds_per_op + k for k in range(seeds_per_op)]
        rounds.append({d: op(d, seeds, False) for d in durations})
    first_seeds = [args.seed * 10_000 + k for k in range(seeds_per_op)]
    print("duration_s  ops  wall_s  setup_share  loop_s_per_sim_s  loop_ratio  "
          "events_per_sim_s  backoff_share")
    for d in durations:
        def med(f):
            return statistics.median(f(r[d], r[durations[-1]]) for r in rounds)

        backoff = "-"
        if not args.no_trace:
            layers = op(d, first_seeds, True)["layers"]
            slots = layers["wigig.backoff_slot_events"] + layers["channel_access.backoff_slot_events"]
            backoff = f"{slots / layers['engine.events_executed']:.3f}"
        print(f"{d:<10}  {len(rounds):>3}  {med(lambda r, _l: r['wall_s']):6.3f}  "
              f"{med(lambda r, _l: r['setup_s'] / r['wall_s']):11.3f}  "
              f"{med(lambda r, _l: r['loop_s_per_sim_s']):16.3f}  "
              f"{med(lambda r, long: r['loop_s_per_sim_s'] / long['loop_s_per_sim_s']):10.3f}  "
              f"{med(lambda r, _l: r['sim']['events'] / (d * seeds_per_op * labels)):16.0f}  "
              f"{backoff:>13}", flush=True)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
