"""coexsim benchmark: three workloads, host-time end-to-end metrics and a
per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload floor-cat4cat2 --seed 1 --seconds 40 --trace 0

Each operation runs in a fresh interpreter (perfbench/op.py) with
``PYTHONPATH=src``, one after another, until ``--seconds`` have passed. Every
operation draws new simulation seeds from ``--seed``. With ``--trace 0`` every
operation is untraced and the end-to-end metrics are medians over them. With
``--trace 1`` each round runs the operation untraced and then traced on the
same seeds; the per-layer metrics are medians over the traced operations, and
the traced and untraced outputs must have the same digest.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as declared in
BENCHMARK.json). Run outputs go to ``.perfbench-out/`` and are deleted after
each operation; a traced run keeps its first operation's spans there.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
RUN_TIMEOUT_S = 170  # a run must end within 180 s
# Time scaling (README.md, "Host speed"): each operation's timings are
# multiplied by a reference time over the time a calibration took for that
# operation, so they read as on a host where the calibration takes the
# reference time. setup_s is mostly interpreter start, so it is scaled by the
# start of an interpreter that imports the standard modules coexsim imports,
# timed just before the operation; every other timing by op.py's kernel.
REFERENCE_S = {"kernel_s": 0.025, "start_s": 0.125}
CALIBRATION = {"setup_s": "start_s"}  # metric -> calibration; default kernel_s
START_PROBE = "import argparse, bisect, csv, dataclasses, hashlib, heapq, json, multiprocessing, random, statistics"

# 3 sites and 12 users per operator, 50 Mbps per device: the paper's floor.
FLOOR = {"sites_per_operator": 3, "users_per_operator": 12, "load_mbps": 50}
LABELS = "On/On,OnOff/OnOff,Cat4/On,Cat4/Cat2,Cat3/On,Cat3/Cat2,WiGig-only"

# Per workload: config keys, simulation seeds per operation, parallelism.
# Short simulated durations give many operations per run, so a run's medians
# cover many user drops; wall time varies by about 15% between drops. Their
# events and loop cost per simulated second match the paper's 1.5 s runs, but
# set-up is about a fifth of wall_s instead of about 1% (README.md, "How the
# short runs compare with the 1.5 s runs"; duration_check.py).
WORKLOADS = {
    "floor-cat4cat2": ({**FLOOR, "nru_access": "Cat4/Cat2", "duration_s": 0.05}, 1, 1),
    "floor-wigig": ({**FLOOR, "operator_b": "WiGig", "duration_s": 0.05}, 1, 1),
    "campaign-7label": ({**FLOOR, "access_sweep": LABELS, "duration_s": 0.02}, 2,
                        min(2, os.cpu_count() or 1)),
}

TIME_UNITS = ("s", "s/s")
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


def git_sha() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(job: dict, deadline: float) -> dict:
    """Start op.py in its own session, wait for it and for every process it
    started, and return its result; {'error': ...} on failure."""
    become_subreaper()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", START_PROBE], env=env, check=True)
    start_s = time.monotonic() - t0
    job = {**job, "t_launch": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), json.dumps(job)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the op and its campaign workers
        proc.communicate()
        wait_group(proc.pid)
        return {"error": "timed out"}
    wait_group(proc.pid)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    return {**json.loads(stdout.strip().splitlines()[-1]), "start_s": start_s}


def wait_group(pgid: int, grace_s: float = 5.0) -> None:
    """Reap every process the operation left behind. This process is their
    subreaper, so helpers that outlive op.py, such as multiprocessing's
    resource tracker, become its children when op.py exits. Whatever still
    runs after grace_s is killed with the operation's process group."""
    t_kill = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > t_kill:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.005)


def become_subreaper() -> None:
    """Make this process the parent of its orphaned descendants (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, when that
    lies above the median."""
    if len(values) < 22:
        return ""
    ordered = sorted(values)
    k = len(ordered) - 11
    return f", p{100 * (k + 1) // len(ordered)}={ordered[k]:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.monotonic()
    if not (SRC / "coexsim" / "__init__.py").is_file():
        print(f"error: no coexsim sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    config, seeds_per_op, parallelism = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "workload.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    context = {
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "workload": args.workload, "seed": args.seed,
        "duration_s": config["duration_s"], "seeds_per_op": seeds_per_op,
        "labels": len(config["access_sweep"].split(",")) if "access_sweep" in config else 1,
        "parallelism": parallelism,
        "trace": args.trace,
    }
    print("context " + json.dumps(context), flush=True)
    subprocess.run([sys.executable, "-c", "import coexsim"],  # compile .pyc before timing
                   env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)

    ops, failures = run_rounds(args, cfg_path, work, seeds_per_op, parallelism,
                               deadline=t_start + RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    timed = [(traced, par, res) for traced, par, res in ops if "error" not in res]
    if not timed:
        print("error: every operation crashed", file=sys.stderr)
        return 1
    n_failed = sum(1 for _t, _p, res in ops if "error" in res or res["failures"])
    first = ops[0][2]
    print(f"sim.seeds = {[args.seed * 10_000 + k for k in range(seeds_per_op)]}")
    print(f"sim.result_sha256 = {first.get('sha256', 'none: the first operation failed')}")
    for key, value in first.get("sim", {}).items():
        print(f"sim.{key} = {value!r}")

    if args.trace:
        samples = trace_samples(timed, parallelism, units)
    else:
        samples = {key: [scaled(res, res[key], unit, CALIBRATION.get(key, "kernel_s"))
                         for _t, _p, res in timed] for key, unit in units.items()}
    for calibration in REFERENCE_S:
        times = [res[calibration] for _t, _p, res in timed]
        print(f"host.{calibration[:-2]}_ms = {statistics.median(times) * 1e3:.4f} (median of {len(times)})")
    print(f"ops_attempted = {len(ops)}, ops_failed = {n_failed}")
    metrics = {}
    for name, pairs in samples.items():
        unit = units[name]
        values = [value for _raw, value in pairs]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        host = f"; host {statistics.median(raw for raw, _v in pairs):.6g} {unit}" if unit in TIME_UNITS else ""
        print(f"{name} = {metrics[name]['value']:.6g} {unit} "
              f"(median of {len(values)}{high_percentile(values)}{host})")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures, "attempted": len(ops), "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


def run_rounds(args, cfg_path: Path, work: Path, seeds_per_op: int, parallelism: int,
               deadline: float):
    """Run rounds of operations until --seconds have passed. A round is the
    untraced operation; with --trace 1 also an untraced one in one process
    (when the workload uses more) and the traced one, all on the same seeds.
    Returns the (traced, parallelism, result) list and the failure messages."""
    kinds = [(False, parallelism)]
    if args.trace:
        kinds += [(False, 1)] * (parallelism > 1) + [(True, 1)]
    t_stop = time.monotonic() + args.seconds
    ops, failures = [], []
    round_s = 0.0
    # Start a round while it would end less than half a round past t_stop.
    while not ops or time.monotonic() + round_s / 2 < t_stop:
        first_round = not ops
        t_round = time.monotonic()
        seeds = [args.seed * 10_000 + len(ops) // len(kinds) * seeds_per_op + k
                 for k in range(seeds_per_op)]
        digests = set()
        for traced, par in kinds:
            out = work / f"op{len(ops)}"
            res = run_op({"config": str(cfg_path), "seeds": seeds, "out": str(out),
                          "parallelism": par, "trace": traced}, deadline)
            ops.append((traced, par, res))
            failures += [f"op {len(ops) - 1} seeds {seeds}: {msg}"
                         for msg in res.get("failures", []) + [res.get("error")] if msg]
            digests.add(res.get("sha256"))
            if traced and first_round and (out / "trace.json").is_file():
                (out / "trace.json").replace(work.with_name(work.name + ".trace.json"))
            shutil.rmtree(out, ignore_errors=True)
        if len(digests) > 1:
            msg = f"outputs differ between the operations on seeds {seeds}: {sorted(map(str, digests))}"
            failures.append(msg)
            for _traced, _par, res in ops[-len(kinds):]:
                res.setdefault("failures", []).append(msg)
        round_s = time.monotonic() - t_round
    return ops, failures


def scaled(res: dict, value: float, unit: str, calibration: str = "kernel_s") -> tuple[float, float]:
    """(host value, value scaled to the reference host speed) of one sample."""
    if unit not in TIME_UNITS:
        return value, value
    return value, value * REFERENCE_S[calibration] / res[calibration]


def trace_samples(timed: list, parallelism: int, units: dict) -> dict[str, list[tuple[float, float]]]:
    """Per-layer samples: the traced operations' layer metrics, parallel
    efficiency from the untraced ones, and the tracing overhead."""
    samples: dict[str, list[tuple[float, float]]] = {}
    traced_wall, plain_wall = [], []
    for traced, par, res in timed:
        if traced:
            for key, value in {**res["layers"], "runner.bytes_written": res["bytes_written"]}.items():
                samples.setdefault(key, []).append(scaled(res, value, units[key]))
            traced_wall.append(scaled(res, res["wall_s"], "s"))
        else:
            if par == 1:
                plain_wall.append(scaled(res, res["wall_s"], "s"))
            if par == parallelism:
                samples.setdefault("runner.parallel_efficiency", []).append(
                    scaled(res, res["parallel_efficiency"], "ratio"))
    if traced_wall and plain_wall:
        samples["trace.overhead_s"] = [tuple(
            statistics.median(t[i] for t in traced_wall) - statistics.median(p[i] for p in plain_wall)
            for i in (0, 1)
        )]
    return samples


if __name__ == "__main__":
    sys.exit(main())
