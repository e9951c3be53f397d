"""One benchmark operation in a fresh interpreter.

Usage (normally started by run.py, with PYTHONPATH=src):

    python3 perfbench/op.py '<job json>'

The job names a config file, the simulation seeds, an output directory, the
campaign parallelism, whether to trace, and ``t_launch``: the
``time.monotonic()`` reading the parent took just before starting this
process. On Linux that clock is system-wide, so set-up time here includes
interpreter start and ``import coexsim``.

A floor operation is one ``run_once`` with an output directory. A campaign
operation is ``run_campaign`` over every label of the config's
``access_sweep`` followed by ``emit_report``. The last line on stdout is one
JSON object with the timings, the output digest, the simulated statistics and
every failed output check.

A probe wraps ``runner.run_once`` and ``Engine.run_until`` to time the event
loop and to check each run's outputs. Campaign workers are started with
``spawn`` and import this file as ``__mp_main__``, so they install the same
probe; each process appends one JSON line per run to its own file in the
directory named by ``PERFBENCH_PROBE_DIR``.
"""
from __future__ import annotations

import csv
import hashlib
import heapq
import json
import math
import os
import random
import resource
import struct
import sys
import time
from pathlib import Path

from coexsim import parse_config, runner
from coexsim.engine import Engine
from coexsim.metrics import packet_conservation

PROBE_ENV = "PERFBENCH_PROBE_DIR"


class Probe:
    """Per-run loop timing and output checks, written as JSON lines."""

    def __init__(self, directory: str) -> None:
        self.path = Path(directory) / f"{os.getpid()}.jsonl"
        self.run = None  # record of the run in progress

    def install(self) -> None:
        run_once, run_until = runner.run_once, Engine.run_until

        def probed_run_until(engine, t_end):
            t0 = time.monotonic()
            events = run_until(engine, t_end)
            rec = self.run
            rec["loop_s"] += time.monotonic() - t0
            if rec["t_loop"] is None:
                rec["t_loop"] = t0
            return events

        def probed_run_once(cfg, seed, *args, **kwargs):
            self.run = {"label": cfg.label, "seed": seed, "pid": os.getpid(),
                        "t_loop": None, "loop_s": 0.0}
            result = run_once(cfg, seed, *args, **kwargs)
            self._finish(self.run, result, cfg.duration_ns)
            return result

        Engine.run_until = probed_run_until
        runner.run_once = probed_run_once

    def _finish(self, rec: dict, result, duration_ns: int) -> None:
        rec.update(
            sim_s=duration_ns / 1e9,
            wall_s=result.wall_s,
            events=result.event_count,
            occupancy=result.occupancy,
            goodput_mbps=sum(result.goodput_bps.values()) / 1e6,
            failures=check_run(result, duration_ns),
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        with open(self.path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")


def check_run(result, duration_ns: int) -> list[str]:
    """Output checks for one run; one message per violation."""
    run = f"{result.label} seed={result.seed}"
    bad = []
    if result.event_count <= 0:
        bad.append(f"{run}: no events executed")
    for op, occ in sorted(result.occupancy.items()):
        if not 0.0 <= occ <= 1.0:
            bad.append(f"{run}: occupancy {op}={occ} outside [0, 1]")
    for flow in result.flows:
        generated, delivered, lost, in_flight = packet_conservation(flow)
        if min(generated, delivered, lost, in_flight) < 0:
            bad.append(f"{run}: {flow.flow_id} breaks packet conservation "
                       f"{(generated, delivered, lost, in_flight)}")
    for dev, delays in sorted(result.latency_ns.items()):
        if delays and not (0 <= min(delays) and max(delays) <= duration_ns):
            bad.append(f"{run}: {dev} delay outside [0, {duration_ns}] ns")
    return bad


def check_campaign(out: Path, labels: list[str], seeds: list[int], outcomes) -> list[str]:
    """Every expected (label, seed) run wrote run.json and no error.txt, and
    the report has rows for every label."""
    bad = [f"run {label} seed={seed} failed: {err}" for label, seed, err, _ in outcomes if err]
    found = set()
    for run_dir in sorted((out / "runs").iterdir()):
        if (run_dir / "error.txt").exists():
            bad.append(f"{run_dir.name}: error.txt present")
        meta_path = run_dir / "run.json"
        if not meta_path.is_file():
            continue
        meta = json.loads(meta_path.read_text())
        found.add((meta["label"], meta["seed"]))
        if meta["event_count"] <= 0:
            bad.append(f"{run_dir.name}: event_count {meta['event_count']}")
    expected = {(label, seed) for label in labels for seed in seeds}
    bad += [f"run {label} seed={seed}: no run.json" for label, seed in sorted(expected - found)]
    with open(out / "boxstats.csv", newline="") as fh:
        reported = {row["config"] for row in csv.DictReader(fh)}
    bad += [f"boxstats.csv: no rows for {label}" for label in labels if label not in reported]
    return bad


def digest(paths: list[Path], root: Path) -> tuple[str, int]:
    """sha256 over the relative names and contents of the given files, and
    their total size in bytes."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(paths):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def kernel_s() -> float:
    """Host seconds for one pass of a fixed pure-Python kernel of heap, dict
    and float work; about 25 ms on an idle core of the reference host."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap, table, acc = [], {}, 0.0
    for i in range(20_000):
        heapq.heappush(heap, (rng.random(), i))
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + math.log10(1.0 + i)
        if len(heap) > 50:
            acc += heapq.heappop(heap)[0]
    return time.perf_counter() - t0


def kernel_time(processes: int) -> float:
    """Mean time of `processes` kernel passes run at the same time, one here
    and the others in forked children, so that a campaign's scaling covers
    every core its workers ran on. The pool's threads have ended by now."""
    read_fd, write_fd = os.pipe()
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            os.write(write_fd, struct.pack("d", kernel_s()))
            os._exit(0)
        children.append(pid)
    times = [kernel_s()]
    for pid in children:
        os.waitpid(pid, 0)
        times.append(struct.unpack("d", os.read(read_fd, 8))[0])
    os.close(read_fd)
    os.close(write_fd)
    return math.fsum(times) / len(times)


def read_probe(directory: Path) -> list[dict]:
    """Every process's run records, ordered by (label, seed)."""
    records = []
    for path in directory.glob("*.jsonl"):
        records += [json.loads(line) for line in path.read_text().splitlines()]
    return sorted(records, key=lambda rec: (rec["label"], rec["seed"]))


def main() -> int:
    job = json.loads(sys.argv[1])
    out = Path(job["out"])
    probe_dir = out / "probe"
    probe_dir.mkdir(parents=True)
    os.environ[PROBE_ENV] = str(probe_dir)  # inherited by spawn workers
    Probe(str(probe_dir)).install()
    tracer = None
    if job["trace"]:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()

    cfg = parse_config(job["config"])
    seeds = job["seeds"]
    labels = cfg.sweep_labels()
    failures: list[str] = []
    t0 = time.monotonic()
    if cfg.access_sweep:
        outcomes = runner.run_campaign(
            cfg, seeds, str(out), parallelism=job["parallelism"], verbose=False
        )
        t_runs = time.monotonic() - t0
        runner.emit_report(str(out), str(out / "boxstats.csv"))
    else:
        runner.run_once(cfg, seeds[0], out_dir=str(out / "run"))
        t_runs = time.monotonic() - t0
    t_done = time.monotonic()
    cpu_s = sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)))
    host_kernel_s = kernel_time(job["parallelism"])
    if cfg.access_sweep:
        failures += check_campaign(out, labels, seeds, outcomes)
        outputs = list((out / "runs").glob("*/*")) + [out / "boxstats.csv"]
    else:
        outputs = list((out / "run").iterdir())

    records = read_probe(probe_dir)
    if len(records) != len(labels) * len(seeds):
        failures.append(f"{len(records)} runs probed, expected {len(labels) * len(seeds)}")
    failures += [msg for rec in records for msg in rec["failures"]]
    sha, size = digest(outputs, out)

    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb: dict[int, int] = {}
    for rec in records:
        if rec["pid"] != os.getpid():
            worker_kb[rec["pid"]] = max(worker_kb.get(rec["pid"], 0), rec["maxrss_kb"])
    t_launch = job["t_launch"]
    result = {
        "wall_s": t_done - t_launch,
        "cpu_s": cpu_s,
        "setup_s": min(rec["t_loop"] for rec in records) - t_launch,
        "loop_s_per_sim_s": sum(r["loop_s"] for r in records) / sum(r["sim_s"] for r in records),
        "peak_rss_mb": (own_kb + sum(worker_kb.values())) / 1024,
        "parallel_efficiency": sum(r["wall_s"] for r in records) / (t_runs * job["parallelism"]),
        "kernel_s": host_kernel_s,
        "sha256": sha,
        "bytes_written": size,
        "sim": {
            "events": sum(r["events"] for r in records),
            "occupancy.A": math.fsum(r["occupancy"]["A"] for r in records) / len(records),
            "occupancy.B": math.fsum(r["occupancy"]["B"] for r in records) / len(records),
            "goodput_mbps_total": math.fsum(r["goodput_mbps"] for r in records),
        },
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        failures += tracer.check_events(result["sim"]["events"])
        tracer.write(out / "trace.json")
    print(json.dumps(result))
    return 0


if __name__ == "__mp_main__":  # a spawn worker of a campaign operation
    Probe(os.environ[PROBE_ENV]).install()

if __name__ == "__main__":
    sys.exit(main())
