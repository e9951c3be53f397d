"""Single-run assembly, seeded campaign execution, and report aggregation.

A run is fully determined by (config, seed): the engine, RNG streams and all
output files are reproducible bit-exactly, independent of campaign
parallelism. Wall-clock timings are reported on stdout only so output
directories stay byte-identical across parallelism degrees.
"""
from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Optional

from .channel_access import make_cam
from .config import ACCESS_MODES, CampaignConfig, ConfigError, validate
from .engine import US, Engine, RngStreams
from .metrics import box_stats, goodput_per_device_bps, latency_samples_ns
from .nru import NruGnb, NruUe
from .radio import RadioEnvironment
from .scenario import Scenario, build_scenario, scenario_csv
from .traffic import CbrArrivals, CbrFlow, interarrival_ns
from .wigig import WigigAp, WigigSta


METRICS_HEADER = ["metric", "scope", "value"]
# Trace selector -> (file name, header).
TRACES = {
    "cam": ("cam_trace.csv", ["time_ns", "device", "category", "event"]),
    "mac": ("mac_trace.csv", ["slot_start_ns", "ue", "symbols", "mcs", "tb_bytes", "outcome"]),
    "frames": ("frame_trace.csv", ["time_ns", "ap", "sta", "bytes", "mcs", "retries", "outcome"]),
}


@dataclass
class RunResult:
    """One run: made by `build`, its first events scheduled; run and filled in by `run_once`."""
    label: str
    seed: int
    config_hash: str
    technologies: dict[str, str]
    # The run's objects, for in-process inspection (not serialized).
    env: RadioEnvironment = field(repr=False)
    scenario: Scenario = field(repr=False)
    flows: list[CbrFlow] = field(repr=False)
    aps: list[WigigAp] = field(repr=False)
    gnbs: list[NruGnb] = field(repr=False)
    # Filled in by `run_once`.
    event_count: int = 0
    wall_s: float = 0.0
    occupancy: dict[str, float] = field(default_factory=dict)
    latency_ns: dict[str, list[int]] = field(default_factory=dict)  # device -> delivered delays
    goodput_bps: dict[str, float] = field(default_factory=dict)


def build(cfg: CampaignConfig, seed: int, traces: tuple[str, ...] = ()) -> RunResult:
    """The run of `cfg` at `seed` recording `traces`, its first events scheduled and none run.
    Raises ConfigError on an invalid config or an unknown trace before it builds anything."""
    validate(cfg)
    unknown = sorted(set(traces) - TRACES.keys())
    if unknown:
        raise ConfigError(f"unknown trace selector(s): {unknown}")
    engine = Engine()
    streams = RngStreams(seed)
    env = RadioEnvironment(engine, streams, cfg)
    env.traces = {s: [] for s in traces}
    run = RunResult(cfg.label, seed, cfg.config_hash(), cfg.technologies(), env,
                    scenario=build_scenario(cfg, streams, env), flows=[], aps=[], gnbs=[])
    scn, flows = run.scenario, run.flows

    def add_flow(user, sink) -> None:
        flows.append(CbrFlow(f"flow-{user.id}", user.id, cfg.packet_bytes, sink))

    for op, tech in run.technologies.items():
        if tech == "NR-U":
            gnb_cat, ue_cat = ACCESS_MODES[cfg.nru_access]
            for site in scn.sites[op]:
                gnb = NruGnb(site, make_cam(gnb_cat, site, env), env)
                run.gnbs.append(gnb)
                for user in scn.users_of_site(site):
                    # A UE senses along its transmit beam: toward its site.
                    ue = NruUe(user, make_cam(ue_cat, user, env, site), gnb)
                    add_flow(user, ue.offer_packet)
                gnb.start()
        else:
            for site in scn.sites[op]:
                ap = WigigAp(site, env, streams.stream("dcf", site.id))
                run.aps.append(ap)
                for k, user in enumerate(scn.users_of_site(site)):
                    sta = WigigSta(user, ap, t0_offset=k * 100 * US)
                    sta.start()
                    add_flow(user, sta.offer_packet)

    spacing_ns = interarrival_ns(cfg.packet_bytes, cfg.load_mbps * 1e6)
    CbrArrivals(engine, flows, spacing_ns, cfg.duration_ns).start()
    return run


def run_once(
    cfg: CampaignConfig,
    seed: int,
    out_dir: Optional[str] = None,
    traces: tuple[str, ...] = (),
) -> RunResult:
    """`build` the run, run it for `cfg.duration_ns`, fill in its results and write them to
    `out_dir` if given: an `out_dir` that cannot be made is refused before any event runs."""
    t_wall = time.perf_counter()
    run = build(cfg, seed, traces)
    if out_dir is not None:
        _make_out_dir(out_dir)
    t_end = cfg.duration_ns
    env = run.env
    run.event_count = env.engine.run_until(t_end)
    run.wall_s = time.perf_counter() - t_wall
    run.occupancy = {op: env.ledger.occupied_within(op, 0, t_end) / t_end for op in ("A", "B")}
    run.latency_ns = latency_samples_ns(run.flows)
    run.goodput_bps = goodput_per_device_bps(run.flows, t_end)
    if out_dir is not None:
        _write_run(run, out_dir)
    return run


def _make_out_dir(path: str) -> None:
    """Make directory `path` unless it exists, before any run or report work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a file at `path` or on the way to it
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from None


def _write_run(result: RunResult, out_dir: str) -> None:
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_HEADER)
        for op in sorted(result.occupancy):
            w.writerow(["occupancy", op, f"{result.occupancy[op]:.9f}"])
        for dev in sorted(result.latency_ns):
            for delay in result.latency_ns[dev]:
                w.writerow(["latency_us", dev, f"{delay / 1000:.3f}"])
        for dev in sorted(result.goodput_bps):
            w.writerow(["goodput_mbps", dev, f"{result.goodput_bps[dev] / 1e6:.6f}"])
    with open(os.path.join(out_dir, "scenario.csv"), "w") as fh:
        fh.write(scenario_csv(result.scenario))
    meta = {
        "label": result.label,
        "seed": result.seed,
        "config_hash": result.config_hash,
        "technologies": result.technologies,
        "event_count": result.event_count,
    }
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for selector, (name, header) in TRACES.items():
        rows = result.env.traces.get(selector)
        path = os.path.join(out_dir, name)
        if rows is None:  # a trace left by an earlier run into out_dir is stale
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            continue
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


# -- campaign ----------------------------------------------------------------


PARTIAL_SUFFIX = ".partial"
RUN_FILES = ("run.json", "metrics.csv", "scenario.csv")  # a complete run's result


def _remove_stale(path: str) -> None:
    """Remove what a former campaign left at `path`: a directory tree or a file."""
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path, ignore_errors=True)
    elif os.path.lexists(path):
        os.remove(path)


def _campaign_worker(args) -> tuple[str, int, Optional[str], float]:
    cfg, seed, run_dir = args
    # Write into a fresh sibling, then swap it in whole: a re-run keeps no
    # stale file, and an interrupted one leaves no complete-looking run_dir.
    partial_dir = run_dir + PARTIAL_SUFFIX
    _remove_stale(partial_dir)
    try:
        result = run_once(cfg, seed, out_dir=partial_dir)
        outcome = (cfg.label, seed, None, result.wall_s)
    except Exception as exc:  # keep the campaign alive on per-run crashes
        os.makedirs(partial_dir, exist_ok=True)
        with open(os.path.join(partial_dir, "error.txt"), "w") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        outcome = (cfg.label, seed, f"{type(exc).__name__}: {exc}", 0.0)
    _remove_stale(run_dir)
    os.replace(partial_dir, run_dir)
    return outcome


def run_campaign(
    cfg: CampaignConfig,
    seeds: list[int],
    out_dir: str,
    parallelism: int = 1,
    verbose: bool = True,
) -> list[tuple[str, int, Optional[str], float]]:
    # Each task's `build` validates too; this call refuses an invalid config
    # before any run directory exists.
    validate(cfg)
    _make_out_dir(os.path.join(out_dir, "runs"))
    tasks = []
    for label in cfg.sweep_labels():
        label_cfg = cfg.for_label(label)
        for seed in seeds:
            run_dir = os.path.join(out_dir, "runs", f"{label.replace('/', '-')}_seed{seed}")
            tasks.append((label_cfg, seed, run_dir))
    if parallelism > 1:
        from multiprocessing import get_context  # here: `import coexsim` needs no pool

        # Forked workers start with coexsim imported. They inherit no run
        # state: run_once builds every object afresh from its task.
        with get_context("fork").Pool(parallelism) as pool:
            # One run per task: no worker idles while another ends a chunk.
            outcomes = pool.map(_campaign_worker, tasks, chunksize=1)
    else:
        outcomes = [_campaign_worker(t) for t in tasks]
    if verbose:
        for label, seed, err, wall in outcomes:
            status = f"ERROR {err}" if err else f"ok ({wall:.1f}s)"
            print(f"run {label} seed={seed}: {status}")
    return outcomes


# -- report ------------------------------------------------------------------


def emit_report(in_dir: str, out_csv: str) -> None:
    """Pool every run directory under `in_dir` (or its `runs/`) per label into
    box statistics in `out_csv`, making its directory if missing.

    Raises ConfigError, before pooling, on an `out_csv` that is a directory
    or whose directory cannot be made; then on a run directory without a
    complete result or whose files are malformed or disagree, on a
    `metrics.csv` with another header, on one label run under two
    configurations, and on a label lacking a seed that another label has.
    A seed missing from every label cannot be told apart from one never
    run, since the report has no campaign manifest.
    """
    from statistics import median  # here: `import coexsim` needs no report

    if not os.path.isdir(in_dir):
        raise ConfigError(f"no run directory {in_dir}")
    if os.path.isdir(out_csv):
        raise ConfigError(f"report output {out_csv} is a directory")
    _make_out_dir(os.path.dirname(out_csv) or ".")
    runs_dir = os.path.join(in_dir, "runs")
    if not os.path.isdir(runs_dir):
        runs_dir = in_dir
    samples: dict[tuple[str, str, str], list[float]] = {}
    hashes: dict[str, str] = {}
    seeds: dict[str, set[int]] = {}
    found = 0
    for name in sorted(os.listdir(runs_dir)):
        run_dir = os.path.join(runs_dir, name)
        if not os.path.isdir(run_dir):
            continue
        failed = os.path.exists(os.path.join(run_dir, "error.txt"))
        missing = not all(os.path.isfile(os.path.join(run_dir, f)) for f in RUN_FILES)
        if failed or name.endswith(PARTIAL_SUFFIX) or missing:
            # Pooling the remaining seeds would bias the box stats silently.
            raise ConfigError(f"run directory {run_dir} has no complete result")
        try:
            with open(os.path.join(run_dir, "run.json")) as fh:
                meta = json.load(fh)
            label, config_hash, tech = meta["label"], meta["config_hash"], meta["technologies"]
            seeds.setdefault(label, set()).add(meta["seed"])
            with open(os.path.join(run_dir, "scenario.csv")) as fh:
                dev_tech = {row["device"]: tech[row["operator"]] for row in csv.DictReader(fh)}
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"run directory {run_dir} has a run.json or scenario.csv that is malformed "
                f"or disagrees with the other ({type(exc).__name__}: {exc})"
            ) from None
        if label in hashes and hashes[label] != config_hash:
            raise ConfigError(
                f"mixed configurations for label '{label}' in {runs_dir}"
            )
        hashes[label] = config_hash
        found += 1
        per_dev_latency: dict[str, list[float]] = {}
        metrics_path = os.path.join(run_dir, "metrics.csv")
        with open(metrics_path, newline="") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != METRICS_HEADER:
                raise ConfigError(
                    f"{metrics_path} does not start with the header {','.join(METRICS_HEADER)}"
                )
            try:
                for metric, scope, value in rows:
                    if metric == "latency_us":
                        per_dev_latency.setdefault(scope, []).append(float(value))
                    elif metric == "occupancy":
                        samples.setdefault((label, metric, tech[scope]), []).append(float(value))
                    elif metric == "goodput_mbps":
                        samples.setdefault((label, metric, dev_tech[scope]), []).append(float(value))
                for dev, delays in per_dev_latency.items():
                    samples.setdefault((label, "latency_us", dev_tech[dev]), []).append(median(delays))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(
                    f"run directory {run_dir} has a metrics.csv that is malformed or names "
                    f"what its run.json and scenario.csv lack ({type(exc).__name__}: {exc})"
                ) from None
    if not found:
        raise ConfigError(f"no run results found under {in_dir}")
    every_seed = set().union(*seeds.values())
    missing = [(label, seed) for label in sorted(seeds) for seed in sorted(every_seed - seeds[label])]
    if missing:
        raise ConfigError(f"missing runs (label, seed) in {runs_dir}: {missing}")
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["config", "metric", "technology", "min", "p5", "p50", "p95", "max"])
        for key in sorted(samples):
            b = box_stats(samples[key])
            w.writerow(
                list(key)
                + [f"{v:.6f}" for v in (b.min, b.p5, b.p50, b.p95, b.max)]
            )
