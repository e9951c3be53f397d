"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single summary line so a
log scrape shows the full checklist. The heavyweight runs are shared through
module-scoped fixtures.
"""
import bisect
import math
import os
import statistics
from dataclasses import replace

import numpy as np
import pytest

from coexsim import CampaignConfig, run_once
from coexsim.channel_access import make_cam
from coexsim.cli import main
from coexsim.engine import MS, Engine, RngStreams
from coexsim.metrics import OccupancyLedger
from coexsim.radio import RadioEnvironment, noise_power_dbm
from tests.conftest import CAT4_CWS_LADDER, record_emissions, run_cams
from tests.verify import verify_lbt_safety

REDUCED = dict(sites_per_operator=1, users_per_operator=4)


def reduced(label, **kw):
    return replace(CampaignConfig().for_label(label), **{**REDUCED, **kw})


@pytest.fixture(scope="module")
def heavy_cat4_run():
    """Cat4/Cat2 coexistence, full 1.5 s, both operators overloaded (200 Mbps
    per device) so LBT machinery is exercised under constant contention; the
    run's result and its emissions."""
    cfg = reduced("Cat4/Cat2", load_mbps=200.0, duration_s=1.5)
    with pytest.MonkeyPatch.context() as mp:
        emissions = record_emissions(mp)
        return run_once(cfg, 1, traces=("cam",)), emissions


@pytest.fixture(scope="module")
def fairness_runs():
    """10-seed reduced-scenario campaign at 50 Mbps per device for the three
    labels the fairness and latency orderings compare."""
    out = {}
    for label in ("WiGig-only", "Cat4/Cat2", "On/On"):
        cfg = reduced(label, duration_s=0.5)
        out[label] = [run_once(cfg, seed) for seed in range(1, 11)]
    return out


def _wigig_goodputs_mbps(results):
    samples = []
    for r in results:
        for dev, bps in r.goodput_bps.items():
            op = dev.split("-", 1)[0]
            if r.technologies[op] == "WiGig":
                samples.append(bps / 1e6)
    return samples


def _latency_us(results, tech):
    samples = []
    for r in results:
        for dev, delays in r.latency_ns.items():
            op = dev.split("-", 1)[0]
            if r.technologies[op] == tech:
                samples.extend(d / 1e3 for d in delays)
    return samples


# 1 ---------------------------------------------------------------------------

def test_criterion_1_lbt_safety(heavy_cat4_run):
    r, emissions = heavy_cat4_run
    cam_rows = r.env.traces["cam"]
    violations = verify_lbt_safety(r.env, run_cams(r), cam_rows, emissions)
    windows = sum(1 for _t, _d, _c, e in cam_rows if e in ("grant", "counter_frozen"))
    assert windows > 1000, "the run must actually exercise LBT"
    assert violations == []
    print(f"\ncriterion 1 PASS: 0 violations across {windows} CCA windows")


def test_criterion_1_cat2_window_longer_than_retention(emission_log):
    cfg = reduced("Cat4/Cat2", load_mbps=200.0, duration_s=0.2, cat2_defer_us=400.0)
    r = run_once(cfg, 1, traces=("cam",))
    cam_rows = r.env.traces["cam"]
    grants = sum(1 for _t, _d, cat, e in cam_rows if cat == "Cat2" and e == "grant")
    assert grants > 10, "the run must grant Cat2 windows"
    assert verify_lbt_safety(r.env, run_cams(r), cam_rows, emission_log) == []


# 2 ---------------------------------------------------------------------------

def test_criterion_2_cot_bound(heavy_cat4_run):
    r, emissions = heavy_cat4_run
    grants = {}
    for t, dev, cat, event in r.env.traces["cam"]:
        if event == "grant" and cat in ("Cat2", "Cat3", "Cat4"):
            grants.setdefault(dev, []).append(t)
    checked = 0
    for em in emissions:
        g = grants.get(em.source.id)
        if not g:
            continue
        i = bisect.bisect_right(g, em.start) - 1
        assert i >= 0, f"emission at {em.start} by {em.source.id} precedes any grant"
        assert em.end - g[i] <= 9 * MS
        checked += 1
    assert checked > 1000
    print(f"criterion 2 PASS: {checked} emissions all end within 9 ms of grant")


# 3 ---------------------------------------------------------------------------

def test_criterion_3_duty_cycle_cap():
    cfg = reduced("OnOff/OnOff", load_mbps=3000.0, duration_s=0.4)
    r = run_once(cfg, 1)
    W = 180 * MS
    T = cfg.duration_ns
    edges = [t for iv in r.env.ledger._intervals["B"] for t in iv]
    starts = sorted(
        {0, T - W}
        | {min(max(t, 0), T - W) for t in edges}
        | {min(max(t - W, 0), T - W) for t in edges}
    )
    fracs = [r.env.ledger.occupied_within("B", s, s + W) / W for s in starts]
    assert min(fracs) >= 0.45
    assert max(fracs) <= 0.505
    print(
        f"criterion 3 PASS: windowed occupancy in "
        f"[{min(fracs):.4f}, {max(fracs):.4f}]"
    )


# 4 ---------------------------------------------------------------------------

def test_criterion_4_occupancy_asymmetry():
    ratios = []
    for seed in (1, 2, 3):
        cfg = reduced("Cat4/Cat2", duration_s=0.5)
        r = run_once(cfg, seed)
        assert r.wall_s < 120.0
        per_byte = {}
        for op in ("A", "B"):
            delivered = sum(
                bps * cfg.duration_s / 8
                for dev, bps in r.goodput_bps.items()
                if dev.startswith(f"{op}-")
            )
            per_byte[op] = r.occupancy[op] * cfg.duration_ns / delivered
        ratios.append(per_byte["B"] / per_byte["A"])
    ratio = statistics.median(ratios)
    assert 2.0 <= ratio <= 3.5
    print(f"criterion 4 PASS: per-byte occupancy ratio {ratio:.2f} (target [2.0, 3.5])")


# 5 ---------------------------------------------------------------------------

def test_criterion_5_fairness_ordering(fairness_runs):
    base = statistics.median(_wigig_goodputs_mbps(fairness_runs["WiGig-only"]))
    cat4 = statistics.median(_wigig_goodputs_mbps(fairness_runs["Cat4/Cat2"]))
    onon = statistics.median(_wigig_goodputs_mbps(fairness_runs["On/On"]))
    assert cat4 >= 0.9 * base, f"Cat4/Cat2 {cat4:.1f} vs baseline {base:.1f}"
    assert onon < base, f"On/On {onon:.1f} vs baseline {base:.1f}"
    print(
        f"criterion 5 PASS: WiGig median goodput Mbps baseline {base:.1f}, "
        f"Cat4/Cat2 {cat4:.1f} (>=0.9x), On/On {onon:.1f} (<)"
    )


# 6 ---------------------------------------------------------------------------

def test_criterion_6_latency_ordering(fairness_runs):
    runs = fairness_runs["Cat4/Cat2"]
    nru = _latency_us(runs, "NR-U")
    wigig = _latency_us(runs, "WiGig")
    nru_med, wigig_med = statistics.median(nru), statistics.median(wigig)
    nru_std, wigig_std = statistics.stdev(nru), statistics.stdev(wigig)
    assert nru_med < wigig_med
    assert wigig_std > nru_std
    print(
        f"criterion 6 PASS: median latency us NR-U {nru_med:.0f} < WiGig "
        f"{wigig_med:.0f}; std NR-U {nru_std:.0f} < WiGig {wigig_std:.0f}"
    )


# 7 ---------------------------------------------------------------------------

def test_criterion_7_cat4_cws_trajectory():
    engine = Engine()
    streams = RngStreams(1)
    env = RadioEnvironment(engine, streams, CampaignConfig())
    from coexsim.radio import AntennaArray, Device, Position

    dev = Device("gnb", "B", "gnb", Position(0, 0, 3), AntennaArray(8, 8))
    cam = make_cam("Cat4", dev, env)
    trajectory = [cam.cws]
    for cot_id in range(7):
        cam.feedback([True] * 8, cot_id)  # 100% NACK batches
        trajectory.append(cam.cws)
    assert tuple(trajectory[:7]) == CAT4_CWS_LADDER
    assert trajectory == [15, 31, 63, 127, 255, 511, 1023, 1023]
    cam.feedback([False, False, True], 7)
    assert cam.cws == 15  # ACK-majority resets
    print(f"criterion 7 PASS: cws trajectory {trajectory} with reset to 15")


# 8 ---------------------------------------------------------------------------

def test_criterion_8_ledger_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    horizon = 10_000_000
    n = 100_000
    starts = rng.integers(0, horizon - 1000, size=n)
    lengths = rng.integers(1, 1000, size=n)
    led = OccupancyLedger()
    grid = np.zeros(horizon, dtype=bool)
    for s, ln in sorted(zip(starts.tolist(), lengths.tolist())):  # in start order
        led.record("A", s, s + ln)
        grid[s : s + ln] = True
    oracle = int(np.count_nonzero(grid))
    rel = abs(sum(e - s for s, e in led._intervals["A"]) - oracle) / oracle
    assert rel <= 1e-3
    print(f"criterion 8 PASS: union of {n} intervals, relative error {rel:.1e}")


# 9 ---------------------------------------------------------------------------

def test_criterion_9_noise_power():
    value = noise_power_dbm(2.16e9, 7.0)
    assert value == pytest.approx(-73.65, abs=0.01)
    print(f"criterion 9 PASS: noise power {value:.4f} dBm (-73.65 +/- 0.01)")


# 10 --------------------------------------------------------------------------

def test_criterion_10_parallel_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "sites_per_operator = 1\nusers_per_operator = 4\nduration_s = 0.05\n"
    )
    trees = {}
    for par in (1, 5):
        out = tmp_path / f"par{par}"
        rc = main(
            ["campaign", "--config", str(cfg_path), "--seeds", "5",
             "--parallel", str(par), "--out", str(out)]
        )
        assert rc == 0
        tree = {}
        for dirpath, _dirs, files in os.walk(out):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    tree[os.path.relpath(path, out)] = fh.read()
        trees[par] = tree
    assert trees[1] == trees[5]
    assert len(trees[1]) == 5 * 3  # 5 runs x (metrics, scenario, run.json)
    print(f"criterion 10 PASS: {len(trees[1])} files byte-identical at parallel 1 vs 5")


# 11 --------------------------------------------------------------------------

def test_criterion_11_full_scenario_feasibility():
    cfg = CampaignConfig().for_label("Cat4/Cat2")  # Fig-2-scale: 6 sites, 24 users
    r = run_once(cfg, 1)
    assert r.wall_s < 120.0
    assert r.event_count > 100_000
    print(
        f"criterion 11 PASS: full scenario 1.5 s run, {r.event_count} events in "
        f"{r.wall_s:.1f} s wall (< 120 s budget)"
    )
