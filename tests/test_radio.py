import cmath
import math
import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from coexsim import radio
from coexsim.engine import RngStreams
from coexsim.nru import MCS_TABLE, MCS_THRESHOLDS
from coexsim.radio import (
    SHADOW_SIGMA_LOS_DB,
    SHADOW_SIGMA_NLOS_DB,
    AntennaArray,
    Position,
    _dirichlet,
    beam_gain_db,
    db_to_lin,
    element_gain_db,
    frame_gain_db,
    lin_to_db,
    los_probability,
    noise_power_dbm,
    pathloss_db,
    select_mcs,
    steering_frame,
)
from coexsim.wigig import WIGIG_MCS, WIGIG_MCS_THRESHOLDS
from tests.conftest import OMNI, Rig, table_entry

SITE = AntennaArray(rows=8, cols=8)
USER = AntennaArray(rows=4, cols=4)


# -- pathloss ---------------------------------------------------------------

def test_pathloss_los_hand_values():
    # 32.4 + 17.3*log10(d) + 20*log10(fc)
    assert pathloss_db(10.0, 58.0, los=True) == pytest.approx(84.9686, abs=1e-3)
    assert pathloss_db(1.0, 58.0, los=True) == pytest.approx(67.6686, abs=1e-3)


def test_pathloss_nlos_hand_value_and_floor():
    # max(LOS, 17.3 + 38.3*log10(d) + 24.9*log10(fc))
    assert pathloss_db(10.0, 58.0, los=False) == pytest.approx(99.5094, abs=1e-3)
    # At short range the NLOS formula dips under LOS and the max() kicks in.
    assert pathloss_db(1.0, 58.0, los=False) == pathloss_db(1.0, 58.0, los=True)


def test_pathloss_clamps_below_one_metre():
    assert pathloss_db(0.2, 58.0, True) == pathloss_db(1.0, 58.0, True)


@given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=1.0, max_value=99.0))
def test_nlos_never_below_los(d, fc):
    assert pathloss_db(d, fc, False) >= pathloss_db(d, fc, True) - 1e-9


def test_los_probability_piecewise():
    assert los_probability(0.0) == 1.0
    assert los_probability(5.0) == 1.0
    assert los_probability(25.0) == pytest.approx(0.75382, abs=1e-4)
    assert los_probability(60.0) == pytest.approx(0.51266, abs=1e-4)
    with pytest.raises(ValueError):
        los_probability(-1.0)


@given(st.floats(min_value=0.0, max_value=200.0))
def test_los_probability_in_unit_interval(d):
    assert 0.0 <= los_probability(d) <= 1.0


# -- noise ------------------------------------------------------------------

def test_noise_power_hand_value():
    assert noise_power_dbm(2.16e9, 7.0) == pytest.approx(-73.655, abs=5e-3)
    with pytest.raises(ValueError):
        noise_power_dbm(0.0, 7.0)


# -- arrays -----------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_dirichlet_matches_direct_phasor_sum(n, u):
    direct = abs(sum(cmath.exp(1j * math.pi * u * i) for i in range(n)))
    assert _dirichlet(n, u) == pytest.approx(direct, abs=1e-9)


def test_boresight_gain_is_array_peak_plus_element_peak():
    for array, peak in ((SITE, 10 * math.log10(64)), (USER, 10 * math.log10(16))):
        g = beam_gain_db(array, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert g == pytest.approx(peak + array.element_gain_dbi, abs=1e-9)


def test_gain_never_exceeds_boresight():
    s = (1.0, 0.0, 0.0)
    peak = beam_gain_db(SITE, s, s)
    for az_deg in range(0, 181, 5):
        a = math.radians(az_deg)
        t = (math.cos(a), math.sin(a), 0.0)
        assert beam_gain_db(SITE, s, t) <= peak + 1e-9


def test_gain_is_azimuth_symmetric():
    s = (1.0, 0.0, 0.0)
    for az_deg in (10, 30, 60, 120):
        a = math.radians(az_deg)
        left = beam_gain_db(SITE, s, (math.cos(a), math.sin(a), 0.0))
        right = beam_gain_db(SITE, s, (math.cos(a), -math.sin(a), 0.0))
        assert left == pytest.approx(right, abs=1e-9)


def test_element_pattern_parabolic_and_floored():
    arr = SITE
    assert element_gain_db(arr, 0.0, 0.0) == 8.0
    # Half-power beamwidth: 3 dB down at 32.5 degrees off in one plane.
    assert element_gain_db(arr, 32.5, 0.0) == pytest.approx(8.0 - 3.0, abs=1e-9)
    assert element_gain_db(arr, 180.0, 0.0) == 8.0 - 30.0
    assert element_gain_db(arr, 180.0, 90.0) == 8.0 - 30.0


def test_steering_up_does_not_blow_up():
    g = beam_gain_db(SITE, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    assert g == pytest.approx(10 * math.log10(64) + 8.0, abs=1e-9)


# -- cached link-budget terms ------------------------------------------------
# The caches must give the uncached formulas' floats bit for bit: compared as
# float.hex(), which also tells -0.0 from 0.0.

def _ref_beam_gain_db(array, steering, target):
    """`beam_gain_db` as one function that works out the steering frame on
    every call, in the order the cached path must keep."""
    sx, sy, sz = steering
    zx, zy, zz = -sz * sx, -sz * sy, 1.0 - sz * sz
    norm = math.sqrt(zx * zx + zy * zy + zz * zz)
    if norm < 1e-9:
        zx, zy, zz, norm = 1.0, 0.0, 0.0, 1.0
    zx, zy, zz = zx / norm, zy / norm, zz / norm
    yx = zy * sz - zz * sy
    yy = zz * sx - zx * sz
    yz = zx * sy - zy * sx
    tx, ty, tz = target
    a = tx * yx + ty * yy + tz * yz
    b = tx * zx + ty * zy + tz * zz
    af_lin = (_dirichlet(array.cols, a) * _dirichlet(array.rows, b)) ** 2
    af_db = 10.0 * math.log10(max(af_lin / (array.rows * array.cols), 1e-30))
    s_az = math.degrees(math.atan2(sy, sx))
    s_el = math.degrees(math.asin(max(-1.0, min(1.0, sz))))
    t_az = math.degrees(math.atan2(ty, tx))
    t_el = math.degrees(math.asin(max(-1.0, min(1.0, tz))))
    d_az = (t_az - s_az + 180.0) % 360.0 - 180.0
    d_el = t_el - s_el
    return af_db + element_gain_db(array, d_az, d_el)


def _unit(v):
    r = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / r, v[1] / r, v[2] / r)


UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-6).map(_unit)
UP, DOWN = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(array=st.sampled_from([SITE, USER, OMNI]), steering=UNIT,
       targets=st.lists(UNIT, min_size=1, max_size=4))
@example(array=SITE, steering=UP, targets=[UP, DOWN, (1.0, 0.0, 0.0)])
@example(array=USER, steering=DOWN, targets=[DOWN, UP, (0.0, 1.0, 0.0)])
@example(array=SITE, steering=(1.0, 0.0, 0.0), targets=[UP, DOWN])
def test_a_kept_steering_frame_gives_the_uncached_gain_bit_for_bit(array, steering, targets):
    frame = steering_frame(steering)  # one frame, reused for every target
    for target in targets:
        want = _ref_beam_gain_db(array, steering, target).hex()
        assert frame_gain_db(array, frame, target).hex() == want
        assert beam_gain_db(array, steering, target).hex() == want


POSITION = st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 20.0), st.sampled_from([1.5, 3.0]))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(points=st.lists(POSITION, min_size=3, max_size=6, unique=True), seed=st.integers(1, 5),
       pinned=st.booleans())
def test_cached_gains_and_pathloss_equal_the_uncached_formulas_bit_for_bit(points, seed, pinned):
    rig = Rig(seed)
    env, fc = rig.env, rig.config.center_frequency_ghz
    devs = [rig.place(f"d{i}", x, y, z, array=SITE if z == 3.0 else USER)
            for i, (x, y, z) in enumerate(points)]
    if pinned:  # a link pinned as a test rig does, before anything reads it
        rig.force_link(devs[0], devs[1], los=False, shadowing_db=-4.25)
    for _ in range(2):  # the second pass reads every cache
        for owner in devs:
            for toward in devs:
                if toward is owner:
                    continue
                for seen in devs:
                    if seen is not owner:
                        want = _ref_beam_gain_db(owner.array, env.direction(owner, toward),
                                                 env.direction(owner, seen))
                        assert env.gain_db(owner, toward, seen).hex() == want.hex()
                st_ = env.link(owner, toward)
                want = pathloss_db(st_.distance_3d, fc, st_.los) + st_.shadowing_db
                assert env.link_pathloss_db(owner, toward).hex() == want.hex()
    if pinned:
        assert env.link_pathloss_db(devs[1], devs[0]) == pathloss_db(
            devs[0].position.distance_3d(devs[1].position), fc, False) - 4.25


# -- environment ------------------------------------------------------------

def test_link_pathloss_is_reciprocal_and_cached(rig):
    a = rig.place("a", 0.0, 0.0)
    b = rig.place("b", 10.0, 0.0)
    assert rig.env.link_pathloss_db(a, b) == rig.env.link_pathloss_db(b, a)
    assert rig.env.link(a, b) is rig.env.link(b, a)


def test_link_draws_keep_no_stream(rig):
    a = rig.place("a", 0.0, 0.0)
    b = rig.place("b", 30.0, 0.0)
    state = rig.env.link(b, a)
    rng = RngStreams(1).stream("link", "a|b")  # the link's seed, drawn in the same order
    assert state.los == (rng.random() < los_probability(30.0))
    assert state.shadowing_db == rng.gauss(0.0, SHADOW_SIGMA_LOS_DB if state.los else SHADOW_SIGMA_NLOS_DB)


def test_window_emissions_come_in_eid_order_ended_ones_included(rig):
    """e0 and e2 end before now, e1 is still on the air: the window lists
    them in eid order, not the active one first."""
    dev = rig.place("dev", 0.0)
    sources = [rig.place(f"s{i}", 1.0 + i) for i in range(3)]
    for src in sources:
        rig.force_link(dev, src)
    sent = []
    for src, start, duration in zip(sources, (0, 1_000, 2_000), (10_000, 100_000, 15_000)):
        rig.engine.schedule(lambda src=src, d=duration: sent.append(rig.emit(src, 0.0, d)), start)
    rig.engine.run_until(20_000)
    assert [em.eid for em in rig.env.active.values()] == [sent[1].eid]
    ems = rig.env.window_emissions(rig.env.link_table(dev), 0, 20_000)
    assert [(eid, start, end) for eid, start, end, _lin in ems] == [
        (em.eid, em.start, em.end) for em in sent  # sent in eid order
    ]


def _linear_select_mcs(table, sinr_db, margin_db):
    """The rule select_mcs replaced: scan every entry, keep the last one at
    most the budget."""
    budget = sinr_db - margin_db
    chosen = 0
    for i, (thr, _rate) in enumerate(table):
        if thr <= budget:
            chosen = i
    return chosen


@pytest.mark.parametrize(
    "table, thresholds", [(MCS_TABLE, MCS_THRESHOLDS), (WIGIG_MCS, WIGIG_MCS_THRESHOLDS)],
    ids=["nru", "wigig"],
)
def test_select_mcs_bisection_matches_the_linear_rule(table, thresholds):
    assert thresholds == sorted(thresholds) == [thr for thr, _rate in table]
    for margin in (0.0, 1.0):
        sinrs = [table[0][0] + margin - 30.0, table[0][0] + margin - 1.0]  # below the first
        for thr, _rate in table:
            at = thr + margin  # an exact budget of thr for these integer thresholds
            sinrs += [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]
        for sinr in sinrs:
            assert select_mcs(thresholds, sinr, margin) == _linear_select_mcs(table, sinr, margin)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            select_mcs(thresholds, bad, 1.0)


def test_forced_link_gives_closed_form_rx_power(rig):
    a = rig.place("a", 0.0, 0.0, z=1.5)
    b = rig.place("b", 10.0, 0.0, z=1.5)
    rig.force_link(a, b)
    em = rig.emit(a, 17.0, 1000)
    p = rig.env.rx_power_dbm(em, b)
    assert p == pytest.approx(17.0 - 84.9686, abs=1e-3)


def test_sensing_window_half_open(rig):
    a = rig.place("a", 0.0, 0.0)
    b = rig.place("b", 1.0, 0.0)
    rig.force_link(a, b)
    rig.emit(a, 17.0, 10_000)  # rx at b: 17 - 67.67 = -50.7 dBm
    rig.engine.run_until(50_000)
    env = rig.env
    assert env.max_sensed_power_dbm(b, 0, 10_000) == pytest.approx(-50.67, abs=0.01)
    # Emission occupies [0, 10000); a window starting at its end is clean.
    assert env.max_sensed_power_dbm(b, 10_000, 20_000) == -math.inf
    # A window ending at its start is clean too (half-open on both sides).
    em2_start = 50_000
    rig.emit(a, 17.0, 5_000)
    assert env.max_sensed_power_dbm(b, em2_start - 1_000, em2_start) == -math.inf


def test_window_sensing_refuses_a_window_older_than_the_retention(rig):
    a = rig.place("a", 0.0, 0.0)
    b = rig.place("b", 1.0, 0.0)
    rig.force_link(a, b)
    env = rig.env
    rig.emit(a, 17.0, 10_000)  # [0, 10000)
    rig.engine.schedule(lambda: rig.emit(a, 17.0, 10_000), 240_000)
    rig.engine.run_until(300_000)  # the second end pruned the first emission
    assert [em.start for em in env._ended] == [240_000]
    oldest = 300_000 - env._retain_ns
    assert env.max_sensed_power_dbm(b, oldest, 300_000) == pytest.approx(-50.67, abs=0.01)
    with pytest.raises(ValueError, match=r"window \[5000, 300000\)"):
        env.max_sensed_power_dbm(b, 5_000, 300_000)  # would miss [0, 10000)
    with pytest.raises(ValueError, match=r"window \[99999, 300000\)"):
        env.max_sensed_power_dbm(b, oldest - 1, 300_000)


def test_aggregate_sensing_sums_linear_powers(rig):
    a = rig.place("a", 0.0, 0.0)
    b = rig.place("b", 1.0, 0.0)
    c = rig.place("c", 2.0)
    rig.force_link(a, c)
    rig.force_link(b, c)
    rig.emit(a, 10.0, 1000)
    rig.emit(b, 10.0, 1000)
    pa = rig.env.rx_power_dbm(rig.env.active[0], c)
    pb = rig.env.rx_power_dbm(rig.env.active[1], c)
    expect = 10 * math.log10(db_to_lin(pa) + db_to_lin(pb))
    assert rig.env.sensed_power_dbm(c) == pytest.approx(expect, abs=1e-9)


def test_effective_sinr_piecewise_average(rig):
    tx = rig.place("tx", 0.0, 0.0)
    rx = rig.place("rx", 1.0, 0.0)
    jam = rig.place("jam", 2.0)  # also 1 m from rx, so it arrives at power s
    rig.force_link(tx, rx)
    rig.force_link(jam, rx)
    cap = rig.emit(tx, 17.0, 1000)
    # Interferer covers only the second half of the signal.
    rig.engine.schedule(lambda: rig.emit(jam, 17.0, 600), 500)
    rig.engine.run_until(2000)
    env = rig.env
    s = db_to_lin(17.0 - pathloss_db(1.0, 58.0, True))
    n = env.noise_lin
    expect = 10 * math.log10(0.5 * (s / n) + 0.5 * (s / (n + s)))
    got = env.effective_sinr_db(rig.decoded[cap.eid], env.link_table(rx))
    assert got == pytest.approx(expect, abs=1e-6)


def test_capture_includes_later_overlapping_emission(rig):
    tx = rig.place("tx", 0.0, 0.0)
    rx = rig.place("rx", 1.0, 0.0)
    rig.force_link(tx, rx)
    cap = rig.emit(tx, 17.0, 1000)
    late = rig.place("late", 0.0, 2.0)
    rig.force_link(late, rx)
    rig.engine.schedule(lambda: rig.emit(late, 17.0, 100), 900)
    rig.engine.run_until(2000)
    assert any(e.source is late for e in rig.decoded[cap.eid].interferers)


class _WaitingListener:
    """A listener stub waiting for an idle medium, logging notifications."""

    WAIT_IDLE = state = 1
    _witness = None

    def __init__(self, log):
        self.log = log

    def medium_changed(self):
        self.log.append("listener")


def test_add_emission_hands_its_capture_to_at_end_in_its_one_end_event(rig):
    a, b, c = rig.place("a", 0.0), rig.place("b", 1.0), rig.place("c", 2.0)
    env, engine = rig.env, rig.engine
    log, caps = [], {}
    env.add_listener(_WaitingListener(log))
    # Queued first: an emission starting at the exact nanosecond `a`'s ends.
    engine.schedule(lambda: caps.setdefault("next", rig.emit(c, 17.0, 500)), 1_000)

    def at_end(cap):
        log.append(("at_end", engine.now, cap.eid in env.active, list(cap.interferers)))

    queued = len(engine._heap)
    caps["tx"] = env.add_emission(env.link_key(a, b, "wigig"), 1_000, at_end)
    assert len(engine._heap) == queued + 1  # the end event, nothing else
    assert engine.run_until(1_000) == 2  # the queued start, then that end event
    # at_end ran last in the end event: off the air, listener notified first.
    assert log == ["listener", ("at_end", 1_000, False, [])]
    assert caps["next"].interferers == []
    # Its receiver has run: the emission keeps neither its interferers nor at_end.
    assert caps["tx"].interferers is None and caps["tx"].at_end is None


def test_an_ended_emission_drops_its_interferers_and_at_end(rig):
    """Its receiver gets the emission with its interferers in the end event;
    afterwards it keeps neither them nor `at_end`, so emissions kept for
    window sensing hold no others alive, while one still on the air keeps
    the ended one among its interferers."""
    env, engine = rig.env, rig.engine
    a, b, rx = rig.place("a", 0.0), rig.place("b", 2.0), rig.place("rx", 1.0)
    seen = []

    def at_end(em):
        seen.append((em.eid, list(em.interferers), em.at_end is at_end))

    first = env.add_emission(env.link_key(a, rx, "nru"), 1_000, at_end)
    engine.schedule(lambda: seen.append(env.add_emission(env.link_key(b, rx, "nru"), 1_500,
                                                         at_end)), 500)
    engine.run_until(1_000)
    second = seen.pop(0)
    assert seen == [(first.eid, [second], True)]
    assert first.interferers is None and first.at_end is None and first in env._ended
    assert second.interferers == [first] and second.at_end is at_end
    engine.run_until(2_000)
    assert seen[1] == (second.eid, [first], True)
    assert second.interferers is None and second.at_end is None


def test_receiver_own_emission_excluded_from_sinr(rig):
    tx = rig.place("tx", 0.0, 0.0)
    rx = rig.place("rx", 1.0, 0.0)
    rig.force_link(tx, rx)
    cap = rig.emit(tx, 17.0, 1000)
    rig.emit(rx, 17.0, 1000)  # full-duplex artefact must not self-jam
    clean = 17.0 - 67.6686 - rig.env.noise_dbm
    assert rig.env.effective_sinr_db(cap, rig.env.link_table(rx)) == pytest.approx(clean, abs=1e-3)


def test_position_distances():
    p = Position(0.0, 3.0, 0.0)
    q = Position(4.0, 0.0, 12.0)
    assert p.distance_2d(q) == 5.0
    assert p.distance_3d(q) == 13.0


# -- link tables ------------------------------------------------------------
# Reference sums read rx_power_dbm + db_to_lin afresh for every emission, in
# eid order, as sensing did before the tables; every comparison is exact, and
# every busy/idle answer compares a linear sum with the ED threshold.

def _dbm(lin):
    return lin_to_db(lin) if lin > 0 else -math.inf


def _ref_sensed_lin(env, device, beam, ems):
    total = 0.0
    for em in ems:
        if em.source is not device:
            total += db_to_lin(env.rx_power_dbm(em, device, beam))
    return total


def _ref_wigig_busy(env, device, config, ems):
    total = 0.0
    for em in ems:
        if em.source is device:
            continue
        p = env.rx_power_dbm(em, device)
        if em.rat == "wigig" and p >= config.wigig_preamble_threshold_dbm:
            return True
        total += db_to_lin(p)
    return total >= db_to_lin(config.wigig_ed_threshold_dbm)


def _ref_window_lin(env, device, beam, ems, w_start, w_end):
    ems = [e for e in ems if e.start < w_end and e.end > w_start and e.source is not device]
    best = 0.0
    for t in sorted({max(e.start, w_start) for e in ems}):
        total = 0.0
        for e in ems:
            if e.start <= t < e.end:
                total += db_to_lin(env.rx_power_dbm(e, device, beam))
        best = max(best, total)
    return best


def _ref_sinr_db(env, cap, receiver, beam):
    return lin_to_db(_ref_sinr_lin(env, cap, receiver, beam))


def _ref_sinr_lin(env, cap, receiver, beam):
    sig = cap
    s_lin = db_to_lin(env.rx_power_dbm(sig, receiver, beam))
    infs = [e for e in cap.interferers
            if e.source is not receiver and e.end > sig.start and e.start < sig.end]
    if not infs:
        return s_lin / env.noise_lin
    points = sorted({sig.start, sig.end} | {max(e.start, sig.start) for e in infs}
                    | {min(e.end, sig.end) for e in infs})
    acc = 0.0
    for t0, t1 in zip(points, points[1:]):
        # In order from 0, as the float rule states: not `sum()`, which
        # compensates its float sums since CPython 3.12.
        i_lin = 0
        for e in infs:
            if e.start <= t0 and e.end >= t1:
                i_lin += db_to_lin(env.rx_power_dbm(e, receiver, beam))
        acc += (t1 - t0) * s_lin / (env.noise_lin + i_lin)
    return acc / (sig.end - sig.start)


def _linear_sinr(monkeypatch, env, cap, table):
    """`effective_sinr_db` with its final log10 taken out, 10 times the linear
    mean: log10 rounds away the one-ulp differences that another order of
    the float sums makes, so only the linear value pins that order."""
    with monkeypatch.context() as patch:
        patch.setattr(radio, "log10", lambda x: x)
        return env.effective_sinr_db(cap, table)


# Tie cases for the segment sweep. The signal `sig` is on the air over
# [10_000, 50_000); each other entry is (source, start, duration), emitted in
# list order, so two entries starting in one nanosecond get eids in that order.
SWEEP_TIES = {
    "touching": [("j1", 0, 10_000), ("sig", 10_000, 40_000), ("j2", 20_000, 10_000),
                 ("j3", 50_000, 10_000)],
    "shared-signal-edges": [("j1", 0, 90_000), ("sig", 10_000, 40_000), ("j2", 10_000, 20_000),
                            ("j3", 30_000, 20_000)],
    "shared-edge-inside": [("j1", 5_000, 20_000), ("sig", 10_000, 40_000), ("j2", 25_000, 10_000),
                           ("j3", 25_000, 40_000)],
    "gap": [("sig", 10_000, 40_000), ("j1", 10_000, 10_000), ("j2", 30_000, 20_000)],
    "own-emission": [("j1", 0, 30_000), ("sig", 10_000, 40_000), ("rx", 20_000, 20_000),
                     ("j2", 35_000, 30_000)],
    "same-start-j2-first": [("j1", 0, 90_000), ("j4", 5_000, 60_000), ("sig", 10_000, 40_000),
                            ("j2", 20_000, 10_000), ("j3", 20_000, 20_000)],
    "same-start-j3-first": [("j1", 0, 90_000), ("j4", 5_000, 60_000), ("sig", 10_000, 40_000),
                            ("j3", 20_000, 20_000), ("j2", 20_000, 10_000)],
}


@pytest.mark.parametrize("case", list(SWEEP_TIES))
def test_sinr_sweep_ties_match_the_reference(rig, monkeypatch, case):
    env, engine = rig.env, rig.engine
    devices = {name: rig.place(name, x, y, array=USER) for name, x, y in (
        ("sig", 0.0, 0.0), ("rx", 3.0, 1.0), ("j1", 5.0, 4.0), ("j2", 1.0, -3.0), ("j3", -2.0, 2.0),
        ("j4", 4.0, -2.0))}
    rx = devices["rx"]
    caps = {}
    powers = iter([17.0, 5.0, -3.5, 11.0, 17.0, 8.0])
    for name, start, duration in SWEEP_TIES[case]:
        emit = partial(rig.emit, devices[name], next(powers), duration,
                       beam_target=rx if name != "rx" else devices["sig"])
        engine.schedule(lambda emit=emit, name=name: caps.setdefault(name, emit()), start)
    engine.run_until(100_000)
    sig = cap = rig.decoded[caps["sig"].eid]
    assert (sig.start, sig.end) == (10_000, 50_000)
    # Only emissions that overlap the signal are in the capture, and at least
    # one of them does not span it: the decode takes the segment path.
    assert cap.interferers == sorted(
        (c for name, c in caps.items() if name != "sig" and c.start < sig.end and c.end > sig.start),
        key=lambda e: e.eid)
    assert any(e.start > sig.start or e.end < sig.end for e in cap.interferers)
    for receiver in devices.values():
        if receiver is not devices["sig"]:
            for beam in (None, devices["sig"]):
                table = env.link_table(receiver, beam)
                assert env.effective_sinr_db(cap, table) == _ref_sinr_db(env, cap, receiver, beam)
                want = 10.0 * _ref_sinr_lin(env, cap, receiver, beam)
                assert _linear_sinr(monkeypatch, env, cap, table) == want


@pytest.mark.parametrize(
    "seed, n_emissions, n_checks, span_ns",
    [pytest.param(seed, 120, 200, 400_000, id=str(seed)) for seed in (1, 2, 3)]
    # Long runs: most emissions have ended, many pruned, when a window is read.
    + [pytest.param(seed, 1_000, 400, 2_000_000, id=f"long-{seed}") for seed in (4, 5)],
)
def test_link_tables_match_fresh_rx_power_sums(rig, emission_log, monkeypatch, seed, n_emissions,
                                              n_checks, span_ns):
    from coexsim.channel_access import CAT4, LbtCam
    from coexsim.wigig import WigigAp, WigigSta
    from tests.conftest import FixedRng

    rng = random.Random(seed)
    env, engine, config = rig.env, rig.engine, rig.config
    ap = WigigAp(rig.place("ap", 0.0, 0.0, z=3.0, role="ap", array=SITE), env, rng)
    gnb = rig.place("gnb", 6.0, 4.0, z=3.0, operator="B", role="gnb", array=SITE)
    ue = rig.place("ue", 9.0, 1.0, operator="B", role="ue", array=USER)
    omni_cam = LbtCam(CAT4, gnb, env, FixedRng(0))  # LBT: medium_busy and windows
    beam_cam = LbtCam(CAT4, ue, env, FixedRng(0), gnb)
    sta = WigigSta(ue, ap)  # its association check: the AP's rule at the UE
    devices = [ap.device, gnb, ue] + [
        rig.place(f"d{i}", rng.uniform(-15, 15), rng.uniform(-15, 15), array=USER)
        for i in range(5)
    ]
    caps = []

    def emit():
        src = rng.choice(devices)
        target = rng.choice([None] + [d for d in devices if d is not src])
        cap = rig.emit(src, rng.choice([17.0, 5.0, -3.5]), rng.randrange(1_000, 40_000),
                       rat=rng.choice(["nru", "wigig"]), beam_target=target)
        caps.append((cap, rng.choice(devices), rng.choice([None] + devices)))

    outcomes = set()

    def check():
        ems = list(env.active.values())
        assert ap.medium_busy() == _ref_wigig_busy(env, ap.device, config, ems)
        assert sta.medium_busy() == _ref_wigig_busy(env, ue, config, ems)
        outcomes.add(ap.medium_busy())
        for cam, beam in ((omni_cam, None), (beam_cam, gnb)):
            ref = _ref_sensed_lin(env, cam.device, beam, ems)
            assert env.sensed_power_dbm(cam.device, beam) == _dbm(ref)
            assert cam.medium_busy() == (ref >= cam.ed_threshold_lin)
            t = engine.now
            for w_start in (t - 25_000, t - env.RETAIN_NS):
                window = _ref_window_lin(env, cam.device, beam, emission_log, w_start, t)
                assert env.max_sensed_power_dbm(cam.device, w_start, t, beam) == _dbm(window)
                assert cam.sense_window(w_start, t) == (window >= cam.ed_threshold_lin)

    for _ in range(n_emissions):
        engine.schedule(emit, rng.randrange(0, span_ns))
    for _ in range(n_checks):
        engine.schedule(check, rng.randrange(0, span_ns + 50_000))
    engine.run_until(span_ns + 100_000)
    assert outcomes == {True, False}
    for cap, receiver, beam in caps:
        cap = rig.decoded[cap.eid]
        table = env.link_table(receiver, beam)
        assert env.effective_sinr_db(cap, table) == _ref_sinr_db(env, cap, receiver, beam)
        want = 10.0 * _ref_sinr_lin(env, cap, receiver, beam)
        assert _linear_sinr(monkeypatch, env, cap, table) == want


def test_sinr_when_every_interferer_spans_the_signal(rig):
    rng = random.Random(7)
    env, engine = rig.env, rig.engine
    devices = [
        rig.place(f"d{i}", rng.uniform(-15, 15), rng.uniform(-15, 15), array=USER)
        for i in range(6)
    ]
    caps = []

    def burst():
        # Interferers on the air from before the signal starts to after it
        # ends (one starts with it), among them one from the signal's own
        # source; each device in turn is the receiver, so its own emission
        # is left out.
        src = rng.choice(devices)
        sources = [src] + [rng.choice(devices) for _ in range(rng.randint(1, 4))]
        for k, dev in enumerate(sources):
            target = rng.choice([None] + [d for d in devices if d is not dev])
            power = rng.choice([17.0, 5.0, -3.5])
            engine.schedule(
                lambda dev=dev, power=power, target=target: rig.emit(
                    dev, power, 40_000, beam_target=target),
                engine.now + (10_000 if k == 1 else 0),
            )
        target = rng.choice([d for d in devices if d is not src])
        engine.schedule(
            lambda: caps.append(rig.emit(src, 17.0, 20_000, beam_target=target)),
            engine.now + 10_000,
        )

    for k in range(60):
        engine.schedule(burst, k * 100_000)
    engine.run_until(6_100_000)
    assert len(caps) == 60
    for cap in caps:
        sig = cap = rig.decoded[cap.eid]
        assert all(e.start <= sig.start and e.end >= sig.end for e in cap.interferers)
        assert any(e.source is sig.source for e in cap.interferers)
        for receiver in devices:
            for beam in [None] + devices:
                if beam is not receiver:
                    want = _ref_sinr_db(env, cap, receiver, beam)
                    assert env.effective_sinr_db(cap, env.link_table(receiver, beam)) == want


@pytest.mark.parametrize("end_event_first", [True, False], ids=["ended", "still-on-air"])
def test_back_to_back_emissions_stay_out_of_each_others_captures(rig, end_event_first):
    env, engine = rig.env, rig.engine
    rx = rig.place("rx", 1.0)
    devices = [rx] + [
        rig.place(name, x, y, operator="B")
        for name, x, y in (("first", 0.0, 0.0), ("next", 2.0, 0.0), ("mid", 1.0, 2.0))
    ]
    caps = {}

    def emit(source, duration_ns):
        if source.id == "next":  # the first emission ends now: is its end event still due?
            caps["first_on_air"] = len(env.active) == 2
        caps[source.id] = rig.emit(source, 17.0, duration_ns, beam_target=rx)

    first, nxt, mid = devices[1:]
    if not end_event_first:  # queued ahead of the first emission's end event
        engine.schedule(lambda: emit(nxt, 1_000), 1_000)
    emit(first, 1_000)
    if end_event_first:
        engine.schedule(lambda: emit(nxt, 1_000), 1_000)
    engine.schedule(lambda: emit(mid, 1_000), 500)
    engine.run_until(3_000)

    assert caps["first_on_air"] is not end_event_first
    sig = {name: caps[name] for name in ("first", "next", "mid")}
    decoded = {name: rig.decoded[em.eid] for name, em in sig.items()}
    assert decoded["first"].interferers == [sig["mid"]]
    assert decoded["next"].interferers == [sig["mid"]]
    assert decoded["mid"].interferers == [sig["first"], sig["next"]]
    for name, cap in decoded.items():
        for receiver in devices:
            for beam in [None] + devices:
                if beam is not receiver:
                    want = _ref_sinr_db(env, cap, receiver, beam)
                    table = env.link_table(receiver, beam)
                    assert env.effective_sinr_db(cap, table) == want


def test_emissions_differing_in_target_power_or_rat_get_their_own_entries(rig):
    src = rig.place("src", 0.0, array=SITE)
    near = rig.place("near", 3.0, 1.0)
    far = rig.place("far", -5.0, 2.0)
    rx = rig.place("rx", 4.0, -2.0)
    base = dict(rat="nru", beam_target=near)
    variants = [
        rig.emit(src, 17.0, 1_000, **base),
        rig.emit(src, 17.0, 1_000, rat="nru", beam_target=far),
        rig.emit(src, 10.0, 1_000, **base),
        rig.emit(src, 17.0, 1_000, rat="wigig", beam_target=near),
        rig.emit(src, 17.0, 1_000, rat="nru", beam_target=None),
    ]
    assert len({em.link_key for em in variants}) == len(variants)
    table = rig.env.link_table(rx)
    for em in variants:
        p = rig.env.rx_power_dbm(em, rx)
        assert table_entry(table, em.link_key) == (p, db_to_lin(p))
    powers = [table.lin[em.link_key] for em in variants]
    assert len({powers[0], powers[1], powers[2], powers[4]}) == 4
    # A repeat of an earlier emission shares its key and entry, and so does a
    # frame on the link a MAC registers, which sends at the configured power.
    again = rig.emit(src, 17.0, 1_000, **base)
    assert rig.config.tx_power_dbm == 17.0
    sent = rig.env.add_emission(rig.env.link_key(src, near, "nru"), rig.engine.now + 1_000,
                                lambda cap: None)
    assert again.link_key == sent.link_key == variants[0].link_key
    assert (sent.source, sent.tx_power_dbm, sent.beam_target, sent.rat) == (src, 17.0, near, "nru")
    assert None not in table.lin and len(table.lin) == len(rig.env._link_emissions) == len(variants)


def test_capture_interferers_are_every_overlapping_emission_in_eid_order(rig, emission_log):
    """Oracle for capture bookkeeping: a capture lists exactly the other
    emissions whose half-open [start, end) meets its signal's, in eid order,
    whatever the order of same-nanosecond starts and end events."""
    rng = random.Random(17)
    env, engine = rig.env, rig.engine
    devices = [rig.place(f"d{i}", float(i)) for i in range(4)]
    caps, heard = [], {}  # heard: eid -> the interferers in its end event

    def emit(chain):
        """Emit now; a chained emission starts the next one in its end event."""
        now = engine.now
        src = rng.choice(devices)
        key, end = env.link_key(src, None, "nru", 17.0), now + 1_000 * rng.randint(1, 5)

        def at_end(cap):
            heard[cap.eid] = list(cap.interferers)
            if chain:
                emit(chain - 1)

        caps.append(env.add_emission(key, end, at_end))

    for _ in range(200):  # on a 1 us grid: many starts share a nanosecond with an edge
        engine.schedule(partial(emit, rng.randrange(3)), 1_000 * rng.randrange(80))
    engine.run_until(1_000_000)
    log = emission_log
    assert len(caps) == len(log) > 300
    starts = [em.start for em in log]
    assert len(set(starts)) < len(starts) // 2  # several starts in one nanosecond
    assert sum(em.end in starts for em in log) > 100  # zero-gap back-to-back
    for sig in caps:
        assert heard[sig.eid] == [
            e for e in log if e is not sig and e.start < sig.end and e.end > sig.start
        ]


@pytest.mark.parametrize("j2_start, j2_duration", [(1_000, 8_000), (3_000, 8_000), (1_000, 2_000)],
                         ids=["spanning", "starting-late", "ending-early"])
def test_sinr_at_a_beamed_table_matches_the_reference(rig, j2_start, j2_duration):
    env, engine = rig.env, rig.engine
    src = rig.place("src", 0.0, 0.0)
    rx = rig.place("rx", 3.0, 1.0, array=USER)
    jams = [rig.place("j1", 5.0, 4.0), rig.place("j2", 1.0, -3.0)]
    caps = []
    rig.emit(jams[0], 17.0, 10_000, beam_target=rx)  # spans the signal [1000, 5000)
    engine.schedule(lambda: rig.emit(jams[1], 5.0, j2_duration), j2_start)
    engine.schedule(lambda: caps.append(rig.emit(src, 17.0, 4_000, beam_target=rx)), 1_000)
    engine.run_until(20_000)
    (cap,) = caps
    sig = cap = rig.decoded[cap.eid]
    assert len(cap.interferers) == 2
    spanning = j2_start <= sig.start and j2_start + j2_duration >= sig.end
    assert spanning == all(e.start <= sig.start and e.end >= sig.end for e in cap.interferers)
    table = env.link_table(rx, src)
    assert table is not env.link_table(rx)
    want = _ref_sinr_db(env, cap, rx, src)
    assert env.effective_sinr_db(cap, table) == want
    assert env.effective_sinr_db(cap, env.link_table(rx)) == _ref_sinr_db(env, cap, rx, None) != want
