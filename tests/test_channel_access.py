import random
from dataclasses import replace

import pytest

from coexsim.channel_access import (
    CAT1,
    CAT2,
    CAT3,
    CAT4,
    ONOFF,
    LbtCam,
    make_cam,
)
from coexsim.config import CampaignConfig
from coexsim.engine import MS, US
from coexsim.radio import db_to_lin, lin_to_db, peak_power_lin
from coexsim.wigig import WigigAp
from tests.conftest import CAT4_CWS_LADDER, FixedRng, Rig
from tests.verify import verify_lbt_safety


def _cam(rig, category, dev, rng=None, toward=None):
    """The manager of `category`; an LBT one draws from `rng` (0s by default)."""
    if category in (CAT3, CAT4):
        return LbtCam(category, dev, rig.env, rng or FixedRng(0), toward)
    return make_cam(category, dev, rig.env, toward)


def _interferer(rig, dev_id="intf", x=1.0):
    """A neighbour whose emissions arrive at ~-50.7 dBm (1 m LOS, no shadow)."""
    intf = rig.place(dev_id, x)
    return intf


# -- Cat1 ---------------------------------------------------------------------

def test_cat1_grants_immediately_without_deadline(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT1, dev)
    g = cam.attempt()
    assert g.granted_at == 0
    assert g.cot_deadline is None
    assert g.covers(10**12)


# -- deadlines of immediate access -------------------------------------------------

@pytest.mark.parametrize(
    "category, deadline",
    [(CAT1, 60_000), (CAT2, 60_000), (ONOFF, 4 * MS)],
    ids=[CAT1, CAT2, ONOFF],
)
def test_attempt_inherits_initiator_deadline(rig, category, deadline):
    """Inside an initiator's COT an immediate grant ends at its deadline
    (OnOff: the earlier of the deadline and the on-period end at 9 ms)."""
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, category, dev)
    rig.engine.run_until(50_000)
    g = cam.attempt(deadline=deadline)
    assert g.cot_deadline == deadline
    assert g.covers(deadline) and not g.covers(deadline + 1)


# -- Cat2 ---------------------------------------------------------------------

def test_cat2_grant_when_deferral_window_idle(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT2, dev)
    rig.engine.run_until(100_000)
    g = cam.attempt()
    assert g is not None
    assert g.cot_deadline == 100_000 + 9 * MS


def test_cat2_window_boundary_is_half_open(rig):
    dev = rig.place("dev", 0.0)
    intf = _interferer(rig)
    rig.force_link(dev, intf)
    cam = _cam(rig, CAT2, dev)
    rig.emit(intf, 17.0, 10_000)  # occupies [0, 10000)
    rig.engine.run_until(34_999)
    assert cam.attempt() is None  # window [9999, 34999) touches the emission
    rig.engine.run_until(35_000)
    assert cam.attempt() is not None  # window [10000, 35000) is clean


@pytest.mark.parametrize("b_start, busy", [(5_000, True), (10_000, False)],
                         ids=["overlapping", "touching"])
def test_cat2_window_sums_two_quiet_emissions_only_where_they_overlap(rig, b_start, busy):
    """Two emissions at about -81 dBm, each below the -79 dBm threshold,
    reach it together: the window [5000, 30000) holds both, and reads busy
    only when they overlap, not when one starts as the other ends."""
    dev = rig.place("dev", 0.0)
    a, b = rig.place("a", 1.0), rig.place("b", -1.0)
    for src in (a, b):
        rig.force_link(dev, src)
    cam = _cam(rig, CAT2, dev)
    rig.emit(a, -13.3, 10_000)  # [0, 10000)
    rig.engine.schedule(lambda: rig.emit(b, -13.3, 10_000), b_start)
    rig.engine.run_until(30_000)
    ems = sorted(rig.env.window_emissions(cam.table, 5_000, 30_000))
    lins = [lin for _eid, _start, _end, lin in ems]
    assert len(lins) == 2 and max(lins) < cam.ed_threshold_lin <= sum(lins)
    peak = peak_power_lin(ems, 5_000)
    assert rig.env.max_sensed_power_dbm(dev, 5_000, 30_000) == lin_to_db(peak)
    assert cam.sense_window(5_000, 30_000) == (peak >= cam.ed_threshold_lin) == busy
    assert (cam.attempt() is None) == busy


def test_cat2_window_longer_than_retention_sees_old_emissions():
    rig = Rig(config=replace(CampaignConfig(), cat2_defer_us=400.0))
    assert rig.config.cat2_defer_ns > rig.env.RETAIN_NS
    dev = rig.place("dev", 0.0)
    intf = _interferer(rig)
    rig.force_link(dev, intf)
    cam = _cam(rig, CAT2, dev)
    rig.engine.schedule(lambda: rig.emit(intf, 17.0, 10_000), 100_000)  # [100, 110) us
    # The device's own emission ends 220 us after the interferer: ended
    # emissions are pruned here, and it does not count in its own window.
    rig.engine.schedule(lambda: rig.emit(dev, 17.0, 10_000), 320_000)
    rig.engine.run_until(410_000)
    assert cam.attempt() is None  # window [10, 410) us; the interferer ended 300 us ago
    rig.engine.run_until(510_000)
    assert cam.attempt() is not None  # window [110, 510) us is clean


# -- the energy-detection threshold --------------------------------------------
# Every sensing rule reads busy once the linear power sum reaches the
# listener's `ed_threshold_lin`, the threshold in dBm converted once. At
# -82.3 dBm, lin_to_db(ed_threshold_lin) rounds below -82.3, so a rule that
# compared in dBm would read a sum at exactly the threshold as idle.

THRESHOLD_DBM = -82.3


def _threshold_rig(*powers_lin):
    """A gNB with its Cat4 and Cat2 managers and a WiGig AP beside it, both at
    a -82.3 dBm ED threshold, and one source per linear power in
    `powers_lin`: each source's emissions (17 dBm, NR-U, unbeamed) arrive at
    exactly that power, written into the gNB's and the AP's tables under the
    link key a 1 ns emission at t=0 gives them, before the managers and the
    AP are built and fill their `sense` lists from those tables. Returned at
    t=1 ns, once those emissions have ended."""
    rig = Rig(config=replace(CampaignConfig(), gnb_ed_threshold_dbm=THRESHOLD_DBM,
                             wigig_ed_threshold_dbm=THRESHOLD_DBM))
    gnb = rig.place("gnb", 0.0, role="gnb")
    ap_dev = rig.place("ap", 0.0, 1.0, role="ap")
    sources = [rig.place(f"src{i}", 10.0 + i, operator="B") for i in range(len(powers_lin))]
    for src, lin in zip(sources, powers_lin):
        em = rig.emit(src, 17.0, 1)
        for dev in (gnb, ap_dev):
            table = rig.env.link_table(dev)
            table.lin[em.link_key] = lin
    lbt = _cam(rig, CAT4, gnb, FixedRng(15))
    cat2 = _cam(rig, CAT2, gnb)  # senses at the same omni table as `lbt`
    ap = WigigAp(ap_dev, rig.env, FixedRng(15))
    rig.engine.run_until(1)
    assert lbt.ed_threshold_lin == cat2.ed_threshold_lin == ap.ed_threshold_lin
    return rig, lbt, cat2, ap, sources


def test_one_emission_at_the_threshold_reads_busy_to_every_rule():
    threshold = db_to_lin(THRESHOLD_DBM)
    rig, lbt, cat2, ap, (src,) = _threshold_rig(threshold)
    rig.engine.schedule(lambda: rig.emit(src, 17.0, 20_000), 100_000)  # [100, 120) us
    rig.engine.run_until(110_000)
    assert lbt.medium_busy() and lbt._witness is not None
    assert ap.medium_busy() and ap._witness is not None
    assert cat2.sense_window(85_000, 110_000) and cat2.attempt() is None


def test_two_emissions_at_half_the_threshold_freeze_by_the_bound_and_fill_a_window():
    """Two emissions at half the threshold each sum to it exactly: the second
    rising edge takes each counting listener's bound to the threshold, and
    the full re-sense it triggers freezes the listener, busy by the sum (no
    witness); a Cat2 window holding both reads busy."""
    half = db_to_lin(THRESHOLD_DBM) / 2
    assert half + half == db_to_lin(THRESHOLD_DBM)
    rig, lbt, cat2, ap, (a, b) = _threshold_rig(half, half)
    lbt.request(lambda grant: None)
    ap._start_backoff()  # both defer 8 us, then count 15 slots of 5 us, due at 83.001 us
    rig.engine.schedule(lambda: rig.emit(a, 17.0, 20_000), 50_000)  # [50, 70) us
    rig.engine.run_until(50_000)
    for listener in (lbt, ap):
        assert listener.state == listener.COUNT and listener._bound == half
    rig.engine.schedule(lambda: rig.emit(b, 17.0, 20_000), 60_000)  # [60, 80) us
    rig.engine.run_until(60_000)
    for listener in (lbt, ap):
        assert listener.state == listener.WAIT_IDLE and listener._witness is None
        assert listener.counter == 5  # 10 slots counted by 58.001 us
    rig.engine.run_until(65_000)
    assert cat2.sense_window(40_000, 65_000) and cat2.attempt() is None


# -- OnOff ---------------------------------------------------------------------

def test_onoff_duty_cycle_edges(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, "OnOff", dev)
    assert cam.current_on_end(0) == 9 * MS
    assert cam.current_on_end(9 * MS - 1) == 9 * MS
    assert cam.current_on_end(9 * MS) is None
    assert cam.current_on_end(18 * MS) == 27 * MS

    g = cam.attempt()
    assert g is not None and g.cot_deadline == 9 * MS
    rig.engine.run_until(12 * MS)
    assert cam.attempt() is None
    rig.engine.run_until(18 * MS + 500_000)
    g = cam.attempt()
    assert g.cot_deadline == 27 * MS


# -- Cat3/Cat4 backoff -----------------------------------------------------------

def test_cat3_grant_timing_with_scripted_backoff(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT3, dev, rng=FixedRng(15))
    grants = []
    cam.request(grants.append)
    rig.engine.run_until(82_999)
    assert grants == []
    rig.engine.run_until(83_000)  # 8 us deferral + 15 slots x 5 us
    assert len(grants) == 1
    assert grants[0].granted_at == 83_000
    assert grants[0].cot_deadline == 83_000 + 9 * MS


def test_cat3_zero_backoff_grants_after_deferral_only(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT3, dev, rng=FixedRng(0))
    grants = []
    cam.request(grants.append)
    rig.engine.run_until(8_000)
    assert len(grants) == 1 and grants[0].granted_at == 8 * US


def test_backoff_counter_freezes_and_resumes(rig):
    dev = rig.place("dev", 0.0)
    intf = _interferer(rig)
    rig.force_link(dev, intf)
    trace = rig.env.traces["cam"] = []
    cam = _cam(rig, CAT4, dev, rng=FixedRng(3))
    grants = []
    cam.request(grants.append)
    # Busy burst in the middle of the countdown: [14000, 20000).
    rig.engine.schedule(lambda: rig.emit(intf, 17.0, 6_000), 14_000)
    rig.engine.run_until(1 * MS)
    # Deferral 0..8000, one slot to 13000 (counter 3->2), frozen at 14000,
    # re-deferral 20000..28000, two slots -> grant at 38000.
    assert [g.granted_at for g in grants] == [38_000]
    events = [(t, e) for t, _d, _c, e in trace]
    assert (14_000, "counter_frozen") in events
    assert (20_000, "defer_start") in events


def test_request_while_busy_waits_for_idle(rig):
    dev = rig.place("dev", 0.0)
    intf = _interferer(rig)
    rig.force_link(dev, intf)
    rig.emit(intf, 17.0, 50_000)
    cam = _cam(rig, CAT4, dev, rng=FixedRng(0))
    grants = []
    cam.request(grants.append)
    rig.engine.run_until(1 * MS)
    assert [g.granted_at for g in grants] == [58_000]  # idle at 50000 + 8 us defer


def test_backoff_draw_stays_within_window():
    # A request draws its counter uniformly from [0, cws] with the CAM's own
    # stream: Cat4 from its current window, Cat3 from cat3_cws.
    rig = Rig(config=replace(CampaignConfig(), cat3_cws=31))
    for category, cws in ((CAT4, 15), (CAT3, 31)):
        for seed in range(8):
            dev = rig.place(f"{category}-dev{seed}", 0.0)
            cam = LbtCam(category, dev, rig.env, random.Random(seed))
            cam.request(lambda _grant: None)
            assert cam.counter == random.Random(seed).randint(0, cws)
            assert 0 <= cam.counter <= cws


def test_make_cam_hands_a_stream_only_to_lbt(rig):
    """Only Cat3/Cat4 draw, each from the run's ("cam", device id) stream."""
    for category in (CAT1, CAT2, ONOFF, CAT3, CAT4):
        dev = rig.place(f"{category}-dev", 0.0)
        cam = make_cam(category, dev, rig.env)
        if category in (CAT3, CAT4):
            assert cam.rng.random() == rig.streams.stream("cam", dev.id).random()
        else:
            assert "rng" not in vars(cam)


def test_cat4_cws_ladder_and_reset(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT4, dev)
    seen = [cam.cws]
    for cot_id in range(7):
        cam.feedback([True] * 10, cot_id)
        seen.append(cam.cws)
    assert tuple(seen[:-1]) == CAT4_CWS_LADDER
    assert seen[-1] == 1023  # saturates at the cap
    cam.feedback([True, False, False], 7)
    assert cam.cws == 15  # ACK-majority resets


def test_cat4_threshold_is_eighty_percent(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT4, dev)
    cam.feedback([True, True, True, True, False], 0)
    assert cam.cws == 31  # exactly 80%
    cam.cws = 31
    cam.feedback([True, True, True, False, False], 1)
    assert cam.cws == 15  # 60%


def test_cat3_never_changes_cws(rig):
    dev = rig.place("dev", 0.0)
    cam = _cam(rig, CAT3, dev)
    cam.feedback([True] * 10, 0)
    assert cam.cws == 15


def test_directional_sensing_uses_beam_gain(rig):
    # The same emission is below a directional UE's threshold when the UE's
    # beam points away from the interferer, and above it when aligned.
    from coexsim.radio import AntennaArray

    arr = AntennaArray(rows=4, cols=4)
    dev = rig.place("dev", 0.0, role="ue", array=arr)  # UEs sense along the beam at -69 dBm
    ahead = rig.place("ahead", 10.0)
    behind = rig.place("behind", -8.0)
    rig.force_link(dev, behind)
    cam_ahead = _cam(rig, CAT2, dev, toward=ahead)
    cam_behind = _cam(rig, CAT2, dev, toward=behind)
    rig.emit(behind, 17.0, 60_000)  # at 8 m: rx approx -83 dBm omni
    rig.engine.run_until(30_000)
    away = cam_ahead.attempt()
    toward = cam_behind.attempt()
    assert away is not None  # rear lobe attenuates below -69 dBm
    assert toward is None  # aligned beam adds ~20 dB and trips the threshold


# -- offline safety verifier ------------------------------------------------------

def test_verifier_flags_grant_inside_busy_window(rig):
    dev = rig.place("dev", 0.0)
    intf = _interferer(rig)
    rig.force_link(dev, intf)
    cam = _cam(rig, CAT4, dev)
    em = rig.emit(intf, 17.0, 9_000)
    rows = [
        (0, "dev", CAT4, "defer_start"),
        (83_000, "dev", CAT4, "grant"),  # lies: window [0, 83000) was busy
    ]
    violations = verify_lbt_safety(rig.env, [cam], rows, [em])
    assert len(violations) == 1 and violations[0][1] == "dev"


def test_verifier_accepts_clean_windows(rig):
    dev = rig.place("dev", 0.0)
    intf = _interferer(rig)
    rig.force_link(dev, intf)
    cam = _cam(rig, CAT4, dev)
    em = rig.emit(intf, 17.0, 9_000)
    rows = [(9_000, "dev", CAT4, "defer_start"), (92_000, "dev", CAT4, "grant")]
    assert verify_lbt_safety(rig.env, [cam], rows, [em]) == []
