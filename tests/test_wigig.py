from dataclasses import replace
from pathlib import Path

import pytest

from coexsim import parse_config, run_once
from coexsim.config import CampaignConfig
from coexsim.engine import MS, US
from coexsim.radio import select_mcs
from coexsim.traffic import PacketRecord
from coexsim.wigig import (
    ASSOC_SPACING_NS,
    PREAMBLE_NS,
    PROBE_BYTES,
    WIGIG_MCS,
    WIGIG_MCS_MARGIN_DB,
    WIGIG_MCS_THRESHOLDS,
    WigigAp,
    WigigFrame,
    WigigSta,
    frame_duration_ns,
)
from tests.conftest import FixedRng

FULL_CAMPAIGN = parse_config(str(Path(__file__).resolve().parent.parent / "scripts" / "full_campaign.cfg"))
WIGIG_LABELS = [label for label in FULL_CAMPAIGN.sweep_labels()
                if "WiGig" in CampaignConfig().for_label(label).technologies().values()]


def test_frame_duration_hand_values():
    # 1.9 us preamble + payload bits / PHY rate, ceil to whole ns.
    assert frame_duration_ns(1500, 4620e6) == PREAMBLE_NS + 2598
    assert frame_duration_ns(1500, 385e6) == PREAMBLE_NS + 31_169


def test_frame_duration_rejects_empty_payload():
    with pytest.raises(ValueError):
        frame_duration_ns(0, 385e6)


def test_frames_do_not_snap_to_symbol_grid():
    assert frame_duration_ns(1500, 4620e6) % 8920 != 0


def test_select_mcs_on_the_wigig_table():
    assert WIGIG_MCS_MARGIN_DB == 1.0
    assert select_mcs(WIGIG_MCS_THRESHOLDS, 23.5, 1.0) == 5  # budget 22.5 >= top threshold
    assert select_mcs(WIGIG_MCS_THRESHOLDS, 22.9, 1.0) == 4  # budget 21.9 just misses it
    assert select_mcs(WIGIG_MCS_THRESHOLDS, -10.0, 1.0) == 0  # floor entry regardless of SINR


def _ap_rig(rig):
    site = rig.place("ap0", 0.0, 0.0, z=3.0, operator="A", role="ap")
    ap = WigigAp(site, rig.env, FixedRng(0))
    user = rig.place("sta0", 3.0, 0.0, operator="A", role="sta")
    rig.force_link(site, user)
    sta = WigigSta(user, ap)
    sta.association = "associated"
    return ap, sta


def test_cws_doubles_per_failure_and_caps(rig):
    ap, sta = _ap_rig(rig)
    ap.config = CampaignConfig(wigig_retry_limit=20)
    frame = WigigFrame(sta, PacketRecord(1500, 0))
    seen = []
    for _ in range(8):
        ap._current = frame
        ap._ack_ok = False
        ap._settle(frame)
        seen.append(ap.cws)
        ap.queue.clear()
    assert seen == [31, 63, 127, 255, 511, 1023, 1023, 1023]


def test_success_resets_cws(rig):
    ap, sta = _ap_rig(rig)
    ap.cws = 255
    frame = WigigFrame(sta, PacketRecord(1500, 0))
    ap._current = frame
    ap._ack_ok = True
    ap._settle(frame)
    assert ap.cws == 15


def test_drop_after_retry_limit(rig):
    ap, sta = _ap_rig(rig)
    pkt = PacketRecord(1500, 0)
    frame = WigigFrame(sta, pkt, failures=6)
    ap._current = frame
    ap._ack_ok = False
    ap._settle(frame)  # seventh failure
    assert pkt.lost and ap.drops == 1
    assert ap.cws == 15  # fresh contention state after the drop
    assert not ap.queue


def test_retransmission_does_not_combine(rig):
    # A retry is decoded from scratch: the frame keeps its MCS threshold and
    # there is no accumulated-SINR state anywhere on the STA.
    ap, sta = _ap_rig(rig)
    assert not hasattr(sta, "acc_sinr_lin")


def test_medium_busy_dual_thresholds(rig):
    ap, sta = _ap_rig(rig)
    intf = rig.place("intf", 0.0, 8.0, z=3.0, operator="B", role="gnb")
    rig.force_link(ap.device, intf)
    # 8 m LOS: rx = 17 - 83.29 = -66.3 dBm -> above both thresholds.
    em = rig.emit(intf, 17.0, 5_000, rat="nru")
    assert ap.medium_busy()
    rig.engine.run_until(10_000)
    assert not ap.medium_busy()

    # Attenuated to approximately -85 dBm: busy only if it is a same-tech
    # preamble; plain energy stays under the -79 dBm ED threshold.
    em2 = rig.emit(intf, -1.7, 5_000, rat="nru")
    assert not ap.medium_busy()
    rig.engine.run_until(20_000)
    em3 = rig.emit(intf, -1.7, 5_000, rat="wigig")
    assert ap.medium_busy()


def test_queued_packet_transmits_and_delivers(rig):
    ap, sta = _ap_rig(rig)
    pkt = PacketRecord(1500, 0)
    sta.offer_packet(pkt)
    rig.engine.run_until(2 * MS)
    assert pkt.delivered
    assert ap.state == ap.IDLE
    # Success path: one data frame and one ACK over the air in total.
    assert pkt.delivered_at >= 8 * US + PREAMBLE_NS


@pytest.mark.parametrize("acked", [True, False], ids=["ack", "timeout"])
def test_a_second_frame_contends_only_once_the_first_settles(rig, monkeypatch, acked):
    """A frame handed to the AP while the one in hand awaits its ACK starts
    no contention until that one settles, on its ACK or at its timeout (then
    the first frame's retry contends first)."""
    rig.env.traces["frames"] = settled = []
    ap, sta = _ap_rig(rig)
    if not acked:  # a rate above the link's 13.9 dB: the STA cannot decode the frame
        sta.last_sinr_db = 30.0
    starts = []
    start_backoff = ap._start_backoff
    monkeypatch.setattr(ap, "_start_backoff", lambda: (
        starts.append((rig.engine.now, ap._current.packet)), start_backoff()))
    first = PacketRecord(1500, 0)
    sta.offer_packet(first)
    rig.engine.run_until(10 * US)  # 8 us deferral, no backoff slot: the frame is on the air
    assert [em.source for em in rig.env.active.values()] == [ap.device]
    second = PacketRecord(1500, 0)
    sta.offer_packet(second)
    assert starts == [(0, first)] and ap.state == ap.IDLE and ap not in rig.env._listeners
    rig.engine.run_until(2 * MS)
    t_settled, outcome = settled[0][0], settled[0][6]
    assert outcome == ("done" if acked else "retry")
    assert starts[1] == (t_settled, second if acked else first)
    assert second.delivered == acked


def test_ack_success_settles_before_timeout(rig):
    ap, sta = _ap_rig(rig)
    pkt = PacketRecord(1500, 0)
    sta.offer_packet(pkt)
    rig.engine.run_until(2 * MS)
    # First frame goes at the floor MCS (no SINR estimate yet): 8 us deferral
    # with zero scripted backoff, then the frame itself; the packet counts as
    # delivered at frame end, not after the ACK timeout.
    dur = frame_duration_ns(1500, WIGIG_MCS[0][1])
    assert pkt.delivered_at == 8 * US + dur


def test_holding_queue_until_association(rig):
    ap, sta = _ap_rig(rig)
    sta.association = "pending"
    pkt = PacketRecord(1500, 0)
    sta.offer_packet(pkt)
    assert sta.holding == [pkt] and not ap.queue
    sta._end_association("associated")
    rig.engine.run_until(2 * MS)
    assert pkt.delivered and not sta.holding


def test_failed_association_drops_traffic(rig):
    ap, sta = _ap_rig(rig)
    sta.association = "failed"
    pkt = PacketRecord(1500, 0)
    sta.offer_packet(pkt)
    assert pkt.lost and not ap.queue


def test_failed_association_loses_the_held_packets(rig):
    site = rig.place("ap1", 0.0, 0.0, z=3.0, operator="A", role="ap")
    ap = WigigAp(site, rig.env, FixedRng(0))
    user = rig.place("sta1", 3.0, 0.0, operator="A", role="sta")
    rig.force_link(site, user, shadowing_db=200.0)  # no probe decodes
    sta = WigigSta(user, ap)
    held = [PacketRecord(1500, 0) for _ in range(2)]
    for pkt in held:
        sta.offer_packet(pkt)
    assert sta.holding == held
    sta.start()
    rig.engine.run_until(rig.config.assoc_attempts * 2 * MS)
    assert sta.association == "failed"
    assert all(pkt.lost and not pkt.delivered for pkt in held)
    assert not sta.holding and not ap.queue and ap._current is None


def test_a_probe_response_lost_at_the_sta_fails_the_attempt(rig, monkeypatch):
    """The AP decodes every probe, but an interferer beside the STA drowns
    each probe response: each attempt fails at the response's end, the next
    starts ASSOC_SPACING_NS later, and the last failure loses the held packets."""
    site = rig.place("ap1", 0.0, 0.0, z=3.0, operator="A", role="ap")
    ap = WigigAp(site, rig.env, FixedRng(0))
    user = rig.place("sta1", 3.0, 0.0, operator="A", role="sta")
    jammer = rig.place("jam", 2.5, 0.0, operator="B", role="ue")  # in the STA's beam
    for a, b in ((site, user), (jammer, user), (jammer, site)):
        rig.force_link(a, b)
    sta = WigigSta(user, ap)
    held = [PacketRecord(1500, 0) for _ in range(2)]
    for pkt in held:
        sta.offer_packet(pkt)
    probe_ns, sifs_ns = frame_duration_ns(PROBE_BYTES, WIGIG_MCS[0][1]), rig.config.sifs_ns
    attempts, failures = [], []
    attempt, failed = WigigSta._associate_attempt, WigigSta._attempt_failed

    def jammed_attempt(self):
        # On the air from after the probe's end until after the response's.
        attempts.append(rig.engine.now)
        rig.engine.schedule(lambda: rig.emit(jammer, 17.0, sifs_ns + probe_ns),
                            rig.engine.now + probe_ns + sifs_ns // 2)
        attempt(self)

    def recording_failed(self):
        failures.append(rig.engine.now)
        failed(self)

    monkeypatch.setattr(WigigSta, "_associate_attempt", jammed_attempt)
    monkeypatch.setattr(WigigSta, "_attempt_failed", recording_failed)
    sta.start()
    rig.engine.run_until(rig.config.assoc_attempts * 3 * MS)
    assert len(attempts) == len(failures) == rig.config.assoc_attempts
    # Each failure falls at the response's end: the AP heard the probe.
    assert failures == [t + 2 * probe_ns + sifs_ns for t in attempts]
    assert attempts[1:] == [t + ASSOC_SPACING_NS for t in failures[:-1]]
    assert sta.association == "failed"
    assert all(pkt.lost and not pkt.delivered for pkt in held)
    assert not sta.holding and not ap.queue and ap._current is None


def test_association_handshake_completes(rig):
    site = rig.place("ap1", 0.0, 0.0, z=3.0, operator="A", role="ap")
    ap = WigigAp(site, rig.env, FixedRng(0))
    user = rig.place("sta1", 3.0, 0.0, operator="A", role="sta")
    rig.force_link(site, user)
    sta = WigigSta(user, ap)
    sta.start()
    rig.engine.run_until(1 * MS)
    assert sta.association == "associated"


@pytest.mark.parametrize("label", WIGIG_LABELS)
def test_every_frame_settles_once_on_its_ack_or_at_its_timeout(monkeypatch, label):
    """On a full-floor run, each frame `_transmit` sends settles exactly once
    before its AP sends again: on its ACK, SIFS plus the ACK after the frame
    ends, or, when no ACK can come, `ack_timeout_ns` after it ends. Only a
    frame still in hand when the run ends is left open."""
    open_frames, settled = {}, {"ack": 0, "timeout": 0}
    transmit, settle = WigigAp._transmit, WigigAp._settle

    def recording_transmit(ap):
        assert ap not in open_frames, f"{ap.device.id} sent before its frame settled"
        transmit(ap)
        em = list(ap.env.active.values())[-1]  # the frame just put on the air
        assert em.source is ap.device
        open_frames[ap] = ap._current, em.end

    def checking_settle(ap, frame):
        sent, end = open_frames.pop(ap)
        assert frame is sent
        config = ap.config
        if ap._ack_ok:
            assert ap.engine.now == end + config.sifs_ns + config.ack_ns
            settled["ack"] += 1
        else:
            assert ap.engine.now == end + config.ack_timeout_ns
            settled["timeout"] += 1
        settle(ap, frame)

    monkeypatch.setattr(WigigAp, "_transmit", recording_transmit)
    monkeypatch.setattr(WigigAp, "_settle", checking_settle)
    cfg = replace(CampaignConfig().for_label(label), duration_s=0.05)
    run_once(cfg, 1)
    for ap, (frame, end) in open_frames.items():  # too late to settle by the end
        assert ap._current is frame and end + cfg.ack_timeout_ns > cfg.duration_ns
    assert settled["ack"] > 500 and settled["timeout"] > 0, settled
