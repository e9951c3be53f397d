import math
from dataclasses import replace
from pathlib import Path

import pytest

from coexsim import parse_config, run_once
from coexsim.channel_access import CAT3, CAT4, ONOFF, ChannelGrant, LbtCam, make_cam
from coexsim.config import CampaignConfig
from coexsim.engine import SEC
from coexsim.nru import (
    MCS_TABLE,
    MCS_THRESHOLDS,
    SLOT_NS,
    SYMBOL_NS,
    SYMBOLS_PER_SLOT,
    NruGnb,
    NruUe,
    TransportBlock,
    symbol_capacity_bytes,
)
from coexsim.radio import db_to_lin, lin_to_db, select_mcs
from coexsim.traffic import PacketRecord
from tests.conftest import FixedRng, Rig


def test_symbol_grid_constants():
    assert SYMBOL_NS == 8920
    assert SYMBOLS_PER_SLOT == 14
    assert SLOT_NS == 124_880


# -- link adaptation -----------------------------------------------------------

def test_select_mcs_picks_highest_feasible():
    # budget = sinr - margin; thresholds at ... 13, 16 ...
    index = select_mcs(MCS_THRESHOLDS, 15.0, 1.0)
    assert index == 6 and MCS_TABLE[index][1] == 3.0


def test_select_mcs_tie_goes_up():
    # budget exactly on a threshold selects that entry.
    assert MCS_TABLE[select_mcs(MCS_THRESHOLDS, 17.0, 1.0)][0] == 16.0


def test_select_mcs_outage_below_lowest():
    # Outage: index 0 below the lowest threshold.
    assert select_mcs(MCS_THRESHOLDS, -5.0, 1.0) == 0


def test_select_mcs_rejects_non_finite():
    with pytest.raises(ValueError):
        select_mcs(MCS_THRESHOLDS, float("nan"), 1.0)


def test_symbol_capacity_hand_value():
    # 5.5 bit/s/Hz * 2.16 GHz * 0.75 overhead * 8.92 us / 8
    assert symbol_capacity_bytes(5.5, 2.16e9, 0.75) == 9934
    assert symbol_capacity_bytes(0.2, 2.16e9, 0.75) == 361


# -- scheduler rig ---------------------------------------------------------------

def _slots_rig(n_slots):
    """A rig whose run, and so the gNB's planning, lasts `n_slots` slots."""
    return Rig(config=replace(CampaignConfig(), duration_s=n_slots * SLOT_NS / SEC))


@pytest.fixture
def rig():
    return _slots_rig(10)


def _gnb_rig(rig, n_ues=2, distance=3.0):
    site = rig.place("gnb0", 0.0, 0.0, z=3.0, operator="B", role="gnb")
    cam = make_cam("Cat1", site, rig.env)
    mac_trace = rig.env.traces["mac"] = []
    gnb = NruGnb(site, cam, rig.env)
    ues = []
    for i in range(n_ues):
        dev = rig.place(f"ue{i}", distance, float(i), operator="B", role="ue")
        rig.force_link(site, dev)
        ue_cam = make_cam("Cat1", dev, rig.env, site)
        ues.append(NruUe(dev, ue_cam, gnb))
    return gnb, ues, mac_trace


def _pkt(size=1500):
    return PacketRecord(size, 0)


def test_single_packet_takes_one_whole_symbol(rig):
    gnb, ues, trace = _gnb_rig(rig, n_ues=1)
    ues[0].offer_packet(_pkt())
    gnb.start()
    rig.engine.run_until(10 * SLOT_NS)
    tx_rows = [r for r in trace if r[5] == "tx"]
    assert tx_rows[0][2] == 1  # 1500 B fits one symbol at high MCS
    assert tx_rows[0][4] == 1500


def test_an_idle_cell_schedules_no_commit(rig, monkeypatch):
    gnb, ues, trace = _gnb_rig(rig, n_ues=2)
    commits = []
    monkeypatch.setattr(gnb, "_commit", lambda slot, *_args: commits.append(slot))
    gnb.start()
    rig.engine.run_until(6 * SLOT_NS)
    assert commits == [] and trace == []
    ues[0].offer_packet(_pkt())  # the next slot planned has a block to send
    rig.engine.run_until(10 * SLOT_NS)
    assert commits == [9]


def test_round_robin_rotates_first_service(rig):
    gnb, ues, trace = _gnb_rig(rig, n_ues=2)
    for _ in range(40):
        ues[0].offer_packet(_pkt())
        ues[1].offer_packet(_pkt())
    gnb.start()
    rig.engine.run_until(8 * SLOT_NS)
    by_slot = {}
    for t_slot, ue_id, *_rest in [r for r in trace if r[5] == "tx"]:
        by_slot.setdefault(t_slot, []).append(ue_id)
    firsts = [v[0] for _t, v in sorted(by_slot.items())]
    assert len(set(firsts)) == 2  # both UEs take the head-of-line turn
    assert firsts[0] != firsts[1]


def test_whole_symbol_count_is_ceiling_of_bytes(rig):
    gnb, ues, trace = _gnb_rig(rig, n_ues=1)
    cfg = rig.config
    mcs = select_mcs(MCS_THRESHOLDS, ues[0].last_sinr_db, cfg.mcs_margin_db)
    cap = symbol_capacity_bytes(MCS_TABLE[mcs][1], cfg.bandwidth_hz, cfg.nru_overhead)
    n_bytes = cap + 1  # spills exactly one byte into a second symbol
    ues[0].offer_packet(_pkt(size=n_bytes))
    gnb.start()
    rig.engine.run_until(10 * SLOT_NS)
    tx_rows = [r for r in trace if r[5] == "tx"]
    assert tx_rows[0][2] == 2


def test_delivery_credits_packet_and_sends_feedback(rig):
    gnb, ues, trace = _gnb_rig(rig, n_ues=1)
    pkt = _pkt()
    ues[0].offer_packet(pkt)
    gnb.start()
    rig.engine.run_until(40 * SLOT_NS)
    assert pkt.delivered
    assert gnb.processes == {}  # feedback resolved the HARQ process
    assert not pkt.lost


def test_the_last_feedback_symbol_is_decoded_before_the_slot_end_timeout():
    """One UE on a clean channel: its feedback takes the slot's last symbol
    and so ends at the slot-end timeout. It is decoded first, so no block is
    sent twice."""
    rig = _slots_rig(80)
    gnb, [ue], trace = _gnb_rig(rig, n_ues=1)
    for i in range(40):  # 50 Mbps of 1500 B packets
        rig.engine.schedule(lambda: ue.offer_packet(_pkt()), i * 240_000)
    gnb.start()
    rig.engine.run_until(80 * SLOT_NS)
    tx_rows = [r for r in trace if r[5] == "tx"]
    assert gnb._next_pid > 30
    assert len(tx_rows) == gnb._next_pid


@pytest.mark.parametrize("order", ["commit first", "grant first"])
def test_an_lbt_grant_at_the_slot_start_is_too_late_for_that_slot(rig, order):
    gnb, [ue], trace = _gnb_rig(rig, n_ues=1)
    gnb.cam = LbtCam(CAT4, gnb.device, rig.env, FixedRng(3))  # grants at 23 us
    ue.offer_packet(_pkt())
    tb = TransportBlock(0, ue, 1500, ue.take_bytes(1500), mcs=0, n_symbols=1)

    def commit():
        gnb._commit(2, [tb], {})

    if order == "commit first":
        rig.engine.schedule(commit, 23_000)
        gnb.cam.request(gnb.cam._take)
    else:
        gnb.cam.request(gnb.cam._take)
        rig.engine.schedule(lambda: rig.engine.schedule(commit, 23_000), 22_999)
    rig.engine.run_until(23_000)
    assert gnb.cam.cot.granted_at == 23_000
    assert trace == [(23_000, "*", 0, -1, 0, "no_grant")]
    assert tb.tx_count == 0 and ue.buffered_bytes == 1500


class ContractCam:
    """A channel access manager with nothing but the calls a MAC may make,
    each one logged: it always grants, inside a COT that ends at 40 slots."""

    def __init__(self, engine):
        self.engine = engine
        self.cot = ChannelGrant(0, 40 * SLOT_NS)
        self.cot_id = 1
        self.log = []

    def live_cot(self):
        return self.cot

    def prepare(self):
        self.log.append(("prepare", self.engine.now))

    def access(self, t_end, deadline=None):
        self.log.append(("access", self.engine.now, t_end, deadline))
        return True

    def feedback(self, nacks, cot_id):
        self.log.append(("feedback", nacks, cot_id))


def test_the_mac_gets_on_the_air_through_the_cam_contract_alone(rig):
    gnb, [ue], trace = _gnb_rig(rig, n_ues=1)
    gnb.cam, ue.cam = ContractCam(rig.engine), ContractCam(rig.engine)
    pkt = _pkt()
    ue.offer_packet(pkt)
    gnb.start()
    rig.engine.run_until(40 * SLOT_NS)
    assert pkt.delivered and gnb.processes == {}
    [(t_tx, *_tx)] = trace
    lead = rig.config.mac_lead_slots
    assert gnb.cam.log == [
        ("prepare", t_tx - lead * SLOT_NS),
        ("access", t_tx, t_tx + SYMBOL_NS, None),
        ("feedback", [False], 1),
    ]
    [(_access, t_fb, t_end, deadline)] = ue.cam.log  # inside the gNB's COT
    assert t_end == t_fb + SYMBOL_NS and deadline == 40 * SLOT_NS


@pytest.mark.parametrize("category", [CAT4, CAT3])
def test_only_the_first_feedback_batch_of_a_cot_moves_the_cat4_window(rig, category):
    gnb, [ue], _ = _gnb_rig(rig, n_ues=1)
    gnb.cam = LbtCam(category, gnb.device, rig.env, FixedRng(0))

    def batch(pid, cot_id, ack):
        gnb.processes[pid] = TransportBlock(pid, ue, 0, [], 0, 1, tx_count=1, cot_id=cot_id)
        gnb._resolve([(pid, ack, None)])
        return gnb.cam.cws

    # Were a later batch of the same COT counted, the ACK would reset the
    # window and the NACK double it.
    cws = [batch(0, 1, False), batch(1, 1, True), batch(2, 2, False), batch(3, 2, False)]
    assert cws == ([31, 31, 63, 63] if category == CAT4 else [15] * 4)


@pytest.mark.parametrize("late_ns", [0, 1])
def test_ue_feedback_must_end_by_the_gnb_cot_deadline(rig, emission_log, late_ns):
    gnb, [ue], _ = _gnb_rig(rig, n_ues=1)
    gnb.cam = make_cam(ONOFF, gnb.device, rig.env)
    assert gnb._access_ok(SYMBOL_NS)  # a COT that ends with the duty cycle's on time
    t_send = rig.config.duty_on_ns - SYMBOL_NS + late_ns
    ue.fb_pending[0] = (True, 20.0)
    rig.engine.schedule(lambda: ue.send_feedback([0]), t_send)
    rig.engine.run_until(t_send)
    assert [em.source for em in emission_log] == ([ue.device] if late_ns == 0 else [])


def test_chase_combining_adds_linear_snr(rig):
    gnb, ues, _ = _gnb_rig(rig, n_ues=1)
    ue = ues[0]
    tb = TransportBlock(0, ue, 100, [], mcs=11, n_symbols=1)  # 28 dB threshold

    def one_tx():
        ue.receive_tb(tb, rig.emit(gnb.device, 17.0, SYMBOL_NS, beam_target=ue.device))

    one_tx()
    first = 10 * math.log10(tb.acc_sinr_lin)
    rig.engine.run_until(2 * SYMBOL_NS)
    one_tx()
    second = 10 * math.log10(tb.acc_sinr_lin)
    assert second - first == pytest.approx(10 * math.log10(2), abs=1e-9)


def test_a_block_sent_again_after_lost_feedback_combines_afresh(rig):
    """The UE decoded the first copy, but its feedback was lost, so the gNB
    sends the block again. The second copy is decided on its own SINR: the
    sum with the decoded copy would clear the threshold, the copy alone
    does not."""
    gnb, [ue], _ = _gnb_rig(rig, n_ues=1)
    pkt = _pkt(100)
    tb = TransportBlock(0, ue, 100, [(pkt, 100)], mcs=11, n_symbols=1, tx_count=1)
    gnb.processes[0] = tb

    def copy(power_dbm):
        now = rig.engine.now
        ue.receive_tb(tb, rig.emit(gnb.device, power_dbm, SYMBOL_NS, beam_target=ue.device))
        rig.engine.run_until(now + 2 * SYMBOL_NS)
        return ue.fb_pending.pop(0)

    ack, sinr_db = copy(40.0)
    assert ack and sinr_db >= MCS_TABLE[11][0] and pkt.delivered
    gnb._feedback_timeout([0])  # no feedback reached the gNB
    assert list(gnb.retx) == [tb]
    tb.tx_count += 1
    ack, weak_db = copy(40.0 - (sinr_db - MCS_TABLE[11][0]) - 3.0)
    assert weak_db < MCS_TABLE[11][0] < lin_to_db(db_to_lin(sinr_db) + db_to_lin(weak_db))
    assert not ack
    assert tb.acc_sinr_lin == db_to_lin(weak_db)


def test_harq_drops_after_max_transmissions(rig):
    gnb, ues, _ = _gnb_rig(rig, n_ues=1)
    pkt = _pkt()
    tb = TransportBlock(7, ues[0], 1500, [(pkt, 1500)], mcs=0, n_symbols=1, tx_count=4)
    gnb.processes[7] = tb
    gnb._feedback_timeout([7])
    assert pkt.lost
    assert not gnb.retx


def test_harq_requeues_below_max_transmissions(rig):
    gnb, ues, _ = _gnb_rig(rig, n_ues=1)
    tb = TransportBlock(8, ues[0], 1500, [(_pkt(), 1500)], mcs=0, n_symbols=1, tx_count=1)
    gnb.processes[8] = tb
    gnb._feedback_timeout([8])
    assert list(gnb.retx) == [tb]


@pytest.mark.xfail(strict=True, reason="F6")
def test_harq_retransmissions_resolve_up_to_the_limit():
    """A block that no transmission decodes is dropped once it has been sent
    harq_max_tx times. F6: a retransmission reuses its process id, which its
    first feedback already resolved, so its own feedback and timeout are
    skipped and the process stays open."""
    rig = _slots_rig(100)
    gnb, ues, trace = _gnb_rig(rig, n_ues=1)  # about 14 dB SNR at 3 m
    ues[0].last_sinr_db = 40.0  # top MCS (28 dB): even 4 combined copies fail
    pkt = _pkt()
    ues[0].offer_packet(pkt)
    gnb.start()
    rig.engine.run_until(100 * SLOT_NS)
    assert [r[3] for r in trace if r[5] == "tx"][0] == len(MCS_TABLE) - 1
    assert not pkt.delivered
    assert gnb.processes == {}
    assert pkt.lost


def test_feedback_reserves_tail_symbols_with_gap(rig):
    """The 3-symbol gap before reserved feedback symbols exceeds the 25 us
    Cat2 deferral, so an in-COT UE can clear its deferral check."""
    assert 3 * SYMBOL_NS > 25_000


def test_segment_return_preserves_fifo_order(rig):
    gnb, [ue], _ = _gnb_rig(rig, n_ues=1)
    p0, p1 = _pkt(), _pkt()
    ue.offer_packet(p0)
    ue.offer_packet(p1)
    segs = ue.take_bytes(2000)  # all of p0 plus 500 B of p1
    assert segs == [(p0, 1500), (p1, 500)]
    assert ue.buffered_bytes == 1000
    tb = TransportBlock(9, ue, 2000, segs, 0, 1)
    ue.return_segments(tb)
    assert ue.buffered_bytes == 3000
    assert [p for p, _n in ue.buffer] == [p0, p1]


def test_equal_packets_of_one_instant_stay_distinct_in_a_ue_buffer(rig):
    """Packets compare by identity: two of one size created at one instant
    are unequal, and each is found as itself in the UE's queue."""
    gnb, [ue], _ = _gnb_rig(rig, n_ues=1)
    p0, p1 = _pkt(), _pkt()
    assert p0 != p1
    ue.offer_packet(p0)
    ue.offer_packet(p1)
    queued = [p for p, _n in ue.buffer]
    assert queued.index(p0) == 0 and queued.index(p1) == 1
    assert p1 not in [p0]


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("cfg_name, label", [
    ("full_campaign.cfg", "Cat4/Cat2"),
    ("full_campaign.cfg", "Cat3/Cat2"),
    ("non_default.cfg", "Cat4/Cat2"),
])
def test_every_feedback_pid_is_pending_at_its_symbol(monkeypatch, cfg_name, label):
    """A reserved block ends at least FB_DELAY_SLOTS slots before its
    feedback symbol, so the UE has decided it by then: `send_feedback` pops
    every pid it is given."""
    send_feedback = NruUe.send_feedback
    sent = []

    def checked(ue, pids):
        assert all(pid in ue.fb_pending for pid in pids)
        sent.extend(pids)
        send_feedback(ue, pids)

    monkeypatch.setattr(NruUe, "send_feedback", checked)
    cfg = replace(parse_config(str(SCRIPTS / cfg_name)), duration_s=0.05)
    run_once(cfg.for_label(label), 1)
    assert len(sent) > 100


def test_ues_join_their_gnb_in_build_order_with_its_feedback_table(rig):
    gnb, ues, _trace = _gnb_rig(rig, n_ues=3)
    assert gnb.ues == ues
    for ue in ues:
        assert ue.fb_table is rig.env.link_table(gnb.device, ue.device)


@pytest.mark.parametrize("lead", [1, 4])
def test_plans_run_at_every_slot_start_and_commit_their_lead_slot(monkeypatch, lead):
    """`_plan` reads its slot off the clock: each gNB plans at every slot
    start from 0 until it has planned the slot the run ends in, and the
    blocks a plan makes are committed `mac_lead_slots` slots later, at that
    slot's start."""
    plan, commit = NruGnb._plan, NruGnb._commit
    plans, planned_at, commits = {}, {}, []

    def recording_plan(gnb):
        plans.setdefault(gnb, []).append(gnb.engine.now)
        first = gnb._next_pid
        plan(gnb)
        for pid in range(first, gnb._next_pid):
            planned_at[gnb, pid] = gnb.engine.now  # pids count per gNB

    def recording_commit(gnb, slot, alloc, fb_entries):
        assert gnb.engine.now == slot * SLOT_NS
        for tb in alloc:
            if tb.tx_count == 0:  # not sent yet, so made by this slot's plan
                assert planned_at[gnb, tb.pid] == (slot - lead) * SLOT_NS
        commits.append(slot)
        commit(gnb, slot, alloc, fb_entries)

    monkeypatch.setattr(NruGnb, "_plan", recording_plan)
    monkeypatch.setattr(NruGnb, "_commit", recording_commit)
    cfg = replace(CampaignConfig().for_label("Cat4/Cat2"), mac_lead_slots=lead, duration_s=0.01)
    run_once(cfg, 1)
    assert len(plans) == cfg.sites_per_operator
    for times in plans.values():
        assert times == [k * SLOT_NS for k in range(len(times))]
        last = len(times) - 1  # the last plan's slot starts at or after the run's end
        assert (last - 1 + lead) * SLOT_NS < cfg.duration_ns <= (last + lead) * SLOT_NS
    assert len(commits) > 100 and len(planned_at) > 100
