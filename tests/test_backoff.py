"""The listen-before-talk procedure shared by NR-U Cat4 LBT and WiGig DCF:
8 us defer, 5 us CCA slots, a counter that freezes on a busy medium and
resumes after a fresh defer, and the insertion-order rule for a busy edge
that falls on a slot boundary."""
import pytest

from coexsim.channel_access import CAT4, make_cam
from coexsim.engine import MS
from coexsim.traffic import PacketRecord
from coexsim.wigig import WigigAp, WigigSta
from tests.conftest import FixedRng


def _lbt(rig, dev):
    cam = make_cam(CAT4, dev, rig.env, FixedRng(3))
    grants = []
    cam.request(grants.append)
    return lambda: [g.granted_at for g in grants]


def _dcf(rig, dev):
    ap = WigigAp(dev, rig.env, FixedRng(3))
    user = rig.place("sta0", 3.0, operator="A", role="sta")
    rig.force_link(dev, user)
    sta = WigigSta(user, ap, FixedRng(0))
    sta.association = "associated"
    rig.env.emission_log = []
    sta.offer_packet(PacketRecord("f", 0, 1500, 0))
    return lambda: [em.start for em in rig.env.emission_log if em.source is dev]


@pytest.fixture(params=[_lbt, _dcf], ids=["LbtCam-Cat4", "WigigAp"])
def machine(request, rig):
    """Counter 3 at t=0 beside a 17 dBm interferer at 1 m LOS. Returns the
    starter and the interferer; the starter returns a getter for the times
    of the grants (LBT) or frame starts (DCF)."""
    dev = rig.place("dev", 0.0, role="ap")
    intf = rig.place("intf", 1.0, operator="B")
    rig.force_link(dev, intf)
    return (lambda: request.param(rig, dev)), intf


def _burst(rig, intf, at):
    rig.engine.schedule(lambda: rig.emit(intf, 17.0, 6_000), at)


def test_burst_mid_slot_freezes_and_resumes(rig, machine):
    start, intf = machine
    starts = start()
    # Defer 0..8000, slot to 13000 (3->2), frozen at 14000, idle at 20000,
    # defer to 28000, two slots -> 38000.
    _burst(rig, intf, 14_000)
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [38_000]


def test_burst_scheduled_before_slot_timer_wins_the_tie(rig, machine):
    start, intf = machine
    _burst(rig, intf, 13_000)  # queued before the 13000 slot timer exists
    starts = start()
    # Frozen at 13000 with all three slots left: idle at 19000, defer to
    # 27000, three slots -> 42000.
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [42_000]


def test_burst_scheduled_after_slot_timer_loses_the_tie(rig, machine):
    start, intf = machine
    starts = start()
    # Queued at 10000, after the 13000 slot timer (queued at 8000): the slot
    # counts (3->2) before the burst freezes the counter. Idle at 19000,
    # defer to 27000, two slots -> 37000.
    rig.engine.schedule(lambda: _burst(rig, intf, 13_000), 10_000)
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [37_000]
