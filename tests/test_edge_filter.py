"""Sensing settled without a full re-sum: an emission start reaches only the
listeners that sensed idle, and re-senses one of them only when its running
bound can reach the threshold, unless the emission is loud on its own and
freezes it at once; an emission end re-senses only the listeners that sensed
busy and whose witness, if any, is the emission that ended. A Cat2 window is
swept only when neither its loudest emission nor its whole sum settles it.
Every shortcut must be exact: it leaves a listener as a full re-sense would,
and a window reads as the sweep does. Every contending device reads its
sensing from a `sense` list, one entry per link key, that must follow the
sensing rule at its table whenever the key was born."""
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from coexsim import CampaignConfig, parse_config, run_once
from coexsim.channel_access import CAT4, Backoff, Cam, LbtCam
from coexsim.radio import RadioEnvironment, peak_power_lin
from coexsim.wigig import WigigAp, WigigSta
from tests.conftest import FixedRng, record_cams, table_entry

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
LABELS = parse_config(str(SCRIPTS / "full_campaign.cfg")).sweep_labels()

# The parameters of the golden non-default case, on the default full floor.
NON_DEFAULT = replace(
    parse_config(str(SCRIPTS / "non_default.cfg")),
    sites_per_operator=CampaignConfig().sites_per_operator,
    users_per_operator=CampaignConfig().users_per_operator,
)


class Probe:
    """A listener stub sitting in one Backoff state, counting notifications;
    with no room under its bound, every rising edge re-senses it."""

    WAIT_IDLE = Backoff.WAIT_IDLE
    _witness = None
    _bound = ed_threshold_lin = _preamble_dbm = math.inf
    sense = [0.0]  # the entry of the one link its tests emit on, key 0

    def __init__(self, state, table):
        self.state = state
        self.table = table
        self.calls = 0

    def medium_changed(self):
        self.calls += 1


def test_start_skips_busy_listeners_and_end_skips_idle_ones(rig):
    a = rig.place("a", 0.0)
    intf = rig.place("intf", 1.0, operator="B")
    rig.force_link(a, intf)
    probes = {s: Probe(s, rig.env.link_table(a)) for s in (Backoff.WAIT_IDLE, Backoff.COUNT)}
    for probe in probes.values():
        rig.env.add_listener(probe)

    rig.emit(intf, 17.0, 5_000)
    assert {s: p.calls for s, p in probes.items()} == {
        Backoff.WAIT_IDLE: 0, Backoff.COUNT: 1
    }
    rig.engine.run_until(5_000)  # the emission ends
    assert {s: p.calls for s, p in probes.items()} == {
        Backoff.WAIT_IDLE: 1, Backoff.COUNT: 1
    }


def test_witness_keeps_the_ap_busy_until_it_ends(rig):
    ap_dev = rig.place("ap", 0.0, role="ap")
    sta = rig.place("sta", 31.0)
    weak_src = rig.place("weak", 30.0, operator="B")  # weak at the AP, not at the STA
    strong_src = rig.place("strong", 1.0, operator="B")
    for rx in (ap_dev, sta):
        for src in (weak_src, strong_src):
            rig.force_link(rx, src)
    ap = WigigAp(ap_dev, rig.env, FixedRng(3))
    sta_mac = WigigSta(sta, ap)
    weak = rig.emit(weak_src, 0.0, 10_000)
    strong = rig.emit(strong_src, 17.0, 20_000)
    table = rig.env.link_table(ap_dev)
    assert table.read(weak.link_key) < ap.ed_threshold_lin <= table.read(strong.link_key)
    assert rig.env.link_table(sta).read(weak.link_key) >= ap.ed_threshold_lin
    calls = []
    ap.medium_changed = lambda: (calls.append(rig.engine.now), Backoff.medium_changed(ap))
    ap._start_backoff()
    assert ap.state == ap.WAIT_IDLE and ap._witness is strong
    assert sta_mac.medium_busy() and ap._witness is strong  # a STA's sensing is not the AP's

    rig.engine.run_until(10_000)  # the weak emission ends: no re-sensing
    assert calls == [] and ap.state == ap.WAIT_IDLE and ap.medium_busy()
    rig.engine.run_until(20_000)  # the witness ends: the AP re-senses idle
    assert calls == [20_000] and ap.state == ap.COUNT and ap._witness is None


def sense_rule(obj, em) -> float:
    """The entry `obj.sense` should hold for `em`'s link, from `obj.table`:
    0.0 for the device's own emission, inf for a WiGig preamble at its
    `_preamble_dbm`, otherwise the linear power."""
    table = obj.table
    if em.source is table.receiver:
        return 0.0
    p, lin = table_entry(table, em.link_key)
    return math.inf if em.rat == "wigig" and p >= obj._preamble_dbm else lin


@pytest.mark.parametrize("case, busy", [("preamble", True), ("quiet-sum", False),
                                         ("sum-over", True)])
def test_the_sta_association_check_is_the_ap_rule_at_the_sta(rig, case, busy):
    """A STA's association check senses omni at the STA by the AP's rule
    (`sense_rule`): busy on a WiGig preamble loud on its own, else iff the
    eid-order sum reaches the AP's ED threshold. Its own emission adds
    nothing, and the AP's own sensing state is left as it was."""
    ap = WigigAp(rig.place("ap", 0.0, role="ap"), rig.env, FixedRng(0))
    sta_dev = rig.place("sta", 20.0)
    sta = WigigSta(sta_dev, ap)
    srcs = [rig.place(f"src{i}", 25.0, 2.0 * i, operator="B") for i in range(3)]
    for src in srcs:
        rig.force_link(src, sta_dev)

    def arrive(src, dbm, rat="nru"):
        """Emit from `src` at the power that reaches the STA at about `dbm`."""
        rig.emit(src, dbm + rig.env.link_pathloss_db(src, sta_dev), 10_000, rat=rat)

    rig.emit(sta_dev, 17.0, 10_000, rat="wigig")  # its own: loud, never sensed
    if case == "preamble":  # over the preamble threshold, under the ED one
        arrive(srcs[0], -85.0, rat="wigig")
    elif case == "quiet-sum":  # about -82 dBm in all; the WiGig one is no preamble
        arrive(srcs[0], -85.0)
        arrive(srcs[1], -85.0)
        arrive(srcs[2], -95.0, rat="wigig")
    else:  # each under the ED threshold, their sum about 0.1 dB over it
        arrive(srcs[0], -81.9)
        arrive(srcs[1], -81.9)
    rule = SimpleNamespace(table=rig.env.link_table(sta_dev), _preamble_dbm=ap._preamble_dbm)
    entries = [sense_rule(rule, em) for em in rig.env.active.values()]
    assert entries[0] == 0.0
    assert all(lin < ap.ed_threshold_lin for lin in entries if lin != math.inf)
    total = 0.0
    for lin in entries:
        total += lin
    assert (total >= ap.ed_threshold_lin) == busy
    witness, bound = object(), ap.ed_threshold_lin / 2
    ap._witness, ap._bound = witness, bound
    assert sta.medium_busy() == busy
    assert ap._witness is witness and ap._bound == bound


def sensed_busy(env, obj) -> bool:
    """`obj`'s sensing now, without its `sense` list: busy iff an emission on
    the air not its own is loud on its own (energy at `ed_threshold_lin`, or
    a WiGig preamble at `_preamble_dbm`), or the eid-order sum of their
    linear powers at its table reaches `ed_threshold_lin`."""
    table = env.link_table(obj.table.receiver, obj.table.rx_beam)
    total = 0.0
    for em in env.active.values():
        if em.source is not table.receiver:
            p, lin = table_entry(table, em.link_key)
            if lin >= obj.ed_threshold_lin or (em.rat == "wigig" and p >= obj._preamble_dbm):
                return True
            total += lin
    return total >= obj.ed_threshold_lin


def test_a_sense_list_covers_the_keys_born_before_and_after_its_device(rig):
    """A contender built after link keys exist gets their entries, and a key
    born later extends every contender's list, whichever was built first."""
    ap_dev = rig.place("ap", 0.0, role="ap")
    gnb_dev = rig.place("gnb", 0.0, 2.0, operator="B", role="gnb")
    src = rig.place("src", 20.0, operator="B")
    for a, b in ((ap_dev, gnb_dev), (ap_dev, src), (gnb_dev, src)):
        rig.force_link(a, b)
    ap = WigigAp(ap_dev, rig.env, FixedRng(0))
    assert ap.sense == [] and rig.env._backoffs == [ap]
    ems = [rig.emit(ap_dev, 17.0, 1_000, rat="wigig"),
           rig.emit(src, 6.0, 1_000, rat="wigig"),  # about -84 dBm at the AP
           rig.emit(src, 6.0, 1_000, rat="nru")]
    lbt = LbtCam(CAT4, gnb_dev, rig.env, FixedRng(0))
    p_ap, lin_ap = table_entry(ap.table, ems[1].link_key)
    assert lin_ap < ap.ed_threshold_lin and p_ap >= ap._preamble_dbm  # a preamble, quiet energy
    assert ap.sense == [0.0, math.inf, ap.table.read(ems[2].link_key)]
    assert lbt.sense == [lbt.table.read(em.link_key) for em in ems]  # no preamble rule
    born = rig.emit(gnb_dev, 17.0, 1_000)
    assert ap.sense[3:] == [ap.table.read(born.link_key)] and lbt.sense[3:] == [0.0]
    assert rig.env._backoffs == [ap, lbt]
    for obj in (ap, lbt):
        assert obj.sense == [sense_rule(obj, em) for em in rig.env._link_emissions]


@pytest.mark.parametrize("base", [CampaignConfig(), NON_DEFAULT], ids=["default", "non-default"])
@pytest.mark.parametrize("label", LABELS)
def test_every_sense_entry_follows_the_rule_at_its_table(monkeypatch, base, label):
    """After a full-floor run, every AP and LBT manager built is registered
    once, and each entry of its `sense` list is the rule's at its table for
    a link that has aired (eid set), None for one that has not."""
    cams = record_cams(monkeypatch)
    result = run_once(replace(base.for_label(label), duration_s=0.05), 1)
    env = result.env
    contenders = result.aps + [cam for cam in cams if isinstance(cam, LbtCam)]
    assert sorted(map(id, env._backoffs)) == sorted(map(id, contenders))
    assert len(env._link_emissions) > 20
    for obj in env._backoffs:
        want = [None if em.eid < 0 else sense_rule(obj, em) for em in env._link_emissions]
        assert obj.sense == want, obj.device.id


@pytest.fixture
def checked_notify(monkeypatch):
    """Check every listener `_notify` does not fully re-sense (skipped, bound
    skipped or loud frozen): its sensing right after the edge, summed by
    `sensed_busy` without its `sense` list, must still match its state (busy
    exactly in WAIT_IDLE), unless its countdown is due at that nanosecond,
    as after a loud edge that found the counter spent: it fires whatever the
    medium reads."""
    notify, changed, freeze = RadioEnvironment._notify, Backoff.medium_changed, Backoff._freeze
    called, frozen = [], []
    seen = dict.fromkeys(
        ("skipped", "bound_skipped", "loud_frozen", "notified", "witness_skipped", "due_now"), 0
    )

    def recording_changed(listener):
        called.append(listener)
        changed(listener)

    def recording_freeze(listener):
        frozen.append(listener)
        freeze(listener)

    def checking_notify(env, em, rising):
        listeners = list(env._listeners)
        bounds = [obj._bound for obj in listeners]
        called.clear()
        frozen.clear()
        notify(env, em, rising)
        seen["notified"] += len(called)
        for obj, bound in zip(listeners, bounds):
            if any(obj is c for c in called):
                continue
            if any(obj is f for f in frozen):
                seen["loud_frozen"] += 1
            elif obj._bound != bound:
                seen["bound_skipped"] += 1
            else:
                seen["skipped"] += 1
                seen["witness_skipped"] += not rising and obj.state == Backoff.WAIT_IDLE
            if obj.state == Backoff.COUNT and obj._timer[0] == env.engine.now:
                seen["due_now"] += 1
                continue
            assert sensed_busy(env, obj) == (obj.state == Backoff.WAIT_IDLE), (
                f"{obj.device.id} skipped on a {'rising' if rising else 'falling'} edge"
            )

    monkeypatch.setattr(Backoff, "medium_changed", recording_changed)
    monkeypatch.setattr(Backoff, "_freeze", recording_freeze)
    monkeypatch.setattr(RadioEnvironment, "_notify", checking_notify)
    return seen


@pytest.mark.parametrize(
    "label, base, shortcuts",
    [("WiGig-only", CampaignConfig(), 1000), ("Cat4/Cat2", CampaignConfig(), 1000),
     ("On/On", CampaignConfig(), 0), ("Cat4/Cat2", NON_DEFAULT, 0)],
    ids=["WiGig-only", "Cat4-Cat2", "On-On", "Cat4-Cat2-non-default"],
)
def test_skipped_listeners_would_not_have_changed(checked_notify, label, base, shortcuts):
    cfg = replace(base.for_label(label), duration_s=0.05)
    run_once(cfg, 1)
    assert checked_notify["skipped"] > 1000 and checked_notify["notified"] > 1000
    assert checked_notify["witness_skipped"] > 100
    assert checked_notify["bound_skipped"] > shortcuts and checked_notify["loud_frozen"] > shortcuts


@pytest.mark.parametrize("label", ["Cat4/Cat2", "Cat3/Cat2"])
def test_cat2_windows_read_as_the_sweep_does(monkeypatch, label):
    """Every Cat2 window of a full-floor run, settled by the loudest emission,
    by the whole sum or by the sweep, reads as the sweep of its eid-ordered
    emissions (`peak_power_lin`, as `max_sensed_power_dbm` sweeps) against
    `ed_threshold_lin`."""
    sense = Cam.sense_window
    seen = {"calls": 0, "busy": 0}

    def checked(cam, w_start, w_end):
        busy = sense(cam, w_start, w_end)
        ems = sorted(cam.env.window_emissions(cam.table, w_start, w_end))
        busy_by_sweep = peak_power_lin(ems, w_start) >= cam.ed_threshold_lin
        assert busy == busy_by_sweep, f"{cam.device.id} window [{w_start}, {w_end})"
        seen["calls"] += 1
        seen["busy"] += busy
        return busy

    monkeypatch.setattr(Cam, "sense_window", checked)
    run_once(replace(CampaignConfig().for_label(label), duration_s=0.05), 1)
    assert seen["calls"] > 500 and 0 < seen["busy"] < seen["calls"]
