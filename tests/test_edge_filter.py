"""Edge-filtered sensing notifications: an emission start notifies only the
listeners that sensed idle, an emission end only those that sensed busy and
whose witness, if any, is the emission that ended. The filter must be exact,
so a skipped listener would have sensed the same."""
from dataclasses import replace
from pathlib import Path

import pytest

from coexsim import CampaignConfig, parse_config, run_once
from coexsim.channel_access import Backoff
from coexsim.radio import RadioEnvironment
from coexsim.wigig import WigigAp
from tests.conftest import FixedRng

# The parameters of the golden non-default case, on the default full floor.
NON_DEFAULT = replace(
    parse_config(str(Path(__file__).resolve().parent.parent / "scripts" / "non_default.cfg")),
    sites_per_operator=CampaignConfig().sites_per_operator,
    users_per_operator=CampaignConfig().users_per_operator,
)


class Probe:
    """A listener stub sitting in one Backoff state, counting notifications."""

    WAIT_IDLE = Backoff.WAIT_IDLE
    _witness = None

    def __init__(self, state):
        self.state = state
        self.calls = 0

    def medium_changed(self):
        self.calls += 1


def test_start_skips_busy_listeners_and_end_skips_idle_ones(rig):
    a = rig.place("a", 0.0)
    intf = rig.place("intf", 1.0, operator="B")
    rig.force_link(a, intf)
    probes = {s: Probe(s) for s in (Backoff.WAIT_IDLE, Backoff.COUNT)}
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
    weak, _ = rig.emit(weak_src, 0.0, 10_000)
    strong, _ = rig.emit(strong_src, 17.0, 20_000)
    table = rig.env.link_table(ap_dev)
    assert table[weak.link_key][1] < ap.ed_threshold_lin <= table[strong.link_key][1]
    assert rig.env.link_table(sta)[weak.link_key][1] >= ap.ed_threshold_lin
    calls = []
    ap.medium_changed = lambda: (calls.append(rig.engine.now), Backoff.medium_changed(ap))
    ap._start_backoff()
    assert ap.state == ap.WAIT_IDLE and ap._witness is strong
    assert ap.medium_busy(sta) and ap._witness is strong  # a STA's sensing is not the AP's

    rig.engine.run_until(10_000)  # the weak emission ends: no re-sensing
    assert calls == [] and ap.state == ap.WAIT_IDLE and ap.medium_busy()
    rig.engine.run_until(20_000)  # the witness ends: the AP re-senses idle
    assert calls == [20_000] and ap.state == ap.COUNT and ap._witness is None


@pytest.fixture
def checked_notify(monkeypatch):
    """Check every listener `_notify` skips: its sensing right after the edge
    must still match its state (busy exactly in WAIT_IDLE)."""
    notify, changed = RadioEnvironment._notify, Backoff.medium_changed
    called = []
    seen = {"skipped": 0, "notified": 0, "witness_skipped": 0}

    def recording_changed(listener):
        called.append(listener)
        changed(listener)

    def checking_notify(env, em, rising):
        listeners = list(env._listeners)
        called.clear()
        notify(env, em, rising)
        seen["notified"] += len(called)
        for obj in listeners:
            if not any(obj is c for c in called):
                seen["skipped"] += 1
                seen["witness_skipped"] += not rising and obj.state == Backoff.WAIT_IDLE
                assert obj.medium_busy() == (obj.state == Backoff.WAIT_IDLE), (
                    f"{obj.device.id} skipped on a {'rising' if rising else 'falling'} edge"
                )

    monkeypatch.setattr(Backoff, "medium_changed", recording_changed)
    monkeypatch.setattr(RadioEnvironment, "_notify", checking_notify)
    return seen


@pytest.mark.parametrize(
    "label, base",
    [("WiGig-only", CampaignConfig()), ("Cat4/Cat2", CampaignConfig()), ("On/On", CampaignConfig()),
     ("Cat4/Cat2", NON_DEFAULT)],
    ids=["WiGig-only", "Cat4-Cat2", "On-On", "Cat4-Cat2-non-default"],
)
def test_skipped_listeners_would_not_have_changed(checked_notify, label, base):
    cfg = replace(base.for_label(label), duration_s=0.05)
    run_once(cfg, 1)
    assert checked_notify["skipped"] > 1000 and checked_notify["notified"] > 1000
    assert checked_notify["witness_skipped"] > 100
