"""Every event is a bound method of the object that owns its data, and each
datum such a method reads off its object is stored once and read before the
next one is stored."""
import inspect
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from coexsim import parse_config, run_once
from coexsim.engine import Engine
from coexsim.nru import SLOT_NS, NruGnb, NruUe
from coexsim.radio import RadioEnvironment
from coexsim.runner import TRACES
from coexsim.wigig import WigigAp, WigigSta

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CONFIGS = {name: parse_config(str(SCRIPTS / f"{name}.cfg")) for name in ("full_campaign", "non_default")}
DURATION_S = 0.1


def _run(config, label, traces=()):
    cfg = replace(CONFIGS[config].for_label(label), duration_s=DURATION_S)
    return run_once(cfg, 1, traces=traces)


def _qualname(callback) -> str:
    return getattr(callback, "__func__", callback).__qualname__


@pytest.fixture(scope="module")
def callbacks():
    """(config, label) -> Counter of (kind, is a bound method, qualname) over
    every callback handed to `Engine.schedule` ("event") and every `at_end`
    handed to `RadioEnvironment.add_emission` ("at_end"), in 7-label runs of
    the full floor untraced and of the non-default config with every trace on
    (so that `cot_end` rows are scheduled)."""
    out = {}
    schedule, add_emission = Engine.schedule, RadioEnvironment.add_emission
    with pytest.MonkeyPatch.context() as mp:
        seen = Counter()

        def watching_schedule(engine, callback, due):
            seen["event", inspect.ismethod(callback), _qualname(callback)] += 1
            return schedule(engine, callback, due)

        def watching_add_emission(env, key, end, at_end, payload=None):
            seen["at_end", inspect.ismethod(at_end), _qualname(at_end)] += 1
            return add_emission(env, key, end, at_end, payload)

        mp.setattr(Engine, "schedule", watching_schedule)
        mp.setattr(RadioEnvironment, "add_emission", watching_add_emission)
        for config, traces in (("full_campaign", ()), ("non_default", tuple(TRACES))):
            for label in CONFIGS[config].sweep_labels():
                seen.clear()
                _run(config, label, traces)
                out[config, label] = Counter(seen)
    return out


@pytest.mark.parametrize("config", list(CONFIGS))
def test_every_event_and_emission_end_is_a_bound_method_built_per_object(callbacks, config):
    """No callback is a lambda, a closure or a `functools.partial`: each is a
    method bound to the object whose fields hold what it reads."""
    labels = CONFIGS[config].sweep_labels()
    assert len(labels) == 7
    names = Counter()
    for label in labels:
        for (kind, bound, qualname), n in callbacks[config, label].items():
            assert bound, (label, kind, qualname)
            assert "<lambda>" not in qualname and "<locals>" not in qualname, (label, qualname)
            names[kind, qualname] += n
    # Each path runs in these runs, so a callback built another way would be seen.
    assert {qualname for _kind, qualname in names} >= {
        "NruGnb._plan", "NruGnb._commit", "TransportBlock.air", "NruUe.send_feedback",
        "NruGnb._close_feedback", "NruUe.receive_tb", "NruGnb.receive_feedback",
        "WigigSta._associate_attempt", "WigigSta._probe_response", "WigigSta._probe_end",
        "WigigSta.receive_frame", "WigigSta._send_ack", "WigigSta._deliver_ack",
        "WigigAp._ack_timeout", "Emission._end", "CbrArrivals._arrive",
    }
    assert ("event", "Cam._cot_end") in names or config == "full_campaign"


class Pending:
    """The one-pending rule of a datum kept on its owner: each value stored
    is read once, by its consumer, before the owner stores the next."""

    def __init__(self):
        self.held = {}  # owner -> the value stored and not yet read
        self.read = 0

    def store(self, owner, value):
        assert owner not in self.held, f"{owner} stores over an unread value"
        self.held[owner] = value

    def consume(self, owner, value):
        assert self.held.pop(owner) is value
        self.read += 1


@pytest.mark.parametrize("config, label", [
    ("full_campaign", "Cat4/Cat2"),
    ("full_campaign", "WiGig-only"),
    ("non_default", "Cat4/Cat2"),  # mac_lead_slots 3
])
def test_each_datum_an_event_reads_off_its_object_is_read_before_the_next_is_stored(
        monkeypatch, config, label):
    """A STA's ACK, a UE's feedback pids, the gNB's slot-end close pids and
    the frame an AP times out are each read by their event before the next
    is stored, and every `_commit()` finds its slot's plan."""
    acks, fb_pids, close_pids, timeouts = (Pending() for _ in range(4))
    commits = []
    receive_frame, send_ack = WigigSta.receive_frame, WigigSta._send_ack
    ack_missed, ack_timeout = WigigAp.ack_missed, WigigAp._ack_timeout
    commit, send_feedback = NruGnb._commit, NruUe.send_feedback
    close_feedback = NruGnb._close_feedback

    def checked_receive_frame(sta, cap):
        before = sta._ack
        receive_frame(sta, cap)
        if sta._ack is not before:
            acks.store(sta, sta._ack)

    def checked_send_ack(sta):
        acks.consume(sta, sta._ack)
        send_ack(sta)

    def checked_ack_missed(ap):
        timeouts.store(ap, ap._current)
        ack_missed(ap)

    def checked_ack_timeout(ap):
        timeouts.consume(ap, ap._current)
        ack_timeout(ap)

    def checked_commit(gnb):
        slot = gnb.engine.now // SLOT_NS
        assert slot in gnb.plans
        pids = {ue: ue.fb_pids for ue in gnb.ues}
        closing = gnb._close_pids
        commit(gnb)
        assert slot not in gnb.plans
        commits.append(slot)
        for ue, before in pids.items():
            if ue.fb_pids is not before:
                fb_pids.store(ue, ue.fb_pids)
        if gnb._close_pids is not closing:
            close_pids.store(gnb, gnb._close_pids)

    def checked_send_feedback(ue):
        fb_pids.consume(ue, ue.fb_pids)
        send_feedback(ue)

    def checked_close_feedback(gnb):
        close_pids.consume(gnb, gnb._close_pids)
        close_feedback(gnb)

    for owner, name, fn in (
        (WigigSta, "receive_frame", checked_receive_frame), (WigigSta, "_send_ack", checked_send_ack),
        (WigigAp, "ack_missed", checked_ack_missed), (WigigAp, "_ack_timeout", checked_ack_timeout),
        (NruGnb, "_commit", checked_commit),
        (NruUe, "send_feedback", checked_send_feedback),
        (NruGnb, "_close_feedback", checked_close_feedback),
    ):
        monkeypatch.setattr(owner, name, fn)
    _run(config, label)
    assert acks.read > 100 and timeouts.read > 0
    if label == "WiGig-only":
        assert commits == []
    else:
        assert min(fb_pids.read, close_pids.read, len(commits)) > 100
