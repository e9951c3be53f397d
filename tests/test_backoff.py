"""The listen-before-talk procedure shared by NR-U Cat4 LBT and WiGig DCF:
8 us defer, 5 us CCA slots, a counter that freezes on a busy medium and
resumes after a fresh defer, and the rule for a busy edge that falls on a
slot boundary: that slot counts, whatever order the events were queued in."""
from dataclasses import replace

import pytest

from coexsim import CampaignConfig, run_once
from coexsim.channel_access import CAT3, CAT4, Backoff, LbtCam
from coexsim.engine import MS
from coexsim.radio import IDLE, RadioEnvironment
from coexsim.traffic import PacketRecord
from coexsim.wigig import WigigAp, WigigSta
from tests.conftest import FixedRng


def _lbt(rig, dev, counter, log):
    """A Cat4 request whose grant starts a 6 us burst, as a gNB's would; the
    grants are read from its callback, not from the emission `log`."""
    cam = LbtCam(CAT4, dev, rig.env, FixedRng(counter))
    grants = []
    cam.request(lambda g: (grants.append(g), rig.emit(dev, 17.0, 6_000)))
    return lambda: [g.granted_at for g in grants]


def _dcf(rig, dev, counter, log):
    """A WiGig AP with one frame to send; its frame starts are read from the
    emission `log`."""
    ap = WigigAp(dev, rig.env, FixedRng(counter))
    user = rig.place(f"{dev.id}-sta", dev.position.x, 3.0, operator="A", role="sta")
    rig.force_link(dev, user)
    sta = WigigSta(user, ap)
    sta.association = "associated"
    sta.offer_packet(PacketRecord(1500, 0))
    return lambda: [em.start for em in log if em.source is dev]


@pytest.fixture(params=[_lbt, _dcf], ids=["LbtCam-Cat4", "WigigAp"])
def machine(request, rig, emission_log):
    """A contender beside a 17 dBm interferer at 1 m LOS. Returns its
    starter, which draws `counter` (3 unless given) at the current time, and
    the interferer; the starter returns a getter for the times of the grants
    (LBT) or frame starts (DCF)."""
    dev = rig.place("dev", 0.0, role="ap")
    intf = rig.place("intf", 1.0, operator="B")
    rig.force_link(dev, intf)
    return (lambda counter=3: request.param(rig, dev, counter, emission_log)), intf


def _burst(rig, intf, at):
    rig.engine.schedule(lambda: rig.emit(intf, 17.0, 6_000), at)


def _queue_burst(rig, intf, at, order):
    """Queue a burst at `at`, before the contender starts ("first"), or
    from an event 1 ns earlier, after every timer the contender queues for
    `at` ("last")."""
    if order == "first":
        _burst(rig, intf, at)
    else:
        rig.engine.schedule(lambda: _burst(rig, intf, at), at - 1)


ORDERS = ["first", "last"]


def test_burst_mid_slot_freezes_and_resumes(rig, machine):
    start, intf = machine
    starts = start()
    # Defer 0..8000, slot to 13000 (3->2), frozen at 14000, idle at 20000,
    # defer to 28000, two slots -> 38000.
    _burst(rig, intf, 14_000)
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [38_000]


@pytest.mark.parametrize("order", ORDERS)
def test_burst_on_a_slot_boundary_leaves_that_slot_counted(rig, machine, order):
    start, intf = machine
    _queue_burst(rig, intf, 13_000, order)
    starts = start()
    # The slot 8000..13000 counts (3->2) whichever event is queued first:
    # frozen at 13000, idle at 19000, defer to 27000, two slots -> 37000.
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [37_000]


@pytest.mark.parametrize("order", ORDERS)
def test_a_counter_of_zero_transmits_at_the_defer_end_despite_a_burst_there(
    rig, machine, order
):
    start, intf = machine
    _queue_burst(rig, intf, 8_000, order)
    starts = start(counter=0)
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [8_000]


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("kind", [_lbt, _dcf], ids=["LbtCam-Cat4", "WigigAp"])
def test_countdowns_ending_together_both_transmit(rig, emission_log, kind, first):
    """Two contenders in each other's range, both at counter 3 from t=0:
    both countdowns end at 23000, and the first to transmit does not freeze
    the other, whichever registered first."""
    devs = [rig.place("a", 0.0, role="ap"), rig.place("b", 1.0, role="ap")]
    rig.force_link(*devs)
    starts = [kind(rig, dev, 3, emission_log) for dev in (devs[first], devs[1 - first])]
    rig.engine.run_until(1 * MS)
    assert [s()[:1] for s in starts] == [[23_000], [23_000]]


def _count_backoff_events(engine):
    """Count the events a `Backoff` schedules for itself, and those that run."""
    counts = {"scheduled": 0, "executed": 0}
    schedule = engine.schedule

    def counting(callback, due):
        if not isinstance(getattr(callback, "__self__", None), Backoff):
            return schedule(callback, due)
        counts["scheduled"] += 1

        def run():
            counts["executed"] += 1
            callback()

        return schedule(run, due)

    engine.schedule = counting
    return counts


@pytest.mark.parametrize("freeze", [False, True])
def test_one_countdown_event_per_contention(rig, machine, freeze):
    """Counter 7 on an idle medium costs one event, not one per slot; a freeze
    cancels it, and the resumed countdown is one more."""
    start, intf = machine
    counts = _count_backoff_events(rig.engine)
    starts = start(counter=7)
    if freeze:
        # Frozen at 14000 after one slot (7->6), idle at 20000, defer to
        # 28000, six slots -> 58000.
        _burst(rig, intf, 14_000)
    rig.engine.run_until(1 * MS)
    assert starts()[:1] == [58_000 if freeze else 43_000]
    assert counts == {"scheduled": 2 if freeze else 1, "executed": 1}


def _full_resense_notify(monkeypatch):
    """Re-sense every counting listener in full on each rising edge, with no
    bound and no loud shortcut: the reference the loud freeze must match."""
    notify = RadioEnvironment._notify

    def full(env, em, rising):
        if not rising:
            return notify(env, em, rising)
        for obj in env._listeners:
            if obj.state != obj.WAIT_IDLE:
                obj.medium_changed()

    monkeypatch.setattr(RadioEnvironment, "_notify", full)


@pytest.mark.parametrize("path", ["shortcut", "full"])
@pytest.mark.parametrize(
    "burst_at, after, first_start",
    # Mid-count: one slot counted (3->2), frozen at 14000, idle at 20000,
    # defer to 28000, two slots -> 38000. Due now: the countdown of 3 slots
    # ends at 23000, the burst comes first in that nanosecond; the spent
    # counter does not freeze, and the contender still starts at 23000.
    [(14_000, (Backoff.WAIT_IDLE, 2), 38_000), (23_000, (Backoff.COUNT, 3), 23_000)],
    ids=["mid-count", "due-now"],
)
def test_a_loud_edge_freezes_as_a_full_re_sense_would(
    rig, machine, monkeypatch, path, burst_at, after, first_start
):
    """A burst loud on its own leaves counter, state and witness as a full
    re-sense does, without one on the shortcut path."""
    start, intf = machine
    if path == "full":
        _full_resense_notify(monkeypatch)
    changed = Backoff.medium_changed
    resensed = []
    monkeypatch.setattr(Backoff, "medium_changed", lambda obj: (resensed.append(obj), changed(obj)))
    seen = []

    def burst():
        em = rig.emit(intf, 17.0, 6_000)
        (obj,) = rig.env._listeners
        seen.append((obj.state, obj.counter, obj._witness is em, len(resensed)))

    rig.engine.schedule(burst, burst_at)  # queued first: before the countdown due then
    starts = start()
    rig.engine.run_until(1 * MS)
    assert seen == [(*after, True, 0 if path == "shortcut" else 1)]
    assert starts()[:1] == [first_start]


CONTENTION_FIELDS = {
    "state", "counter", "_timer", "_witness", "_bound", "_count_from",
    "_preamble_dbm", "trace", "_defer_ns", "_cca_slot_ns",
}


def test_every_contention_field_is_on_the_instance_from_construction(rig):
    """`_notify` and the `Backoff` methods read these fields on every
    emission edge, and CPython 3.11 specialises an instance attribute read
    there, but not a class attribute read through an instance: each kind of
    contender holds them all from construction, and `Backoff` holds none."""
    dev = rig.place("dev", 0.0, role="ap")
    contenders = [WigigAp(dev, rig.env, FixedRng(0))] + [
        LbtCam(category, dev, rig.env, FixedRng(0)) for category in (CAT3, CAT4)
    ]
    assert not CONTENTION_FIELDS & vars(Backoff).keys()
    for obj in contenders:
        assert CONTENTION_FIELDS <= vars(obj).keys(), type(obj).__name__
        assert (obj.state, obj.counter) == (IDLE, 0)


@pytest.mark.parametrize("label", ["Cat4/Cat2", "WiGig-only"])
def test_the_listeners_are_exactly_the_contending_devices(monkeypatch, label):
    """At every emission edge of a full-floor run, `_listeners` holds each
    `Backoff` whose state is not IDLE once, and no other one: a contention
    starts only from IDLE, and only its countdown ends it."""
    backoffs, listening = [], []
    init, notify = Backoff._init_backoff, RadioEnvironment._notify

    def recording_init(obj, *args, **kwargs):
        backoffs.append(obj)
        init(obj, *args, **kwargs)

    def checking_notify(env, em, rising):
        ids = [id(obj) for obj in env._listeners]
        assert len(set(ids)) == len(ids), "a listener registered twice"
        assert set(ids) == {id(obj) for obj in backoffs if obj.state != IDLE}
        listening.append(len(ids))
        notify(env, em, rising)

    monkeypatch.setattr(Backoff, "_init_backoff", recording_init)
    monkeypatch.setattr(RadioEnvironment, "_notify", checking_notify)
    run_once(replace(CampaignConfig().for_label(label), duration_s=0.02), 1)
    assert len(backoffs) >= 3 and len(listening) > 1000
    assert sum(n > 0 for n in listening) > 100 and max(listening) >= 2


@pytest.mark.parametrize("label", ["Cat4/Cat2", "Cat3/Cat2", "WiGig-only"])
def test_every_contender_keeps_at_most_29_instance_attributes(label):
    """CPython 3.11 moves an instance's attributes into a plain dict from the
    30th on, and then stops specialising the reads `_notify` and
    `medium_busy` make on every edge (`Backoff`'s docstring)."""
    env = run_once(replace(CampaignConfig().for_label(label), duration_s=0.001), 1).env
    assert env._backoffs
    for obj in env._backoffs:
        assert len(vars(obj)) <= 29, (type(obj).__name__, sorted(vars(obj)))
