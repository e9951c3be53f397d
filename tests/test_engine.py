import gc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coexsim import parse_config, run_once
from coexsim.engine import Engine, RngStreams, SchedulingInPastError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FULL_FLOOR = replace(parse_config(str(SCRIPTS / "full_campaign.cfg")), duration_s=0.05)


def test_events_execute_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(lambda: order.append("b"), 20)
    engine.schedule(lambda: order.append("a"), 10)
    engine.schedule(lambda: order.append("c"), 30)
    engine.run_until(100)
    assert order == ["a", "b", "c"]
    assert engine.now == 100


def test_equal_due_times_run_in_insertion_order():
    engine = Engine()
    order = []
    for tag in "abcde":
        engine.schedule(lambda tag=tag: order.append(tag), 50)
    engine.run_until(50)
    assert order == list("abcde")


def test_scheduling_in_past_raises():
    engine = Engine()
    engine.schedule(lambda: None, 10)
    engine.run_until(10)
    with pytest.raises(SchedulingInPastError):
        engine.schedule(lambda: None, 5)


def test_schedule_from_callback_at_same_time():
    engine = Engine()
    order = []
    def first():
        order.append(1)
        engine.schedule(lambda: order.append(2), engine.now)
    engine.schedule(first, 10)
    assert engine.run_until(10) == 2
    assert order == [1, 2]


def test_cancel_prevents_execution_and_reports_status():
    engine = Engine()
    fired = []
    h = engine.schedule(lambda: fired.append(1), 10)
    assert engine.cancel(h) is True
    assert engine.cancel(h) is False  # already cancelled
    engine.run_until(20)
    assert fired == []


def test_run_until_stops_clock_at_boundary():
    engine = Engine()
    seen = []
    engine.schedule(lambda: seen.append(engine.now), 7)
    engine.schedule(lambda: seen.append(engine.now), 15)
    engine.run_until(10)
    assert seen == [7] and engine.now == 10
    engine.run_until(20)
    assert seen == [7, 15] and engine.now == 20


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_executed_counter_matches_events(dues):
    engine = Engine()
    for d in dues:
        engine.schedule(lambda: None, d)
    assert engine.run_until(1000) == len(dues)


def test_rng_streams_are_reproducible_and_independent():
    a1 = RngStreams(42).stream("cam", "dev0")
    a2 = RngStreams(42).stream("cam", "dev0")
    assert [a1.random() for _ in range(5)] == [a2.random() for _ in range(5)]

    # Draws from one stream must not perturb another.
    s = RngStreams(42)
    ref = RngStreams(42).stream("cam", "dev1").random()
    s.stream("cam", "dev0").random()
    assert s.stream("cam", "dev1").random() == ref


def test_rng_streams_distinct_components_differ():
    s = RngStreams(7)
    assert s.stream("cam", "x").random() != s.stream("drop", "x").random()


@pytest.mark.parametrize("cfg_name, label", [
    (name, label) for name in ("full_campaign.cfg", "non_default.cfg")
    for label in parse_config(str(SCRIPTS / name)).sweep_labels()
])
def test_a_run_asks_for_each_stream_key_once(monkeypatch, cfg_name, label):
    """`stream` starts its key's stream afresh on every call, so a run that
    asked for a key twice would replay its draws."""
    stream = RngStreams.stream
    keys = []

    def recording(streams, component, device=""):
        keys.append((component, str(device)))
        return stream(streams, component, device)

    monkeypatch.setattr(RngStreams, "stream", recording)
    cfg = replace(parse_config(str(SCRIPTS / cfg_name)).for_label(label), duration_s=0.01)
    run_once(cfg, 1)
    assert len(keys) >= 8 and len(set(keys)) == len(keys)


def test_cancel_after_the_event_fired_returns_false():
    engine = Engine()
    fired = []
    h = engine.schedule(lambda: fired.append(1), 10)
    engine.run_until(10)
    assert fired == [1]
    assert engine.cancel(h) is False


def test_callback_cancels_a_later_event_due_at_the_same_time():
    engine = Engine()
    order = []
    handles = {}

    def first():
        order.append("a")
        assert engine.cancel(handles["b"]) is True

    engine.schedule(first, 10)
    handles["b"] = engine.schedule(lambda: order.append("b"), 10)
    engine.schedule(lambda: order.append("c"), 10)
    assert engine.run_until(10) == 2
    assert order == ["a", "c"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_until_restores_the_callers_gc_state(enabled):
    engine = Engine()
    seen = []

    def boom():
        raise RuntimeError("callback failed")

    engine.schedule(lambda: seen.append(gc.isenabled()), 10)
    engine.schedule(boom, 20)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        engine.run_until(10)
        after_run = gc.isenabled()
        with pytest.raises(RuntimeError, match="callback failed"):
            engine.run_until(30)
        after_raise = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]  # off while the loop runs
    assert after_run is enabled and after_raise is enabled


@pytest.mark.parametrize("label", FULL_FLOOR.sweep_labels())
def test_a_full_floor_run_leaves_no_cyclic_garbage(label):
    """The premise of running the loop with the collector off: a run, set-up
    included, leaves the collector nothing to free while its result lives."""
    cfg = FULL_FLOOR.for_label(label)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_once(cfg, 1)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert result.event_count > 0
