import pytest
from hypothesis import given, settings, strategies as st

from coexsim.engine import Engine, SEC
from coexsim.metrics import (
    OccupancyLedger,
    box_stats,
    goodput_per_device_bps,
    latency_samples_ns,
    packet_conservation,
)
from coexsim.traffic import CbrArrivals, CbrFlow


def occupied(led, key):
    return sum(e - s for s, e in led._intervals[key])


def brute_force_union(intervals, horizon):
    grid = bytearray(horizon)
    for s, e in intervals:
        for t in range(s, e):
            grid[t] = 1
    return sum(grid)


def test_merge_overlapping_and_adjacent():
    led = OccupancyLedger()
    led.record("A", 0, 10)
    led.record("A", 5, 15)
    led.record("A", 15, 20)  # adjacent intervals merge
    assert led._intervals["A"] == [(0, 20)]
    assert occupied(led, "A") == 20


def test_operator_union_counts_simultaneous_emissions_once():
    led = OccupancyLedger()
    led.record("A", 100, 200)
    led.record("A", 150, 250)  # a second device of the same operator
    led.record("B", 0, 50)
    assert occupied(led, "A") == 150
    assert occupied(led, "B") == 50


def test_record_rejects_empty_interval():
    led = OccupancyLedger()
    with pytest.raises(ValueError):
        led.record("A", 5, 5)


def test_record_rejects_a_start_before_the_last_one():
    led = OccupancyLedger()
    led.record("A", 10, 20)
    led.record("B", 0, 5)  # each key keeps its own order
    led.record("A", 10, 12)  # an equal start is in order
    with pytest.raises(ValueError, match="A: start 9 before the last recorded start 10"):
        led.record("A", 9, 30)
    assert led._intervals["A"] == [(10, 20)]


def test_occupied_within_clips_to_window():
    led = OccupancyLedger()
    led.record("A", 0, 10)
    led.record("A", 20, 30)
    assert led.occupied_within("A", 5, 25) == 10
    assert led.occupied_within("A", 10, 20) == 0
    assert led.occupied_within("A", 0, 100) == 20


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 40)).map(
            lambda p: (p[0], p[0] + p[1])
        ),
        min_size=1,
        max_size=40,
    )
)
def test_union_matches_grid_oracle(intervals):
    led = OccupancyLedger()
    for s, e in sorted(intervals):
        led.record("A", s, e)
    assert occupied(led, "A") == brute_force_union(intervals, 600)
    ivs = led._intervals["A"]
    assert all(a[1] < b[0] for a, b in zip(ivs, ivs[1:]))  # disjoint, sorted


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 40)).map(
            lambda p: (p[0], p[0] + p[1])
        ),
        max_size=40,
    ),
    st.integers(-10, 560),
    st.integers(-10, 560),
)
def test_occupied_within_matches_the_grid_oracle_on_any_window(intervals, w_start, w_end):
    led = OccupancyLedger()
    for s, e in sorted(intervals):
        led.record("A", s, e)
    clipped = [(max(s, w_start, 0), min(e, w_end)) for s, e in intervals]
    assert led.occupied_within("A", w_start, w_end) == brute_force_union(
        [(s, e) for s, e in clipped if s < e], 600
    )


def union_from_scratch(intervals):
    """Sort by start, then merge every interval that overlaps or touches."""
    out = []
    for s, e in sorted(intervals):
        if out and out[-1][1] >= s:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 40)).map(
            lambda p: (p[0], p[0] + p[1])
        ),
        min_size=1,
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_record_in_start_order_gives_the_union_whatever_the_order_of_ties(intervals, rnd):
    shuffled = list(intervals)
    rnd.shuffle(shuffled)
    # Sorted by start alone, intervals that share a start keep their shuffled order.
    led = OccupancyLedger()
    for s, e in sorted(shuffled, key=lambda iv: iv[0]):
        led.record("A", s, e)
    assert led._intervals["A"] == union_from_scratch(intervals)


def test_nearest_rank_small_sample():
    b = box_stats([5.0, 1.0, 3.0, 2.0, 4.0])
    # ceil(0.5 * 5) = 3rd smallest
    assert b.p50 == 3.0
    assert b.min == 1.0 and b.max == 5.0
    assert b.p5 == 1.0  # ceil(0.25) -> first sample


def test_nearest_rank_hundred_samples():
    b = box_stats([float(i) for i in range(1, 101)])
    assert (b.min, b.p5, b.p50, b.p95, b.max) == (1.0, 5.0, 50.0, 95.0, 100.0)


def test_box_stats_rejects_empty():
    with pytest.raises(ValueError):
        box_stats([])


def _delivered_flow(n_delivered, n_lost, n_pending):
    engine = Engine()
    flow = CbrFlow("f", "dev", 1500, lambda p: None)
    total = n_delivered + n_lost + n_pending
    CbrArrivals(engine, [flow], 240_000, SEC).start()
    engine.run_until((total - 1) * 240_000)
    for pkt in flow.records[:n_delivered]:
        pkt.credit(1500, pkt.created_at + 500_000)
    for pkt in flow.records[n_delivered : n_delivered + n_lost]:
        pkt.lost = True
    return flow


def test_latency_excludes_losses_and_pending():
    flow = _delivered_flow(3, 2, 1)
    samples = latency_samples_ns([flow])
    assert samples == {"dev": [500_000, 500_000, 500_000]}


def test_goodput_counts_delivered_bytes_only():
    flow = _delivered_flow(4, 1, 0)
    gp = goodput_per_device_bps([flow], SEC)
    assert gp["dev"] == pytest.approx(4 * 1500 * 8)


def test_packet_conservation_partition():
    flow = _delivered_flow(3, 2, 2)
    assert packet_conservation(flow) == (7, 3, 2, 2)
