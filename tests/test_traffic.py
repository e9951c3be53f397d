from coexsim.engine import Engine, SEC
from coexsim.traffic import CbrArrivals, CbrFlow, PacketRecord, interarrival_ns

SPACING_NS = interarrival_ns(1500, 50e6)


def test_interarrival_exact_at_defaults():
    assert SPACING_NS == 240_000


def test_packet_count_over_run():
    engine = Engine()
    got = []
    flow = CbrFlow("f", "dev", 1500, got.append)
    CbrArrivals(engine, [flow], SPACING_NS, SEC).start()
    engine.run_until(SEC)
    # Arrivals at 0, 240 us, ... strictly before t_end.
    assert len(flow.records) == 1_000_000_000 // 240_000 + 1 == 4167
    assert got == flow.records  # the same packet objects, in order


def test_arrival_timestamps_on_grid():
    engine = Engine()
    flow = CbrFlow("f", "dev", 1500, lambda p: None)
    CbrArrivals(engine, [flow], SPACING_NS, 10 * 240_000).start()
    engine.run_until(SEC)
    assert [p.created_at for p in flow.records] == [i * 240_000 for i in range(10)]


def test_flows_sharing_a_spacing_take_one_event_per_arrival_instant():
    engine = Engine()
    order = []
    flows = [CbrFlow(f"f{i}", f"d{i}", 1500, order.append) for i in range(5)]
    CbrArrivals(engine, flows, SPACING_NS, 10 * 240_000).start()
    assert engine.run_until(SEC) == 10
    for flow in flows:
        assert [p.created_at for p in flow.records] == [k * 240_000 for k in range(10)]
    # Every instant delivers one packet per flow, in flow order.
    assert order == [f.records[k] for k in range(10) for f in flows]


def test_partial_credit_completes_once():
    pkt = PacketRecord(1500, 100)
    pkt.credit(700, 200)
    assert not pkt.delivered
    pkt.credit(800, 300)
    assert pkt.delivered and pkt.delivered_at == 300
    pkt.credit(100, 400)  # duplicate credit does not move the timestamp
    assert pkt.delivered_at == 300
