import time
from dataclasses import replace

import pytest

from coexsim.config import CampaignConfig, ConfigError, validate
from coexsim.engine import Engine, RngStreams
from coexsim.radio import RadioEnvironment
from coexsim.scenario import ROW_Y, build_scenario, scenario_csv, site_positions


def build(seed=1, **overrides):
    cfg = replace(CampaignConfig(), **overrides)
    engine = Engine()
    streams = RngStreams(seed)
    env = RadioEnvironment(engine, streams, CampaignConfig())
    return build_scenario(cfg, streams, env), cfg


def test_site_rows_are_symmetric_and_evenly_spread():
    cfg = CampaignConfig()
    a = site_positions(cfg, "A")
    b = site_positions(cfg, "B")
    assert [p.x for p in a] == [10.0, 30.0, 50.0]
    assert all(p.y == ROW_Y["A"] for p in a)
    assert all(p.y == ROW_Y["B"] for p in b)
    assert all(p.z == 3.0 for p in a + b)
    single = site_positions(replace(cfg, sites_per_operator=1), "A")
    assert [p.x for p in single] == [30.0]


def test_users_dropped_within_range_of_own_sites():
    scn, cfg = build()
    for op in ("A", "B"):
        assert len(scn.users[op]) == 12
        for user in scn.users[op]:
            d = min(
                user.position.distance_2d(s.position) for s in scn.sites[op]
            )
            assert d <= cfg.max_site_distance_m
            assert 0.0 <= user.position.x <= cfg.floor_x
            assert 0.0 <= user.position.y <= cfg.floor_y
            assert user.position.z == 1.5


def test_every_user_has_an_own_operator_serving_site():
    scn, _ = build()
    for op in ("A", "B"):
        site_ids = {s.id for s in scn.sites[op]}
        for user in scn.users[op]:
            assert user.serving in site_ids
    served = sum(len(scn.users_of_site(s)) for op in ("A", "B") for s in scn.sites[op])
    assert served == 24


def test_drop_is_seed_deterministic_and_seed_sensitive():
    scn1, _ = build(seed=5)
    scn2, _ = build(seed=5)
    scn3, _ = build(seed=6)
    pos = lambda scn: [(u.id, u.position) for op in ("A", "B") for u in scn.users[op]]
    assert pos(scn1) == pos(scn2)
    assert pos(scn1) != pos(scn3)


def test_roles_follow_technologies():
    scn, _ = build()  # defaults: A WiGig, B NR-U
    assert {s.role for s in scn.sites["A"]} == {"ap"}
    assert {u.role for u in scn.users["A"]} == {"sta"}
    assert {s.role for s in scn.sites["B"]} == {"gnb"}
    assert {u.role for u in scn.users["B"]} == {"ue"}


def test_scenario_csv_lists_every_device():
    scn, _ = build(sites_per_operator=1, users_per_operator=2)
    text = scenario_csv(scn)
    lines = text.strip().splitlines()
    assert lines[0] == "device,operator,role,x,y,z,serving"
    assert len(lines) == 1 + 2 + 4


def test_floor_almost_out_of_reach_is_refused_quickly():
    # Valid, but only a sliver of about 1e-7 of the floor lies within
    # 12.3301 m of the B site row at y = 13.33 m.
    overrides = dict(floor_y=1.0, max_site_distance_m=12.3301, users_per_operator=2)
    validate(replace(CampaignConfig(), **overrides))
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="max_site_distance_m"):
        build(**overrides)
    assert time.perf_counter() - t0 < 1.0
