"""Scenario construction: two-operator indoor layout, user drops, serving cells.

Sites sit in two symmetric rows (operator A at y=6.67 m, operator B at
y=13.33 m, 3 m height); users drop uniformly on the floor at 1.5 m, redrawn
until within 20 m (2D) of some own-operator site. The serving cell is the
own-operator site with the strongest average received power, beam-aligned.
"""
from __future__ import annotations

from dataclasses import dataclass

from .config import ROW_Y, CampaignConfig, ConfigError
from .engine import RngStreams
from .radio import AntennaArray, Device, Position, RadioEnvironment

SITE_ARRAY = AntennaArray(rows=8, cols=8)
USER_ARRAY = AntennaArray(rows=4, cols=4)
SITE_HEIGHT = 3.0
USER_HEIGHT = 1.5
MAX_DROP_DRAWS = 10_000  # per user; a floor this hard to hit is a config error


def site_positions(cfg: CampaignConfig, operator: str) -> list[Position]:
    step = cfg.floor_x / cfg.sites_per_operator
    return [Position(step / 2 + i * step, ROW_Y[operator], SITE_HEIGHT)
            for i in range(cfg.sites_per_operator)]


@dataclass
class Scenario:
    sites: dict[str, list[Device]]  # operator -> site devices
    users: dict[str, list[Device]]  # operator -> user devices

    def users_of_site(self, site: Device) -> list[Device]:
        return [u for u in self.users[site.operator] if u.serving == site.id]


def build_scenario(
    cfg: CampaignConfig, streams: RngStreams, env: RadioEnvironment
) -> Scenario:
    sites: dict[str, list[Device]] = {}
    users: dict[str, list[Device]] = {}
    for op in ("A", "B"):
        tech = cfg.technologies()[op]
        site_role = "gnb" if tech == "NR-U" else "ap"
        user_role = "ue" if tech == "NR-U" else "sta"
        sites[op] = []
        for i, pos in enumerate(site_positions(cfg, op)):
            dev = Device(f"{op}-{site_role}{i}", op, site_role, pos, SITE_ARRAY)
            sites[op].append(dev)
        rng = streams.stream("drop", op)
        users[op] = []
        for i in range(cfg.users_per_operator):
            for _draw in range(MAX_DROP_DRAWS):
                pos = Position(
                    rng.uniform(0.0, cfg.floor_x),
                    rng.uniform(0.0, cfg.floor_y),
                    USER_HEIGHT,
                )
                if min(pos.distance_2d(s.position) for s in sites[op]) <= cfg.max_site_distance_m:
                    break
            else:
                raise ConfigError(f"value for key 'max_site_distance_m' leaves operator {op} "
                                  f"almost no floor: no user drop in {MAX_DROP_DRAWS} draws")
            dev = Device(f"{op}-{user_role}{i}", op, user_role, pos, USER_ARRAY)
            dev.serving = max(sites[op], key=lambda s: env.aligned_rx_power_dbm(s, dev)).id
            users[op].append(dev)
    return Scenario(sites, users)


def scenario_csv(scn: Scenario) -> str:
    lines = ["device,operator,role,x,y,z,serving"]
    # The sites, then the users, each by operator.
    for dev in [d for group in (scn.sites, scn.users) for op in sorted(group) for d in group[op]]:
        p = dev.position
        lines.append(
            f"{dev.id},{dev.operator},{dev.role},{p.x:.4f},{p.y:.4f},{p.z:.4f},{dev.serving or ''}"
        )
    return "\n".join(lines) + "\n"
