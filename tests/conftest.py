"""Shared rigs: a tiny radio environment with hand-forced link states so that
received powers in tests are exact, closed-form quantities."""
from copy import copy

import pytest

from coexsim import runner
from coexsim.config import CampaignConfig
from coexsim.engine import Engine, RngStreams
from coexsim.radio import (
    AntennaArray,
    Device,
    Emission,
    LinkState,
    Position,
    RadioEnvironment,
)

OMNI = AntennaArray(rows=1, cols=1, element_gain_dbi=0.0)

# Cat4 contention windows from cws_min under back-to-back all-NACK batches.
CAT4_CWS_LADDER = (15, 31, 63, 127, 255, 511, 1023)


class Rig:
    def __init__(self, seed: int = 1, config: CampaignConfig = CampaignConfig()):
        self.engine = Engine()
        self.streams = RngStreams(seed)
        self.config = config
        self.env = RadioEnvironment(self.engine, self.streams, self.config)
        self.decoded = {}  # eid -> a copy of an ended `emit` emission, interferers kept

    def place(self, dev_id, x, y=0.0, z=1.5, operator="A", role="sta", array=OMNI):
        return Device(dev_id, operator, role, Position(x, y, z), array)

    def force_link(self, a, b, los=True, shadowing_db=0.0):
        """Pin the LOS flag and shadowing so pathloss is deterministic."""
        self.env._links[frozenset((a.id, b.id))] = LinkState(
            los,
            shadowing_db,
            a.position.distance_3d(b.position),
        )

    def emit(self, source, tx_power_dbm, duration_ns, rat="nru", beam_target=None):
        """Put an emission over [now, now + duration_ns) on the air, on its
        link, registered here. No receiver decodes it: its end event keeps a
        copy in `decoded`, with the interferers the emission itself drops."""
        key = self.env.link_key(source, beam_target, rat, tx_power_dbm)
        return self.env.add_emission(key, self.engine.now + duration_ns,
                                     lambda em: self.decoded.__setitem__(em.eid, copy(em)))


def table_entry(table, key):
    """(dBm, linear power) of link `key` at a `LinkTable`: the power by the
    table's rule, `rx_power_dbm`, and the entry, filled on first read."""
    lin = table.read(key)
    env = table.env
    return env.rx_power_dbm(env._link_emissions[key], table.receiver, table.rx_beam), lin


class FixedRng:
    """randint stub returning a scripted sequence (last value repeats)."""

    def __init__(self, *values):
        self.values = list(values)

    def randint(self, a, b):
        v = self.values.pop(0) if len(self.values) > 1 else self.values[0]
        assert a <= v <= b, f"scripted draw {v} outside [{a}, {b}]"
        return v


@pytest.fixture
def rig():
    return Rig()


def record_emissions(monkeypatch) -> list[Emission]:
    """Wrap `RadioEnvironment.add_emission` through `monkeypatch` and return
    the list it appends every added emission to, in eid order."""
    log = []
    add_emission = RadioEnvironment.add_emission

    def recording(env, key, end, at_end):
        em = add_emission(env, key, end, at_end)
        log.append(em)
        return em

    monkeypatch.setattr(RadioEnvironment, "add_emission", recording)
    return log


def record_cams(monkeypatch) -> list:
    """Wrap `runner.make_cam` through `monkeypatch` and return the list it
    appends every channel access manager that `run_once` builds to."""
    cams = []
    make_cam = runner.make_cam

    def recording(*args, **kwargs):
        cams.append(make_cam(*args, **kwargs))
        return cams[-1]

    monkeypatch.setattr(runner, "make_cam", recording)
    return cams


@pytest.fixture
def emission_log(monkeypatch):
    """Every emission added during the test, in eid order."""
    return record_emissions(monkeypatch)
