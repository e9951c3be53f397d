"""Campaign configuration: plain key=value files with audited defaults.

`CampaignConfig` is the only parameter source: every scenario parameter has
its one default here, and the simulator components read it directly, with
time and frequency values taken from the derived integer-nanosecond and Hz
properties below. A config file only needs to list deviations. Unknown keys
and out-of-range values are rejected with a diagnostic naming the key.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .engine import MS, SEC, US
from .traffic import interarrival_ns

ACCESS_MODES = {
    "On/On": ("Cat1", "Cat1"),
    "OnOff/OnOff": ("OnOff", "OnOff"),
    "Cat4/On": ("Cat4", "Cat1"),
    "Cat4/Cat2": ("Cat4", "Cat2"),
    "Cat3/On": ("Cat3", "Cat1"),
    "Cat3/Cat2": ("Cat3", "Cat2"),
}

TECHNOLOGIES = ("WiGig", "NR-U")

# Site row of each operator (y, metres); sites spread along x on the floor.
ROW_Y = {"A": 6.67, "B": 13.33}


class ConfigError(ValueError):
    pass


def _ns(field: str, unit: int) -> cached_property:
    """`field` converted to integer nanoseconds, computed once per config."""
    return cached_property(lambda cfg: round(getattr(cfg, field) * unit))


@dataclass(frozen=True)
class CampaignConfig:
    # Deployment
    floor_x: float = 60.0
    floor_y: float = 20.0
    sites_per_operator: int = 3
    users_per_operator: int = 12
    max_site_distance_m: float = 20.0
    operator_a: str = "WiGig"
    operator_b: str = "NR-U"
    nru_access: str = "Cat4/Cat2"
    access_sweep: str = ""  # comma list of labels, may include "WiGig-only"
    # Radio
    center_frequency_ghz: float = 58.0
    bandwidth_ghz: float = 2.16
    tx_power_dbm: float = 17.0
    noise_figure_db: float = 7.0
    # Traffic
    load_mbps: float = 50.0
    packet_bytes: int = 1500
    duration_s: float = 1.5
    # Channel access
    gnb_ed_threshold_dbm: float = -79.0
    ue_ed_threshold_dbm: float = -69.0
    wigig_ed_threshold_dbm: float = -79.0
    wigig_preamble_threshold_dbm: float = -89.0
    cca_slot_us: float = 5.0
    defer_us: float = 8.0
    max_cot_ms: float = 9.0
    cws_min: int = 15
    cws_max: int = 1023
    cat3_cws: int = 15
    cat2_defer_us: float = 25.0
    duty_on_ms: float = 9.0
    duty_off_ms: float = 9.0
    # NR-U MAC
    mac_lead_slots: int = 2
    harq_max_tx: int = 4
    mcs_margin_db: float = 1.0
    nru_overhead: float = 0.75
    # WiGig MAC
    wigig_retry_limit: int = 7
    sifs_us: float = 3.0
    ack_us: float = 1.0
    ack_timeout_us: float = 10.0
    assoc_attempts: int = 5

    # Derived values: not fields, so config_hash, == and replace ignore them.
    duration_ns = _ns("duration_s", SEC)
    cca_slot_ns = _ns("cca_slot_us", US)
    defer_ns = _ns("defer_us", US)
    max_cot_ns = _ns("max_cot_ms", MS)
    cat2_defer_ns = _ns("cat2_defer_us", US)
    duty_on_ns = _ns("duty_on_ms", MS)
    duty_off_ns = _ns("duty_off_ms", MS)
    sifs_ns = _ns("sifs_us", US)
    ack_ns = _ns("ack_us", US)
    ack_timeout_ns = _ns("ack_timeout_us", US)

    @cached_property
    def bandwidth_hz(self) -> float:
        return self.bandwidth_ghz * 1e9

    @property
    def label(self) -> str:
        if self.operator_a != "NR-U" and self.operator_b != "NR-U":
            return "WiGig-only"
        return self.nru_access

    def technologies(self) -> dict[str, str]:
        return {"A": self.operator_a, "B": self.operator_b}

    def config_hash(self) -> str:
        blob = ";".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name != "access_sweep"
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def sweep_labels(self) -> list[str]:
        if not self.access_sweep:
            return [self.label]
        return [s.strip() for s in self.access_sweep.split(",") if s.strip()]

    def for_label(self, label: str) -> "CampaignConfig":
        if label == "WiGig-only":
            return replace(self, operator_a="WiGig", operator_b="WiGig", access_sweep="")
        if label not in ACCESS_MODES:
            raise ConfigError(f"unknown access configuration '{label}'")
        return replace(self, operator_b="NR-U", nru_access=label, access_sweep="")


_RANGES = {
    "floor_x": (1.0, 1000.0),
    "floor_y": (1.0, 1000.0),
    "sites_per_operator": (1, 3),
    "users_per_operator": (1, 100),
    "max_site_distance_m": (1.0, 1000.0),
    "center_frequency_ghz": (0.1, 100.0),
    "bandwidth_ghz": (0.001, 15.0),
    "tx_power_dbm": (-30.0, 17.0),  # 17 dBm regulatory maximum
    "noise_figure_db": (0.0, 20.0),
    "load_mbps": (0.001, 100000.0),
    "packet_bytes": (1, 65535),
    "duration_s": (0.001, 100.0),
    "gnb_ed_threshold_dbm": (-120.0, 0.0),
    "ue_ed_threshold_dbm": (-120.0, 0.0),
    "wigig_ed_threshold_dbm": (-120.0, 0.0),
    "wigig_preamble_threshold_dbm": (-120.0, 0.0),
    "cca_slot_us": (1.0, 100.0),
    "defer_us": (1.0, 100.0),
    "max_cot_ms": (0.1, 9.0),
    "cws_min": (0, 1023),
    "cws_max": (1, 4095),
    "cat3_cws": (0, 1023),
    "cat2_defer_us": (1.0, 1000.0),
    "duty_on_ms": (0.1, 1000.0),
    "duty_off_ms": (0.1, 1000.0),
    "mac_lead_slots": (1, 16),
    "harq_max_tx": (1, 16),
    "mcs_margin_db": (0.0, 10.0),
    "nru_overhead": (0.1, 1.0),
    "wigig_retry_limit": (1, 32),
    "sifs_us": (0.1, 100.0),
    "ack_us": (0.1, 100.0),
    "ack_timeout_us": (1.0, 1000.0),
    "assoc_attempts": (1, 100),
}


def _convert(key: str, raw: str, target_type: type):
    if not raw:
        raise ConfigError(f"empty value for key '{key}'")
    if target_type is str:
        return raw
    try:
        # int() and float() take one number and nothing else, so a trailing
        # unit or a second number is refused, not dropped.
        return target_type(raw.replace("−", "-"))
    except ValueError:
        raise ConfigError(f"malformed value for key '{key}': {raw!r}") from None


def validate(cfg: CampaignConfig) -> CampaignConfig:
    for key, (lo, hi) in _RANGES.items():
        v = getattr(cfg, key)
        if not lo <= v <= hi:
            raise ConfigError(f"value for key '{key}' out of range [{lo}, {hi}]: {v}")
    for key in ("operator_a", "operator_b"):
        if getattr(cfg, key) not in TECHNOLOGIES:
            raise ConfigError(f"value for key '{key}' must be one of {TECHNOLOGIES}")
    if cfg.nru_access not in ACCESS_MODES:
        raise ConfigError(
            f"value for key 'nru_access' must be one of {sorted(ACCESS_MODES)}"
        )
    if cfg.cws_min > cfg.cws_max:
        raise ConfigError("value for key 'cws_min' exceeds 'cws_max'")
    if interarrival_ns(cfg.packet_bytes, cfg.load_mbps * 1e6) < 1:
        raise ConfigError(f"value for key 'load_mbps' sends {cfg.packet_bytes} B packets 0 ns apart")
    # A user drop is redrawn until it lies within reach of an own site row.
    if max(ROW_Y.values()) - cfg.floor_y >= cfg.max_site_distance_m:
        raise ConfigError("value for key 'max_site_distance_m' reaches no floor point from a site row")
    for label in cfg.sweep_labels():
        if label != "WiGig-only" and label not in ACCESS_MODES:
            raise ConfigError(f"unknown label in key 'access_sweep': '{label}'")
    return cfg


def parse_config(path: str) -> CampaignConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    defaults = CampaignConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(defaults)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: malformed line (expected key = value)")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _convert(key, raw, types[key])
    return validate(CampaignConfig(**values))
