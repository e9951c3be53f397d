"""Discrete-event coexistence simulator for NR-U and WiGig at 60 GHz."""

from .config import CampaignConfig, ConfigError, parse_config
from .engine import Engine, RngStreams, SchedulingInPastError
from .runner import RunResult, build, emit_report, run_campaign, run_once

__all__ = [
    "CampaignConfig",
    "ConfigError",
    "Engine",
    "RngStreams",
    "RunResult",
    "SchedulingInPastError",
    "build",
    "emit_report",
    "parse_config",
    "run_campaign",
    "run_once",
]
