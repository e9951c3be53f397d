"""Offline oracles that re-check a finished run independently of the code
under test.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Optional

from coexsim.channel_access import CAT2, CAT3, CAT4, Cam
from coexsim.radio import Device, RadioEnvironment, db_to_lin


def _power_steps(env: RadioEnvironment, device: Device, emissions, rx_beam):
    """Stepwise aggregate sensed power at `device`: (edge times, levels)."""
    edges: list[tuple[int, float]] = []
    for em in emissions:
        if em.source is device:
            continue
        p = db_to_lin(env.rx_power_dbm(em, device, rx_beam))
        edges.append((em.start, p))
        edges.append((em.end, -p))
    if not edges:
        return [0], [0.0]
    edges.sort()
    times = [t for t, _ in edges]
    levels = list(accumulate(p for _, p in edges))
    return times, levels


def verify_lbt_safety(
    env: RadioEnvironment, cams: list[Cam], cam_rows: list, emissions: list
) -> list[tuple[int, str, str]]:
    """Re-derive every CCA window a CAM believed idle and check it really was.

    Returns one (time, device, detail) tuple per violation. Windows are the
    intervals in the cam trace's `cam_rows` from each defer_start to the next
    counter_frozen/grant of the same device, plus the fixed deferral window
    preceding each Cat2 grant.
    """
    violations: list[tuple[int, str, str]] = []
    by_id = {c.device.id: c for c in cams}
    per_device: dict[str, list[tuple[int, str]]] = {}
    for t, dev, cat, event in cam_rows:
        if cat in (CAT2, CAT3, CAT4):
            per_device.setdefault(dev, []).append((t, event))

    for dev_id, rows in per_device.items():
        cam = by_id[dev_id]
        thr = cam.ed_threshold_lin
        times, levels = _power_steps(env, cam.device, emissions, cam.table.rx_beam)
        windows: list[tuple[int, int]] = []
        open_at: Optional[int] = None
        for t, event in rows:
            if event == "defer_start":
                open_at = t
            elif event in ("counter_frozen", "grant") and open_at is not None:
                windows.append((open_at, t))
                open_at = None
            if event == "grant" and cam.category == CAT2:
                windows.append((t - cam.config.cat2_defer_ns, t))
        for w0, w1 in windows:
            if w1 <= w0:
                continue
            # Max level over [w0, w1): level at w0 plus any steps inside.
            i0 = bisect_right(times, w0) - 1
            i1 = bisect_left(times, w1)
            lo = max(i0, 0)
            seg = levels[lo:i1]
            peak = max(seg) if seg else 0.0
            if i0 < 0:
                peak = max(peak, 0.0)
            if peak >= thr * (1 - 1e-12):
                violations.append((w0, dev_id, f"busy window [{w0},{w1})"))
    return violations
