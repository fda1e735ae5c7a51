"""Unit conversions at the tool boundary.

Internally everything is megabits per slot with theta per megabit.  The
command line speaks Mbps, milliseconds and theta per bit; conversion happens
exactly once, here.  The default slot length is one millisecond, which makes
1 Mb per slot equal to 1 Gbps.
"""

from __future__ import annotations

BITS_PER_MEGABIT = 1e6

__all__ = [
    "mbps_to_mb_per_slot",
    "mb_per_slot_to_mbps",
    "ms_to_slots",
    "slots_to_ms",
    "theta_per_mb_to_per_bit",
]


def mbps_to_mb_per_slot(rate_mbps: float, slot_ms: float = 1.0) -> float:
    return rate_mbps * slot_ms / 1000.0


def mb_per_slot_to_mbps(rate: float, slot_ms: float = 1.0) -> float:
    return rate * 1000.0 / slot_ms


def ms_to_slots(duration_ms: float, slot_ms: float = 1.0) -> int:
    slots = duration_ms / slot_ms
    rounded = round(slots)
    if abs(slots - rounded) > 1e-9:
        raise ValueError(f"{duration_ms} ms is not a whole number of {slot_ms} ms slots")
    return int(rounded)


def slots_to_ms(slots: int, slot_ms: float = 1.0) -> float:
    return slots * slot_ms


def theta_per_mb_to_per_bit(theta: float) -> float:
    return theta / BITS_PER_MEGABIT
