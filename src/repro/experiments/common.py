"""Shared helpers for experiment modules."""

from repro.sim.units import MILLISECONDS


def scaled_duration(base_ns, scale, floor_ns=5 * MILLISECONDS):
    """Scale a measurement window, never below a meaningful floor."""
    return max(int(base_ns * scale), floor_ns)


def scaled_count(base, scale, floor=1):
    """Scale an iteration/client count, never below ``floor``."""
    return max(int(round(base * scale)), floor)
