"""Unit helpers.

All simulator-internal quantities use SI base units: seconds, bytes,
hertz, watts.  These helpers exist so call sites read like the datasheet
values they encode (``600 * MHZ``, ``2 * MiB``) instead of bare powers of
ten.
"""

from __future__ import annotations

# --- frequency -----------------------------------------------------------
MHZ = 1e6

# --- data sizes (binary) -------------------------------------------------
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# --- data sizes / rates (decimal, as used in bus datasheets) -------------
MB = 1e6
GB = 1e9


def cycles_to_seconds(cycles: float, freq_hz: float) -> float:
    """Wall time for *cycles* clock ticks at *freq_hz*."""
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return cycles / freq_hz
