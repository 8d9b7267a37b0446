"""Half-band FIR design — the structurally friendliest filter for MRP.

A half-band low-pass has cutoff at fs/4 with symmetric transition bands; its
impulse response has *every other tap exactly zero* (except the center).
Zero taps cost nothing in any multiplierless scheme, and in a 2-fold
polyphase decimator one whole branch degenerates to a single center tap —
the classic efficient decimate-by-2 building block that channelizer chains
cascade.
"""

from __future__ import annotations

import numpy as np

from ..errors import FilterDesignError

__all__ = ["design_halfband", "is_halfband"]


def design_halfband(numtaps: int, transition: float = 0.1) -> np.ndarray:
    """Design a half-band low-pass via the Remez half-band trick.

    ``numtaps`` must satisfy ``numtaps % 4 == 3`` (order 4k+2: the canonical
    half-band lengths 7, 11, 15, ...); ``transition`` is the width of each
    transition band around fs/4, normalized to Nyquist (0 < transition < 0.5).

    The trick: design the nonzero "half filter" ``g`` of length
    ``(numtaps+1)/2`` as a full-band filter, then interleave zeros and set
    the center tap — the result is exactly half-band by construction.
    """
    if numtaps % 4 != 3:
        raise FilterDesignError(
            f"half-band length must be 4k+3 (7, 11, 15, ...), got {numtaps}"
        )
    if not 0.0 < transition < 0.5:
        raise FilterDesignError(f"transition {transition} out of (0, 0.5)")
    from scipy import signal

    half_length = (numtaps + 1) // 2
    # Design g(n) with passband [0, 0.5 - 2*transition] on the half-rate grid.
    edge = 0.5 - transition
    g = signal.remez(half_length, [0.0, 2 * edge, 1.0 - 1e-6, 1.0],
                     [1.0, 0.0], fs=2.0)
    taps = np.zeros(numtaps)
    taps[::2] = g / 2.0
    taps[numtaps // 2] = 0.5
    return taps


def is_halfband(taps: np.ndarray, rel_tol: float = 1e-9) -> bool:
    """True if every other tap (except the center) is (numerically) zero."""
    taps = np.asarray(taps, dtype=float)
    if taps.size % 2 == 0:
        return False
    center = taps.size // 2
    scale = max(1.0, float(np.max(np.abs(taps))))
    # Half-band zeros sit at *even* distances from the center tap.
    for distance in range(2, center + 1, 2):
        if abs(taps[center - distance]) > rel_tol * scale:
            return False
        if abs(taps[center + distance]) > rel_tol * scale:
            return False
    return True
