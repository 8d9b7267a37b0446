"""Linear-phase FIR design backends: Parks-McClellan, least squares, Butterworth fit.

Every backend returns a symmetric (Type-I) tap vector for a
:class:`~repro.filters.specs.FilterSpec`.  These are the "BW", "PM" and "LS"
columns of the paper's Table 1.  Each backend imports ``scipy.signal`` when
it runs: the Table-1 suite's taps are checked in (``suite_taps.py``), so the
synthesis paths never pay scipy's import time.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import FilterDesignError
from .specs import BandType, DesignMethod, FilterSpec

__all__ = ["design_fir", "remez_bands", "firls_bands"]

# A hair of separation keeps degenerate bands away from DC/Nyquist in the
# Remez exchange when a spec edge sits exactly on 0 or 1.
_EDGE_EPS = 1e-6


def remez_bands(spec: FilterSpec) -> Tuple[List[float], List[float], List[float]]:
    """Build (band edges, desired gains, weights) for :func:`scipy.signal.remez`.

    Edges are normalized to Nyquist == 1 (we call remez with ``fs=2``).
    Weights follow the standard delta-ratio rule so the equiripple solution
    splits the error budget according to R_p and R_s.
    """
    wp = 1.0 / spec.passband_delta
    ws = 1.0 / spec.stopband_delta
    fp1, fp2 = spec.passband
    fs1, fs2 = spec.stopband
    if spec.band is BandType.LOWPASS:
        bands = [0.0, fp2, fs1, 1.0]
        desired = [1.0, 0.0]
        weights = [wp, ws]
    elif spec.band is BandType.HIGHPASS:
        bands = [0.0, fs2, fp1, 1.0]
        desired = [0.0, 1.0]
        weights = [ws, wp]
    elif spec.band is BandType.BANDPASS:
        bands = [0.0, fs1, fp1, fp2, fs2, 1.0]
        desired = [0.0, 1.0, 0.0]
        weights = [ws, wp, ws]
    elif spec.band is BandType.BANDSTOP:
        bands = [0.0, fp1, fs1, fs2, fp2, 1.0]
        desired = [1.0, 0.0, 1.0]
        weights = [wp, ws, wp]
    else:  # pragma: no cover - enum is exhaustive
        raise FilterDesignError(f"unsupported band {spec.band}")
    bands[0] = max(bands[0], 0.0)
    bands[-1] = min(bands[-1], 1.0 - _EDGE_EPS)
    return bands, desired, weights


def firls_bands(spec: FilterSpec) -> Tuple[List[float], List[float], List[float]]:
    """Build (bands, desired-at-edges, band weights) for :func:`scipy.signal.firls`."""
    bands, desired, weights = remez_bands(spec)
    # firls wants the desired gain at *both* edges of each band.
    desired_pairs: List[float] = []
    for gain in desired:
        desired_pairs.extend([gain, gain])
    return bands, desired_pairs, weights


def _design_parks_mcclellan(spec: FilterSpec) -> np.ndarray:
    from scipy import signal

    bands, desired, weights = remez_bands(spec)
    return signal.remez(spec.numtaps, bands, desired, weight=weights, fs=2.0)


def _design_least_squares(spec: FilterSpec) -> np.ndarray:
    from scipy import signal

    bands, desired, weights = firls_bands(spec)
    return signal.firls(spec.numtaps, bands, desired, weight=weights, fs=2.0)


def _butterworth_magnitude(spec: FilterSpec, grid: np.ndarray) -> np.ndarray:
    """Sampled magnitude of the IIR Butterworth meeting the spec."""
    from scipy import signal

    fp1, fp2 = spec.passband
    fs1, fs2 = spec.stopband
    if spec.band is BandType.LOWPASS:
        wp: object = fp2
        ws: object = fs1
        btype = "lowpass"
    elif spec.band is BandType.HIGHPASS:
        wp, ws, btype = fp1, fs2, "highpass"
    elif spec.band is BandType.BANDPASS:
        wp, ws, btype = [fp1, fp2], [fs1, fs2], "bandpass"
    else:
        wp, ws, btype = [fp1, fp2], [fs1, fs2], "bandstop"
    order, wn = signal.buttord(wp, ws, spec.ripple_db, spec.atten_db, fs=2.0)
    # Very sharp specs can demand huge IIR orders; cap for numerical sanity.
    order = min(order, 16)
    sos = signal.butter(order, wn, btype=btype, output="sos", fs=2.0)
    _, response = signal.sosfreqz(sos, worN=grid * np.pi)
    return np.abs(response)


def _design_butterworth_fir(spec: FilterSpec) -> np.ndarray:
    """Linear-phase FIR matching a Butterworth magnitude response.

    The paper's "BW" filters are Butterworth designs realized as symmetric
    FIR taps; we sample the Butterworth magnitude on a dense grid and fit it
    with :func:`scipy.signal.firwin2` (frequency-sampling + window), which
    yields exactly symmetric coefficients.
    """
    from scipy import signal

    grid = np.linspace(0.0, 1.0, 512)
    gains = _butterworth_magnitude(spec, grid)
    gains[0] = gains[0] if spec.band not in (BandType.HIGHPASS, BandType.BANDPASS) else 0.0
    gains[-1] = 0.0 if spec.band in (BandType.LOWPASS, BandType.BANDPASS) else gains[-1]
    return signal.firwin2(spec.numtaps, grid, gains, fs=2.0)


_BACKENDS = {
    DesignMethod.PARKS_MCCLELLAN: _design_parks_mcclellan,
    DesignMethod.LEAST_SQUARES: _design_least_squares,
    DesignMethod.BUTTERWORTH: _design_butterworth_fir,
}


def design_fir(spec: FilterSpec) -> np.ndarray:
    """Design the FIR taps for ``spec`` with its chosen method.

    Returns a length-``spec.numtaps`` symmetric float array.  Raises
    :class:`FilterDesignError` if the backend fails or produces a
    non-symmetric result (which would break the folded TDF assumption).
    """
    backend = _BACKENDS[spec.method]
    try:
        taps = np.asarray(backend(spec), dtype=float)
    except Exception as exc:  # scipy raises plain ValueErrors
        raise FilterDesignError(f"{spec.name}: design failed: {exc}") from exc
    if taps.shape != (spec.numtaps,):
        raise FilterDesignError(
            f"{spec.name}: backend returned {taps.shape}, expected ({spec.numtaps},)"
        )
    if not np.allclose(taps, taps[::-1], atol=1e-9 * max(1.0, np.max(np.abs(taps)))):
        raise FilterDesignError(f"{spec.name}: design is not symmetric")
    if not np.all(np.isfinite(taps)):
        raise FilterDesignError(f"{spec.name}: design contains non-finite taps")
    return taps
