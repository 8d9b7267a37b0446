"""Frequency-response measurement and specification checking.

Used to (a) sanity-check designed filters, (b) verify that quantization at a
given word length has not destroyed the response, and (c) drive the
word-length search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .specs import BandType, FilterSpec

__all__ = ["ResponseReport", "frequency_response", "measure_response", "meets_spec"]


@dataclass(frozen=True)
class ResponseReport:
    """Measured response quality of a tap vector against a spec."""

    passband_ripple_db: float
    stopband_atten_db: float

    def satisfies(self, spec: FilterSpec, margin_db: float = 0.0) -> bool:
        """True if measured ripple/attenuation meet the spec with ``margin_db``."""
        return (
            self.passband_ripple_db <= spec.ripple_db + margin_db
            and self.stopband_atten_db >= spec.atten_db - margin_db
        )


def frequency_response(
    taps: Sequence[float], num_points: int = 2048
) -> Tuple[np.ndarray, np.ndarray]:
    """Return (frequencies normalized to Nyquist, complex response)."""
    from scipy import signal

    freqs, response = signal.freqz(np.asarray(list(taps), dtype=float), worN=num_points)
    return freqs / np.pi, response


def _band_masks(spec: FilterSpec, freqs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean masks selecting the passband(s) and stopband(s) of the grid."""
    fp1, fp2 = spec.passband
    fs1, fs2 = spec.stopband
    if spec.band is BandType.LOWPASS:
        passband = freqs <= fp2
        stopband = freqs >= fs1
    elif spec.band is BandType.HIGHPASS:
        passband = freqs >= fp1
        stopband = freqs <= fs2
    elif spec.band is BandType.BANDPASS:
        passband = (freqs >= fp1) & (freqs <= fp2)
        stopband = (freqs <= fs1) | (freqs >= fs2)
    else:  # BANDSTOP
        passband = (freqs <= fp1) | (freqs >= fp2)
        stopband = (freqs >= fs1) & (freqs <= fs2)
    return passband, stopband


def measure_response(
    taps: Sequence[float], spec: FilterSpec, num_points: int = 2048
) -> ResponseReport:
    """Measure peak-to-peak passband ripple and minimum stopband attenuation.

    The filter is first normalized so its mean passband gain is unity —
    coefficient scaling (uniform or maximal) changes the absolute gain, which
    must not register as a spec violation.
    """
    freqs, response = frequency_response(taps, num_points)
    magnitude = np.abs(response)
    passband, stopband = _band_masks(spec, freqs)
    pass_mag = magnitude[passband]
    stop_mag = magnitude[stopband]
    gain = float(np.mean(pass_mag)) if pass_mag.size else 1.0
    if gain <= 0.0:
        return ResponseReport(passband_ripple_db=float("inf"), stopband_atten_db=0.0)
    pass_mag = pass_mag / gain
    stop_mag = stop_mag / gain
    # Peak-to-peak ripple in dB across the passband.
    ripple_db = float(
        20.0 * np.log10(np.max(pass_mag) / max(np.min(pass_mag), 1e-12))
    )
    atten_db = float(-20.0 * np.log10(max(np.max(stop_mag), 1e-12)))
    return ResponseReport(passband_ripple_db=ripple_db, stopband_atten_db=atten_db)


def meets_spec(
    taps: Sequence[float], spec: FilterSpec, margin_db: float = 0.0
) -> bool:
    """Convenience wrapper: measure and compare against the spec."""
    return measure_response(taps, spec).satisfies(spec, margin_db)
