"""IIR filter support — the paper's §1 claim applied.

The paper notes MRP "can be directly applied to any application which can be
expressed as a vector scaling operation ... like transposed direct form IIR
filters".  A TDF-II IIR section multiplies the input ``x(n)`` by the
numerator vector *and* the output ``y(n)`` by the denominator vector — two
vector scaling operations that MRP can optimize jointly (one shared SEED
network per multiplicand).

This module provides IIR design (Butterworth/Chebyshev via scipy), joint
quantization of ``b``/``a``, and an exact rational-arithmetic TDF-II
simulator used to verify synthesized multiplierless IIR structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import FilterDesignError, QuantizationError

__all__ = [
    "IirSpec",
    "QuantizedIir",
    "design_iir",
    "quantize_iir",
    "iir_direct_output",
    "iir_tdf2_output",
]


@dataclass(frozen=True)
class IirSpec:
    """A classical IIR low/high/band-pass/stop specification.

    Frequencies normalized to Nyquist == 1, like :class:`FilterSpec`.
    """

    name: str
    btype: str              # "lowpass" | "highpass" | "bandpass" | "bandstop"
    order: int
    cutoff: Tuple[float, ...]
    design: str = "butter"  # "butter" | "cheby1"
    ripple_db: float = 1.0  # cheby1 passband ripple

    def __post_init__(self) -> None:
        if self.btype not in ("lowpass", "highpass", "bandpass", "bandstop"):
            raise FilterDesignError(f"{self.name}: unknown btype {self.btype!r}")
        if self.order < 1:
            raise FilterDesignError(f"{self.name}: order must be >= 1")
        if self.design not in ("butter", "cheby1"):
            raise FilterDesignError(f"{self.name}: unknown design {self.design!r}")
        for f in self.cutoff:
            if not 0.0 < f < 1.0:
                raise FilterDesignError(f"{self.name}: cutoff {f} out of (0, 1)")


def design_iir(spec: IirSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Design ``(b, a)`` transfer-function coefficients for the spec."""
    from scipy import signal

    wn = spec.cutoff if len(spec.cutoff) > 1 else spec.cutoff[0]
    if spec.design == "butter":
        b, a = signal.butter(spec.order, wn, btype=spec.btype, fs=2.0)
    else:
        b, a = signal.cheby1(spec.order, spec.ripple_db, wn,
                             btype=spec.btype, fs=2.0)
    return np.atleast_1d(b), np.atleast_1d(a)


@dataclass(frozen=True)
class QuantizedIir:
    """Fixed-point image of an IIR transfer function.

    ``b_int / 2**b_frac`` and ``a_int / 2**a_frac`` approximate the float
    coefficients; ``a_int[0]`` is the (power-of-two) leading denominator term
    so the recursion needs no true division.
    """

    b_int: Tuple[int, ...]
    a_int: Tuple[int, ...]
    b_frac: int
    a_frac: int

    @property
    def all_integers(self) -> Tuple[int, ...]:
        """The joint coefficient vector MRP optimizes over."""
        return tuple(self.b_int) + tuple(self.a_int[1:])


def quantize_iir(
    b: Sequence[float], a: Sequence[float], wordlength: int
) -> QuantizedIir:
    """Quantize ``b`` and ``a`` to fixed point with power-of-two scaling.

    The coefficients are normalized so ``a[0] == 1`` and then scaled by the
    largest power of two keeping every integer within ``wordlength`` bits —
    making the leading denominator coefficient an exact power of two, so the
    feedback divide is a wire shift.
    """
    b = np.asarray(list(b), dtype=float)
    a = np.asarray(list(a), dtype=float)
    if a.size == 0 or a[0] == 0.0:
        raise QuantizationError("IIR denominator must have a nonzero a[0]")
    b = b / a[0]
    a = a / a[0]
    limit = (1 << (wordlength - 1)) - 1

    def fit(vec: np.ndarray) -> Tuple[Tuple[int, ...], int]:
        peak = float(np.max(np.abs(vec)))
        if peak == 0.0:
            raise QuantizationError("coefficient vector is identically zero")
        frac = 0
        while (round(peak * (1 << (frac + 1)))) <= limit:
            frac += 1
        return tuple(int(round(v * (1 << frac))) for v in vec), frac

    b_int, b_frac = fit(b)
    a_int, a_frac = fit(a)
    return QuantizedIir(b_int=b_int, a_int=a_int, b_frac=b_frac, a_frac=a_frac)


def iir_direct_output(
    b: Sequence, a: Sequence, samples: Sequence
) -> List[Fraction]:
    """Exact rational IIR recursion ``a0 y(n) = sum b_i x - sum a_j y``."""
    b = [Fraction(v) for v in b]
    a = [Fraction(v) for v in a]
    out: List[Fraction] = []
    for n in range(len(samples)):
        acc = Fraction(0)
        for i, bi in enumerate(b):
            if n - i >= 0:
                acc += bi * Fraction(samples[n - i])
        for j in range(1, len(a)):
            if n - j >= 0:
                acc -= a[j] * out[n - j]
        out.append(acc / a[0])
    return out


def iir_tdf2_output(
    b: Sequence, a: Sequence, samples: Sequence
) -> List[Fraction]:
    """Cycle-accurate transposed direct form II simulation (exact rationals).

    ``y(n) = (b0 x(n) + r0) / a0``; registers update as
    ``r_k = b_{k+1} x - a_{k+1} y + r_{k+1}``.  Must equal the direct
    recursion — the structural identity the tests enforce.
    """
    b = [Fraction(v) for v in b]
    a = [Fraction(v) for v in a]
    order = max(len(b), len(a)) - 1
    b = b + [Fraction(0)] * (order + 1 - len(b))
    a = a + [Fraction(0)] * (order + 1 - len(a))
    registers = [Fraction(0)] * order
    out: List[Fraction] = []
    for x in samples:
        xf = Fraction(x)
        y = (b[0] * xf + (registers[0] if registers else 0)) / a[0]
        for k in range(order):
            incoming = registers[k + 1] if k + 1 < order else Fraction(0)
            registers[k] = b[k + 1] * xf - a[k + 1] * y + incoming
        out.append(y)
    return out
