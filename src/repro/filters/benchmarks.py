"""The 12-filter benchmark suite reproducing the paper's Table 1.

The digitized paper preserves each example's *design method* (BW/PM/LS) and
*band type* (LP/BS/BP) but garbles the numeric spec rows (f_p, f_s, R_p, R_s,
order).  Per the reproduction protocol (see DESIGN.md §2) we therefore fix
concrete specs with the preserved method/band per example and orders growing
across the suite so that the SEED sizes after MRP transformation land in the
paper's reported range — (3,6) roots/solution-set for example 1 up to (35,45)
for example 12 at W=16, maximal scaling, depth constraint 3.

All filters are Type-I symmetric so the folded-TDF accounting applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import List, Tuple

from .design import design_fir
from .specs import BandType, DesignMethod, FilterSpec
from .structures import fold_symmetric
from .suite_taps import SUITE_TAPS

__all__ = ["DesignedFilter", "TABLE1_SPECS", "benchmark_suite", "benchmark_filter"]


@dataclass(frozen=True)
class DesignedFilter:
    """A benchmark spec together with its designed taps and folded half."""

    spec: FilterSpec
    taps: Tuple[float, ...]
    folded: Tuple[float, ...]

    @property
    def name(self) -> str:
        """The benchmark filter's name (from its spec)."""
        return self.spec.name

    @property
    def num_unique_taps(self) -> int:
        """Multiplier count after symmetric folding."""
        return len(self.folded)


def _lp(name: str, method: DesignMethod, numtaps: int, fp: float, fs: float,
        rp: float = 0.5, rs: float = 40.0) -> FilterSpec:
    return FilterSpec(
        name=name, band=BandType.LOWPASS, method=method, numtaps=numtaps,
        passband=(0.0, fp), stopband=(fs, 1.0), ripple_db=rp, atten_db=rs,
    )


def _bs(name: str, method: DesignMethod, numtaps: int,
        edges: Tuple[float, float, float, float],
        rp: float = 0.5, rs: float = 40.0) -> FilterSpec:
    fp1, fs1, fs2, fp2 = edges
    return FilterSpec(
        name=name, band=BandType.BANDSTOP, method=method, numtaps=numtaps,
        passband=(fp1, fp2), stopband=(fs1, fs2), ripple_db=rp, atten_db=rs,
    )


def _bp(name: str, method: DesignMethod, numtaps: int,
        edges: Tuple[float, float, float, float],
        rp: float = 0.5, rs: float = 40.0) -> FilterSpec:
    fs1, fp1, fp2, fs2 = edges
    return FilterSpec(
        name=name, band=BandType.BANDPASS, method=method, numtaps=numtaps,
        passband=(fp1, fp2), stopband=(fs1, fs2), ripple_db=rp, atten_db=rs,
    )


_BW = DesignMethod.BUTTERWORTH
_PM = DesignMethod.PARKS_MCCLELLAN
_LS = DesignMethod.LEAST_SQUARES

# Method and band sequences exactly as Table 1 lists them:
#   methods: BW PM LS BW PM LS PM PM LS LS PM LS
#   bands:   LP LP LP LP BS BS BS LP BS LP BP BP
TABLE1_SPECS: List[FilterSpec] = [
    _lp("ex01", _BW, 15, 0.20, 0.45, rp=4.5, rs=15.0),
    _lp("ex02", _PM, 25, 0.22, 0.38, rp=0.5, rs=40.0),
    _lp("ex03", _LS, 41, 0.20, 0.30, rp=0.6, rs=33.0),
    _lp("ex04", _BW, 33, 0.25, 0.42, rp=5.5, rs=27.0),
    _bs("ex05", _PM, 45, (0.18, 0.30, 0.52, 0.64), rp=0.5, rs=45.0),
    _bs("ex06", _LS, 53, (0.22, 0.32, 0.55, 0.66), rp=0.4, rs=48.0),
    _bs("ex07", _PM, 61, (0.25, 0.34, 0.52, 0.62), rp=0.3, rs=50.0),
    _lp("ex08", _PM, 57, 0.15, 0.22, rp=0.5, rs=46.0),
    _bs("ex09", _LS, 49, (0.20, 0.31, 0.56, 0.68), rp=0.4, rs=46.0),
    _lp("ex10", _LS, 51, 0.18, 0.26, rp=0.6, rs=30.0),
    _bp("ex11", _PM, 79, (0.22, 0.32, 0.55, 0.66), rp=0.3, rs=52.0),
    _bp("ex12", _LS, 71, (0.20, 0.30, 0.52, 0.63), rp=0.3, rs=50.0),
]


# The suite's designs, checked in as exact float taps (``suite_taps.py``) so
# that no sweep has to import scipy.  Keyed on the spec each was designed for.
_CHECKED_IN_TAPS = MappingProxyType({spec: hexes for spec, hexes in SUITE_TAPS})


# Keyed on the (frozen, hashable) spec itself rather than a positional index:
# the design depends on nothing else, so an edited/substituted TABLE1_SPECS
# entry can never be served a stale result designed for the old spec.
@lru_cache(maxsize=None)
def _design_cached(spec: FilterSpec) -> DesignedFilter:
    hexes = _CHECKED_IN_TAPS.get(spec)
    if hexes is None:
        taps = design_fir(spec)
    else:
        taps = tuple(float.fromhex(h) for h in hexes)
    folded, _ = fold_symmetric(taps)
    return DesignedFilter(
        spec=spec,
        taps=tuple(float(t) for t in taps),
        folded=tuple(float(t) for t in folded),
    )


def benchmark_filter(index: int) -> DesignedFilter:
    """Return benchmark filter ``index`` (0-based), designed and folded."""
    if not 0 <= index < len(TABLE1_SPECS):
        raise IndexError(f"benchmark index {index} out of range 0..{len(TABLE1_SPECS) - 1}")
    return _design_cached(TABLE1_SPECS[index])


def benchmark_suite() -> List[DesignedFilter]:
    """Design (once, cached) and return the whole 12-filter suite."""
    return [benchmark_filter(i) for i in range(len(TABLE1_SPECS))]
