"""The checked-in suite taps pin the scipy designs they replace.

``repro/filters/suite_taps.py`` holds the 12 Table-1 designs as exact
``float.hex`` strings so that sweeps never import ``scipy.signal``.  These
tests redesign every filter with scipy: if a scipy release moves a single
bit, a named test fails here instead of the golden exports drifting
silently.  Regenerate with ``PYTHONPATH=src python scripts/gen_suite_taps.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.filters import TABLE1_SPECS, benchmark_filter, design_fir, fold_symmetric
from repro.filters.suite_taps import SUITE_TAPS
from repro.quantize import ScalingScheme, quantize

ROOT = Path(__file__).resolve().parents[1]
INDICES = range(len(SUITE_TAPS))


def _generator():
    spec = importlib.util.spec_from_file_location(
        "gen_suite_taps", ROOT / "scripts" / "gen_suite_taps.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def redesigned():
    return [tuple(design_fir(spec)) for spec, _ in SUITE_TAPS]


def test_module_is_what_the_generator_writes():
    """Same specs in ``TABLE1_SPECS`` order, same taps, same layout."""
    generator = _generator()
    assert generator.MODULE_PATH.read_text() == generator.render(TABLE1_SPECS)


@pytest.mark.parametrize("index", INDICES)
def test_redesigned_taps_match_bit_for_bit(index, redesigned):
    _, hexes = SUITE_TAPS[index]
    assert tuple(float(t).hex() for t in redesigned[index]) == hexes


@pytest.mark.parametrize("index", INDICES)
def test_quantized_integers_match_at_every_wordlength(index, redesigned):
    scipy_half, _ = fold_symmetric(redesigned[index])
    served_half = benchmark_filter(index).folded
    for wordlength in range(8, 21):
        for scheme in ScalingScheme:
            fresh = quantize(scipy_half, wordlength, scheme)
            served = quantize(served_half, wordlength, scheme)
            assert (fresh.integers, fresh.shifts) == (served.integers, served.shifts), (
                wordlength, scheme,
            )


@pytest.mark.parametrize("index", INDICES)
def test_suite_serves_the_checked_in_taps(index):
    _, hexes = SUITE_TAPS[index]
    designed = benchmark_filter(index)
    assert designed.taps == tuple(float.fromhex(h) for h in hexes)
    assert np.array_equal(designed.folded, fold_symmetric(designed.taps)[0])
