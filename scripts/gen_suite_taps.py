"""Write ``src/repro/filters/suite_taps.py``: the Table-1 suite's float taps.

The 12 benchmark filters are designed once with scipy (``design_fir``) and
checked in as exact ``float.hex`` strings, so a sweep, a robust synthesis or
the job service never has to import ``scipy.signal``.  Each entry also
records the spec it was designed for; ``benchmark_filter`` serves the
checked-in taps only to a spec equal to that one.

Usage (after changing ``TABLE1_SPECS`` or the design backends)::

    PYTHONPATH=src python scripts/gen_suite_taps.py

``tests/test_suite_taps.py`` calls :func:`render` and fails when the
checked-in module differs from a fresh design.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.filters.design import design_fir
from repro.filters.specs import FilterSpec

MODULE_PATH = Path(__file__).resolve().parents[1] / "src/repro/filters/suite_taps.py"

_HEADER = '''"""Float taps of the 12 Table-1 suite designs, checked in as data.

Generated by ``scripts/gen_suite_taps.py`` from ``design_fir``; do not edit
by hand.  Each entry pairs the spec a design was made for with its taps as
exact ``float.hex`` strings.  ``tests/test_suite_taps.py`` redesigns every
filter with scipy and fails if these drift.
"""

from .specs import BandType, DesignMethod, FilterSpec

SUITE_TAPS = (
'''

_PER_LINE = 3


def _render_spec(spec: FilterSpec) -> str:
    return (
        f"FilterSpec(name={spec.name!r}, band=BandType.{spec.band.name},\n"
        f"                   method=DesignMethod.{spec.method.name}, "
        f"numtaps={spec.numtaps},\n"
        f"                   passband={spec.passband!r}, "
        f"stopband={spec.stopband!r},\n"
        f"                   ripple_db={spec.ripple_db!r}, "
        f"atten_db={spec.atten_db!r}),"
    )


def render(specs: Sequence[FilterSpec]) -> str:
    """Design every spec and return the data module's source text."""
    lines = [_HEADER]
    for spec in specs:
        hexes = [float(t).hex() for t in design_fir(spec)]
        lines.append("    (\n")
        lines.append(f"        {_render_spec(spec)}\n")
        lines.append("        (\n")
        for i in range(0, len(hexes), _PER_LINE):
            chunk = " ".join(f'"{h}",' for h in hexes[i:i + _PER_LINE])
            lines.append(f"            {chunk}\n")
        lines.append("        ),\n")
        lines.append("    ),\n")
    lines.append(")\n")
    return "".join(lines)


if __name__ == "__main__":
    from repro.filters.benchmarks import TABLE1_SPECS

    MODULE_PATH.write_text(render(TABLE1_SPECS))
