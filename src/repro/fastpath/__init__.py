"""Fast-path kernels: vectorized graph build, memoized tables, column simulation.

The synthesis hot path spends almost all of its time in two places (see
``benchmarks/results/BENCH_sweep_baseline.json``): constructing the SIDC
colored multigraph (per-edge CSD re-encoding dominates) and re-running the
recursive MSD enumeration for coefficients that repeat across a sweep.  The
robust path adds a third: the release audit simulating every candidate
netlist.  This package provides drop-in fast kernels for all three:

* :mod:`repro.fastpath.digitcost` — branch-free digit-cost functions
  (``popcount``-identity CSD weights) used instead of building a
  :class:`~repro.numrep.SignedDigits` string per color.
* :mod:`repro.fastpath.graphbuild` — the colored graph built as flat
  per-edge columns (primary color, color shift, color sign) by a numpy
  kernel (int64 broadcasting + ``np.bitwise_count``) or a pure-python
  fallback, grouped into color sets in one shared pass; the graph makes
  edge objects only for the colors the spanning forest asks for.
* :mod:`repro.fastpath.msdtables` — snapshot/restore/warm helpers around the
  process-local MSD digit table kept by :mod:`repro.numrep.msd`, so sweep
  workers inherit the parent's warmed tables at fork (or via the pool
  initializer under spawn).
* :mod:`repro.fastpath.tdfsim` — the release audit's simulators as columns:
  the exact and finite-wordlength TDF runs and the exhaustive block sweep
  evaluate every node, tap and register over the whole stimulus as one
  int64 array instead of one Python step per node per cycle.  It needs only
  basic int64 ops, so every mode except ``off`` uses it, whatever the
  numpy release; a static magnitude bound sends any run that could leave
  int64 to the reference loop.

Every kernel is provably equivalent to the reference implementation it
replaces — ``tests/test_fastpath_equivalence.py`` asserts element-identical
edge sets and enumerations under hypothesis, and byte-identical sweep
exports; ``tests/test_simulate_columnar.py`` holds the column simulators to
the per-cycle loops — and the reference code paths remain in place,
selectable at runtime.

Mode selection
--------------

The ``REPRO_FASTPATH`` environment variable picks the kernel:

``auto`` (default)
    numpy graph kernel when a capable numpy is importable, else pure python.
``numpy``
    force the numpy graph kernel (falls back to python if numpy is unusable).
``python``
    force the pure-python graph kernel (how CI exercises the fallback).
``off``
    disable every fast path; run the original reference implementations.

The MSD tables and the column simulators are on in every mode but ``off``.

:func:`set_mode` overrides the environment for the current process (used by
tests, benchmarks, and the CLI ``--fastpath`` flag).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "KERNEL_VERSION",
    "MODES",
    "fastpath_info",
    "graph_kernel",
    "msd_tables_enabled",
    "numpy_usable",
    "resolve_mode",
    "set_mode",
    "tdfsim_enabled",
]

#: Bump when a fast kernel's output could have differed from the reference
#: (i.e. an equivalence bug was fixed).  Folded into the disk-cache version
#: tag so results computed by a buggy kernel are orphaned at once.
KERNEL_VERSION = 1

MODES = ("auto", "numpy", "python", "off")

#: Process-local override installed by :func:`set_mode`; ``None`` defers to
#: the environment.
_MODE_OVERRIDE: Optional[str] = None

#: Memoized result of the numpy capability probe (``None`` = not probed).
_NUMPY_USABLE: Optional[bool] = None


def numpy_usable() -> bool:
    """True when numpy is importable and has the int64 ops the kernel needs.

    The numpy graph kernel requires ``np.bitwise_count`` (numpy >= 2.0) for
    exact integer popcounts; an older numpy is treated as absent rather than
    risking an inexact float detour.
    """
    global _NUMPY_USABLE
    if _NUMPY_USABLE is None:
        try:
            import numpy as np

            _NUMPY_USABLE = hasattr(np, "bitwise_count")
        except ImportError:
            _NUMPY_USABLE = False
    return _NUMPY_USABLE


def set_mode(mode: Optional[str]) -> None:
    """Override the fast-path mode for this process (``None`` = environment).

    Raises ``ValueError`` for an unknown mode so a typo in a test or CLI flag
    fails loudly instead of silently running the wrong kernel.
    """
    global _MODE_OVERRIDE
    if mode is not None and mode not in MODES:
        raise ValueError(f"unknown fastpath mode {mode!r}; choose from {MODES}")
    _MODE_OVERRIDE = mode


def resolve_mode() -> str:
    """The requested mode: override, then ``REPRO_FASTPATH``, then ``auto``."""
    if _MODE_OVERRIDE is not None:
        return _MODE_OVERRIDE
    raw = os.environ.get("REPRO_FASTPATH", "auto").strip().lower()
    return raw if raw in MODES else "auto"


def graph_kernel() -> str:
    """The effective graph-build kernel: ``numpy``, ``python``, or ``off``."""
    mode = resolve_mode()
    if mode == "off":
        return "off"
    if mode == "python":
        return "python"
    # auto and numpy both prefer numpy when it is actually usable.
    return "numpy" if numpy_usable() else "python"


def msd_tables_enabled() -> bool:
    """Whether MSD enumerations are served from the process-local table."""
    return resolve_mode() != "off"


def tdfsim_enabled() -> bool:
    """Whether TDF simulation runs on :mod:`repro.fastpath.tdfsim` columns."""
    return resolve_mode() != "off"


def fastpath_info() -> Dict[str, object]:
    """JSON-friendly snapshot of the fast-path configuration and table state."""
    from .msdtables import table_stats

    return {
        "mode": resolve_mode(),
        "graph_kernel": graph_kernel(),
        "msd_tables": msd_tables_enabled(),
        "numpy_usable": numpy_usable(),
        "kernel_version": KERNEL_VERSION,
        "msd_table": table_stats(),
    }
