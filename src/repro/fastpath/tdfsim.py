"""Columnar TDF simulation: the whole stimulus as one int64 column per wire.

A TDF filter's multiplier block is a combinational, linear map of the one
scalar input ``x(n)`` — the paper's vector scaling view.  So instead of
walking every node, tap and register once per cycle, this kernel evaluates
the block over the whole stimulus at once:

* one array op per DAG node: ``a_sign * (col[a] << a_shift) + b_sign *
  (col[b] << b_shift)``;
* one column per tap product;
* the register chain built from the last register down,
  ``reg_k(n) = p_{k+1}(n) + reg_{k+1}(n-1)``, then
  ``y(n) = p_0(n) + reg_0(n-1)``.

The finite-wordlength run applies ``wrap`` / ``saturate`` / ``error``
elementwise at every site, each site's raw column computed from the
already-fitted columns exactly as the per-cycle loop does.  Overflows are
reported in the loop's order — cycle first, then site (``node:0..N-1``,
``tap:*``, ``out``, ``reg:0..``) — and ``error`` mode raises the earliest
one.  Every value up to that first overflow depends only on earlier,
in-range values, so it is exact; what the columns hold after it is never
read.

int64 is exact only while no intermediate can reach ``2^63``.  Each entry
point first propagates a static magnitude bound per site — from the largest
input magnitude, the netlist's shifts and (fixed point) the declared widths
— and returns ``None`` when any bound reaches ``2^62`` or an input is not a
plain ``int``; the caller then runs its per-cycle reference loop, which
stays the oracle (``tests/test_simulate_columnar.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EquivalenceViolation, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..arch.netlist import ShiftAddNetlist
    from ..arch.nodes import Ref

__all__ = ["exact_outputs", "exhaustive_check", "fixed_run"]

#: Every static per-site magnitude bound must stay below this for the int64
#: columns to be exact (a sum of two in-bound terms still fits in 63 bits).
_BOUND = 1 << 62

#: One overflow as ``(site, cycle, raw value, width)``.
Overflow = Tuple[str, int, int, int]


def _wire(col: np.ndarray, ref: "Ref") -> np.ndarray:
    """``ref.value`` over a column: ``sign * (col << shift)``."""
    shifted = col << ref.shift if ref.shift else col
    return -shifted if ref.sign < 0 else shifted


def _delayed(col: Optional[np.ndarray], n: int) -> np.ndarray:
    """``col(n-1)``, reading 0 at cycle 0 and for an absent register."""
    out = np.zeros(n, dtype=np.int64)
    if col is not None:
        out[1:] = col[:-1]
    return out


def _node_bounds(
    netlist: "ShiftAddNetlist",
    peak: int,
    widths: Optional[Sequence[int]] = None,
) -> Optional[Tuple[List[int], List[int]]]:
    """Per-node ``(raw, fitted)`` output magnitude bounds, or ``None`` when
    a raw bound reaches :data:`_BOUND`.

    A node's raw sum is bounded by its operands' *fitted* bounds shifted;
    with ``widths`` a fitted bound is capped at what the width holds.
    """
    raws: List[int] = []
    fitted: List[int] = []
    for node in netlist.nodes:
        if node.is_input:
            raw = peak
        else:
            raw = (fitted[node.a.node] << node.a.shift) + (
                fitted[node.b.node] << node.b.shift
            )
        if raw >= _BOUND:
            return None
        raws.append(raw)
        if widths is not None:
            raw = min(raw, 1 << (widths[node.id] - 1))
        fitted.append(raw)
    return raws, fitted


def _node_columns(
    netlist: "ShiftAddNetlist", x: np.ndarray, fit=None
) -> List[np.ndarray]:
    """Every node's output column in id order, each passed through
    ``fit(node_id, raw)`` when given."""
    cols: List[np.ndarray] = []
    for node in netlist.nodes:
        if node.is_input:
            raw = x
        else:
            raw = _wire(cols[node.a.node], node.a) + _wire(
                cols[node.b.node], node.b
            )
        cols.append(raw if fit is None else fit(node.id, raw))
    return cols


def _plain_ints(values: Sequence[int]) -> bool:
    return all(isinstance(v, int) for v in values)


def exact_outputs(
    netlist: "ShiftAddNetlist",
    tap_names: Sequence[str],
    samples: Sequence[int],
) -> Optional[List[int]]:
    """Unbounded-int TDF outputs at zero pipeline latency, or ``None`` to
    run the reference loop instead."""
    if not _plain_ints(samples):
        return None
    n = len(samples)
    if n == 0:
        return []
    refs = netlist.tap_refs(tap_names)
    bounds = _node_bounds(netlist, max(abs(s) for s in samples))
    if bounds is None:
        return None
    # The output and every register sum a subset of the tap products.
    fitted = bounds[1]
    peak_y = sum(fitted[r.node] << r.shift for r in refs if r is not None)
    if peak_y >= _BOUND:
        return None
    cols = _node_columns(netlist, np.array(samples, dtype=np.int64))
    y = np.zeros(n, dtype=np.int64)
    for k, ref in enumerate(refs[:n]):
        if ref is not None:
            y[k:] += _wire(cols[ref.node], ref)[: n - k]
    return y.tolist()


class _Sites:
    """Fits raw columns to signed widths; remembers where they overflowed."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        #: ``(site order, site, width, raw column, overflow mask)``
        self.flagged: List[Tuple[int, str, int, np.ndarray, np.ndarray]] = []

    def fit(
        self, order: int, site: str, raw: np.ndarray, bound: int, width: int
    ) -> np.ndarray:
        hi = (1 << (width - 1)) - 1
        if bound <= hi:
            return raw  # nothing this site can hold overflows
        lo = -hi - 1
        mask = (raw < lo) | (raw > hi)
        if not mask.any():
            return raw
        self.flagged.append((order, site, width, raw, mask))
        if self.mode == "saturate":
            return np.clip(raw, lo, hi)
        if self.mode == "wrap":
            return ((raw - lo) & ((1 << width) - 1)) + lo
        return raw  # error: the loop keeps the raw value and raises

    def events(self, first_only: bool) -> List[Overflow]:
        """Every overflow (or only the earliest) in the loop's cycle-then-site
        order."""
        found = sorted(
            (cycle, order, site, int(raw[cycle]), width)
            for order, site, width, raw, mask in self.flagged
            for cycle in np.flatnonzero(mask).tolist()
        )
        if first_only:
            found = found[:1]
        return [(site, c, value, width) for c, _, site, value, width in found]


def fixed_run(
    netlist: "ShiftAddNetlist",
    tap_names: Sequence[str],
    refs: Sequence[Optional["Ref"]],
    samples: Sequence[int],
    widths: Sequence[int],
    acc_width: int,
    overflow: str,
) -> Optional[Tuple[List[int], List[Overflow]]]:
    """The outputs and overflows of
    :func:`~repro.verify.fixedpoint.simulate_tdf_fixed` once its arguments
    are checked, or ``None`` to run the reference loop instead.

    In ``error`` mode only the earliest overflow is returned (the one the
    caller raises); the outputs are then meaningless.
    """
    if not _plain_ints([*widths, acc_width]) or min(*widths, acc_width) < 1:
        return None  # the loop raises from fit() at the first such site
    try:
        xs = [int(s) for s in samples]
    except (TypeError, ValueError, OverflowError):
        return None  # the loop raises it on that sample's cycle
    n = len(xs)
    if n == 0:
        return [], []
    bounds = _node_bounds(netlist, max(abs(s) for s in xs), widths)
    if bounds is None:
        return None
    node_raw, node_fitted = bounds
    acc_cap = 1 << (acc_width - 1)
    tap_raw = [
        0 if r is None else node_fitted[r.node] << r.shift for r in refs
    ]
    tap_fitted = [min(b, acc_cap) for b in tap_raw]
    # Raw bound of reg:k (k = -1 is the output adder): tap k+1 plus reg:k+1.
    chain_raw = [0] * len(refs)
    carried = 0
    for k in range(len(refs) - 2, -2, -1):
        chain_raw[k + 1] = tap_fitted[k + 1] + carried
        carried = min(chain_raw[k + 1], acc_cap)
    if max(tap_raw + chain_raw) >= _BOUND:
        return None

    sites = _Sites(overflow)
    cols = _node_columns(
        netlist,
        np.array(xs, dtype=np.int64),
        lambda i, raw: sites.fit(i, f"node:{i}", raw, node_raw[i], widths[i]),
    )
    zero = np.zeros(n, dtype=np.int64)
    num_nodes = len(cols)
    products = [
        sites.fit(
            num_nodes + k, f"tap:{name}",
            zero if ref is None else _wire(cols[ref.node], ref),
            tap_raw[k], acc_width,
        )
        for k, (name, ref) in enumerate(zip(tap_names, refs))
    ]
    out_order = num_nodes + len(refs)
    reg = None
    for k in range(len(refs) - 2, -1, -1):
        reg = sites.fit(
            out_order + 1 + k, f"reg:{k}",
            products[k + 1] + _delayed(reg, n), chain_raw[k + 1], acc_width,
        )
    y = sites.fit(
        out_order, "out", products[0] + _delayed(reg, n), chain_raw[0],
        acc_width,
    )
    return y.tolist(), sites.events(first_only=overflow == "error")


def exhaustive_check(
    netlist: "ShiftAddNetlist",
    tap_names: Sequence[str],
    coefficients: Sequence[int],
    lo: int,
    hi: int,
) -> Optional[int]:
    """Every sample in ``[lo, hi)`` through the block as one column.

    Checks each node against ``value * x`` and each tap against
    ``coefficient * x``; the first failing sample raises what the per-sample
    loop raises (a node's linearity failure before a tap mismatch).
    Returns the number of samples, or ``None`` to run the loop instead.
    """
    if not _plain_ints(coefficients):
        return None
    peak = max(-lo, hi - 1)
    bounds = _node_bounds(netlist, peak)
    declared = [abs(node.value) for node in netlist.nodes] + [
        abs(c) for c in coefficients
    ]
    if bounds is None or max(declared) * peak >= _BOUND:
        return None
    refs = netlist.tap_refs(tap_names)
    fitted = bounds[1]
    if any(
        r is not None and fitted[r.node] << r.shift >= _BOUND for r in refs
    ):
        return None
    x = np.arange(lo, hi, dtype=np.int64)
    cols = _node_columns(netlist, x)
    inner = netlist.nodes[1:]
    zero = np.zeros(len(x), dtype=np.int64)
    products = [zero if r is None else _wire(cols[r.node], r) for r in refs]
    bad_masks = [cols[node.id] != node.value * x for node in inner] + [
        p != c * x for p, c in zip(products, coefficients)
    ]
    failures = [
        (int(bad.argmax()), order)
        for order, bad in enumerate(bad_masks)
        if bad.any()
    ]
    if not failures:
        return len(x)
    at, order = min(failures)
    sample = lo + at
    if order < len(inner):
        node = inner[order]
        raise SimulationError(
            f"node {node.id}: computed {int(cols[node.id][at])}, "
            f"expected {node.value} * {sample}"
        )
    k = order - len(inner)
    coefficient = coefficients[k]
    raise EquivalenceViolation(
        f"tap {tap_names[k]!r} computes {int(products[k][at])} for sample "
        f"{sample}, expected {coefficient} * {sample} = "
        f"{coefficient * sample}"
    )
