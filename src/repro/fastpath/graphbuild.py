"""Batch construction of the SIDC colored multigraph, as flat columns.

Equivalent to :func:`repro.graph.colored._build_edges` — same edges, same
fields, same order — but it makes no per-edge object.  A kernel computes
three flat columns over all ``2 * (max_shift + 1) * M * (M - 1)`` edges in
the reference order ``(src, dst, shift, sign)``, the ``src == dst`` pairs
left out: each edge's primary color, color shift and color sign.  It also
collects each color's digit cost.  One shared pass then groups the primary
column into the color sets, and the columns become a
:class:`~repro.graph.colored.ColumnarGraph`, which makes
:class:`~repro.graph.colored.ColorEdge` objects only for the edges the
spanning forest asks for.

Against the reference loop:

* the per-edge CSD re-encoding is replaced by the popcount digit-cost
  kernels of :mod:`repro.fastpath.digitcost`, once per distinct color;
* ``oddpart``'s trial division becomes the two's-complement trailing-zero
  trick ``mag & -mag``;
* with a capable numpy, the columns and the digit costs are computed by
  int64 broadcasting; the pure-python kernel computes the same columns over
  precomputed shift tables.

Column order is bit-for-bit the reference order, so every edge list the
graph hands out — and therefore every exported artifact — is unchanged.
``tests/test_fastpath_equivalence.py`` locks this down.

The cooperative ``budget`` is charged once per ordered vertex pair exactly
like the reference, in the grouping pass.  Both kernels compute their
columns before the first checkpoint, so an exhausted budget still raises at
the same node count, merely after the column arithmetic instead of before
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..errors import GraphError
from ..numrep import Representation
from .digitcost import fast_cost_fn

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..graph.colored import ColumnarGraph
    from ..robust.budget import SolverBudget

__all__ = ["build_graph_fast"]

#: Values at or above this bound leave the numpy int64 comfort zone
#: (``3 * xi`` must not overflow); the builder silently drops to the
#: pure-python kernel, which works on arbitrary-precision ints.
_NUMPY_VALUE_BOUND = 1 << 60

#: A kernel's output: primary colors, color shifts and color signs per
#: edge, and each primary color's digit cost (first-appearance order).
_Columns = Tuple[List[int], List[int], List[int], Dict[int, int]]


def build_graph_fast(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
    budget: Optional["SolverBudget"],
    kernel: str,
) -> "ColumnarGraph":
    """Build the full SIDC graph with the requested fast kernel.

    ``vertex_list`` must be sorted, deduplicated odd positive integers —
    the same precondition the reference path enforces, checked here up
    front so a bad vertex fails before any bulk work.
    """
    from ..graph.colored import ColumnarGraph

    for v in vertex_list:
        if v <= 0 or v % 2 == 0:
            raise GraphError(f"vertex {v} must be odd and positive")
    use_numpy = kernel == "numpy" and len(vertex_list) >= 2 and (
        (max(vertex_list) << max_shift) + max(vertex_list) < _NUMPY_VALUE_BOUND
    )
    columns = _columns_numpy if use_numpy else _columns_python
    primaries, color_shifts, color_signs, costs = columns(
        vertex_list, max_shift, representation
    )
    color_sets = _group(vertex_list, 2 * (max_shift + 1), primaries, budget)
    return ColumnarGraph(
        vertex_list, representation, max_shift, primaries, color_shifts,
        color_signs, color_sets, costs,
    )


def _group(
    vertex_list: List[int],
    per_pair: int,
    primaries: List[int],
    budget: Optional["SolverBudget"],
) -> Dict[int, Set[int]]:
    """Color sets from the primary column, charging one node per vertex pair.

    Colors and their members are inserted in edge order, as the reference
    graph inserts them.
    """
    color_sets: Dict[int, Set[int]] = {}
    members_of = color_sets.get
    start = 0
    for src in vertex_list:
        for dst in vertex_list:
            if dst == src:
                continue
            if budget is not None:
                budget.spend()
            end = start + per_pair
            for color in primaries[start:end]:
                members = members_of(color)
                if members is None:
                    color_sets[color] = {dst}
                else:
                    members.add(dst)
            start = end
    return color_sets


def _columns_python(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
) -> _Columns:
    """Pure-python kernel over precomputed shift tables."""
    cost = fast_cost_fn(representation)
    primaries: List[int] = []
    color_shifts: List[int] = []
    color_signs: List[int] = []
    costs: Dict[int, int] = {}
    shift_range = range(max_shift + 1)
    for src in vertex_list:
        shifted_tab = [src << s for s in shift_range]
        for dst in vertex_list:
            if dst == src:
                continue
            for shifted in shifted_tab:
                # src_sign +1, then -1; neither xi is zero between distinct
                # odd vertices.
                for xi in (dst - shifted, dst + shifted):
                    if xi > 0:
                        color_signs.append(1)
                        magnitude = xi
                    else:
                        color_signs.append(-1)
                        magnitude = -xi
                    color_shift = (magnitude & -magnitude).bit_length() - 1
                    primary = magnitude >> color_shift
                    primaries.append(primary)
                    color_shifts.append(color_shift)
                    if primary not in costs:
                        costs[primary] = cost(primary)
    return primaries, color_shifts, color_signs, costs


def _columns_numpy(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
) -> _Columns:
    """Vectorized kernel: int64 broadcast arithmetic, one list per column.

    Shapes are ``(M, M, S, 2)`` indexed ``[src][dst][shift][sign]`` with
    sign index 0 for ``src_sign=+1`` and 1 for ``-1``; dropping the
    ``src == dst`` pairs and walking the rest in C order is the reference
    iteration order.
    """
    import numpy as np

    v = np.asarray(vertex_list, dtype=np.int64)
    shifts = np.arange(max_shift + 1, dtype=np.int64)
    shifted = v[:, None] << shifts[None, :]  # (M, S)
    base = v[None, :, None]  # broadcasts over (M, M, S)
    xi_plus = base - shifted[:, None, :]
    xi_minus = base + shifted[:, None, :]
    keep = ~np.eye(len(vertex_list), dtype=bool)
    xi = np.stack((xi_plus, xi_minus), axis=-1)[keep]  # (M*(M-1), S, 2)
    magnitude = np.abs(xi)
    # popcount(low_bit - 1) == count of trailing zeros (magnitude > 0).
    color_shift = np.bitwise_count((magnitude & -magnitude) - 1).astype(np.int64)
    primary = magnitude >> color_shift
    if representation is Representation.CSD:
        weight = np.bitwise_count(primary ^ (3 * primary))
    else:
        weight = np.bitwise_count(primary)
    primaries = primary.ravel().tolist()
    # dict() keeps each color's first position; all of its weights agree.
    costs = dict(zip(primaries, weight.astype(np.int64).ravel().tolist()))
    return (
        primaries,
        color_shift.ravel().tolist(),
        np.where(xi < 0, -1, 1).ravel().tolist(),
        costs,
    )
