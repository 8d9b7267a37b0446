"""Batch construction of the SIDC colored multigraph, as flat columns.

Equivalent to :func:`repro.graph.colored._build_edges` — same edges, same
fields, same order — but it makes no per-edge or per-color object.  A numpy
kernel computes four flat columns over all ``2 * (max_shift + 1) * M *
(M - 1)`` edges in the reference order ``(src, dst, shift, sign)``, the
``src == dst`` pairs left out: each edge's primary color, color shift,
color sign and color digit cost.  One pass, :func:`_incidence`, then sorts
the primary column into the deduplicated (color, vertex) incidence in CSR
form, and the columns become a :class:`~repro.graph.colored.ColumnarGraph`,
which answers the color-set queries from the incidence and makes
:class:`~repro.graph.colored.ColorEdge` objects only for the edges the
spanning forest asks for.

Against the reference loop:

* the per-edge CSD re-encoding is replaced by a popcount: by Reitwiesner's
  classical result the nonzero digits of the non-adjacent (CSD) form of
  ``n >= 0`` sit exactly at the set bits of ``n ^ 3n``, and the SM digit
  count is ``popcount(n)``;
* ``oddpart``'s trial division becomes the two's-complement trailing-zero
  trick ``mag & -mag``;
* the columns are int64 broadcasting, so every value must stay below
  ``_NUMPY_VALUE_BOUND``; :func:`fits_int64` says whether a vertex set
  does, and :func:`~repro.graph.colored.build_colored_graph` builds one
  that does not with the reference loop;
* the color sets are one ``np.lexsort`` over (color, vertex) instead of one
  Python set per color.

Column order is bit-for-bit the reference order, so every edge list the
graph hands out — and therefore every exported artifact — is unchanged.
``tests/test_fastpath_equivalence.py`` locks this down.

The cooperative ``budget`` is charged one node per ordered vertex pair, as
the reference charges it, in one ``spend_units`` call after the columns are
computed: an exhausted budget still raises at the same node count with the
same message, merely after the column arithmetic instead of before it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from ..errors import GraphError
from ..numrep import Representation

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    import numpy as np

    from ..graph.colored import ColumnarGraph
    from ..robust.budget import SolverBudget

__all__ = ["Incidence", "build_graph_fast", "fits_int64"]

#: Values at or above this bound leave the numpy int64 comfort zone
#: (``3 * xi`` must not overflow).
_NUMPY_VALUE_BOUND = 1 << 60

#: The kernel's output, one entry per edge: primary color, color shift,
#: color sign and the primary color's digit cost.
_Columns = Tuple["np.ndarray", List[int], List[int], "np.ndarray"]


class Incidence(NamedTuple):
    """The deduplicated (color, vertex) incidence in CSR form, sorted by color.

    Color ``colors[i]`` covers the vertices at indices
    ``members[starts[i]:starts[i + 1]]`` (ascending) and costs
    ``costs[i]`` digits.  ``appearance`` lists the color slots in the order
    the colors first appear in the edge column, which is the order the
    reference graph inserts them.  Every column is int64.
    """

    colors: "np.ndarray"
    starts: "np.ndarray"
    members: "np.ndarray"
    costs: "np.ndarray"
    appearance: "np.ndarray"


def fits_int64(vertex_list: List[int], max_shift: int) -> bool:
    """Whether every SID coefficient over ``vertex_list`` stays in int64."""
    if not vertex_list:
        return True
    top = max(vertex_list)
    return (top << max_shift) + top < _NUMPY_VALUE_BOUND


def build_graph_fast(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
    budget: Optional["SolverBudget"],
) -> "ColumnarGraph":
    """Build the full SIDC graph with the numpy kernel.

    ``vertex_list`` must be sorted, deduplicated odd positive integers —
    the same precondition the reference path enforces, checked here up
    front so a bad vertex fails before any bulk work — and must pass
    :func:`fits_int64`.
    """
    from ..graph.colored import ColumnarGraph

    for v in vertex_list:
        if v <= 0 or v % 2 == 0:
            raise GraphError(f"vertex {v} must be odd and positive")
    if not fits_int64(vertex_list, max_shift):
        raise GraphError(
            "vertex values leave int64; build the graph with the reference loop"
        )
    primary, color_shifts, color_signs, weight = _columns_numpy(
        vertex_list, max_shift, representation
    )
    if budget is not None:
        budget.spend_units(len(vertex_list) * (len(vertex_list) - 1))
    incidence = _incidence(
        primary, weight, len(vertex_list), 2 * (max_shift + 1)
    )
    return ColumnarGraph(
        vertex_list, representation, max_shift, primary.tolist(),
        color_shifts, color_signs, incidence,
    )


def _incidence(
    color: "np.ndarray",
    weight: "np.ndarray",
    vertex_count: int,
    per_pair: int,
) -> Incidence:
    """Sort the primary column into the (color, vertex) incidence.

    Edge ``k`` ends at the ``k // per_pair``-th off-diagonal ``(src, dst)``
    pair.  A stable lexsort on (color, dst) puts every (color, vertex)
    incidence in one run, its edges in column order; the first edge of each
    run is kept.
    """
    import numpy as np

    dst = np.repeat(
        np.nonzero(~np.eye(vertex_count, dtype=bool))[1], per_pair
    )
    order = np.lexsort((dst, color))
    color, dst = color[order], dst[order]
    new_color = np.ones(len(order), dtype=bool)
    new_color[1:] = color[1:] != color[:-1]
    fresh = new_color.copy()
    fresh[1:] |= dst[1:] != dst[:-1]
    color_heads = np.flatnonzero(new_color)
    # Each color's first edge: the smallest column position in its run.
    first_edge = (
        np.minimum.reduceat(order, color_heads) if len(order) else order
    )
    return Incidence(
        colors=color[color_heads],
        starts=np.append(np.flatnonzero(new_color[fresh]), fresh.sum()),
        members=dst[fresh],
        costs=weight[first_edge].astype(np.int64),
        appearance=np.argsort(first_edge, kind="stable"),
    )


def _columns_numpy(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
) -> _Columns:
    """Vectorized kernel: int64 broadcast arithmetic.

    The primary and weight columns stay arrays for the incidence pass; the
    color shifts and signs, which only edge construction reads, become
    lists.

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
    return (
        primary.ravel(),
        color_shift.ravel().tolist(),
        np.where(xi < 0, -1, 1).ravel().tolist(),
        weight.ravel(),
    )
