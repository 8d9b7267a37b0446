"""The SIDC colored multigraph (paper §2-§3.2).

Vertices are the filter's *primary coefficients* — odd positive integer
mantissas after odd-normalization (secondary coefficients, i.e. shifts of
another coefficient, have already been removed).  For every ordered vertex
pair ``(u, v)``, every shift ``L in 0..max_shift`` and every sign, the edge
``u -> v`` carries the SID coefficient

    xi = v - s * (u << L)        (s in {+1, -1})

meaning ``v * x = s * ((u * x) << L) + xi * x``.  All shifts of ``xi`` form a
**color class**; its odd positive representative is the **primary color**.
Selecting a primary color makes every edge of its class free (the product
``color * x`` is computed once in the SEED network and reused, shifts being
wires), so the paper's optimization reduces to covering all vertices with the
cheapest set of primary colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import GraphError
from ..numrep import Representation, adder_cost, digit_cost, oddpart
from ..obs import span as obs_span
from .setcover import CoverIndex

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget

__all__ = ["ColorEdge", "ColoredGraph", "build_colored_graph"]


@dataclass(frozen=True)
class ColorEdge:
    """One directed SIDC edge ``src -> dst``.

    The reconstruction identity is::

        dst == src_sign * (src << shift) + color_sign * (color << color_shift)

    where ``color`` is the primary (odd, positive) color of the edge's class.
    ``weight`` is the digit cost of the color — the paper's edge weight
    ``e_{i,j}`` (adder arrays needed for the correction product).
    """

    src: int
    dst: int
    shift: int
    src_sign: int
    color: int
    color_shift: int
    color_sign: int
    weight: int

    def __post_init__(self) -> None:
        reconstructed = (
            self.src_sign * (self.src << self.shift)
            + self.color_sign * (self.color << self.color_shift)
        )
        if reconstructed != self.dst:
            raise GraphError(
                f"inconsistent edge: {self.src_sign}*({self.src}<<{self.shift}) "
                f"+ {self.color_sign}*({self.color}<<{self.color_shift}) != {self.dst}"
            )


class ColoredGraph:
    """Immutable SIDC graph over a vertex set of odd positive integers.

    Exposes exactly what the MRP stages need:

    * ``color_sets``   — primary color -> vertices coverable by its class
    * ``color_costs``  — primary color -> digit cost in the chosen representation
    * ``edges_by_color`` — primary color -> the concrete edges, for spanning-
      tree construction after the cover is chosen
    * ``colors_of_vertex`` — reverse index: the colors with an edge into a vertex
    * ``cover_index`` — the greedy cover's β-invariant state, built once
    """

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[ColorEdge],
        representation: Representation,
        max_shift: int,
    ):
        self._vertices: FrozenSet[int] = frozenset(vertices)
        for v in self._vertices:
            if v <= 0 or v % 2 == 0:
                raise GraphError(f"vertex {v} must be odd and positive")
        self._representation = representation
        self._max_shift = max_shift
        self._edges_by_color: Dict[int, List[ColorEdge]] = {}
        self._color_sets: Dict[int, Set[int]] = {}
        self._colors_of_vertex: Dict[int, Set[int]] = {v: set() for v in self._vertices}
        self._edges_into_by_color: Dict[int, Dict[int, List[ColorEdge]]] = {
            v: {} for v in self._vertices
        }
        for edge in edges:
            self._edges_by_color.setdefault(edge.color, []).append(edge)
            self._color_sets.setdefault(edge.color, set()).add(edge.dst)
            self._colors_of_vertex[edge.dst].add(edge.color)
            self._edges_into_by_color[edge.dst].setdefault(edge.color, []).append(edge)
        self._color_costs: Dict[int, int] = {
            color: digit_cost(color, representation) for color in self._color_sets
        }
        self._cover_indexes: Dict[str, CoverIndex] = {}

    @classmethod
    def _from_prebuilt(
        cls,
        vertices: Iterable[int],
        representation: Representation,
        max_shift: int,
        edges_by_color: Dict[int, List[ColorEdge]],
        color_sets: Dict[int, Set[int]],
        colors_of_vertex: Dict[int, Set[int]],
        edges_into_by_color: Dict[int, Dict[int, List[ColorEdge]]],
        color_costs: Dict[int, int],
    ) -> "ColoredGraph":
        """Trusted constructor for the fast-path builder.

        :mod:`repro.fastpath.graphbuild` assembles the index dictionaries in
        its single edge pass; re-deriving them here (as ``__init__`` does)
        would double the build time for no information.  Callers guarantee
        the dictionaries are mutually consistent and that ``color_costs``
        matches ``digit_cost`` — the fast-path equivalence suite holds them
        to it.
        """
        graph = cls.__new__(cls)
        graph._vertices = frozenset(vertices)
        graph._representation = representation
        graph._max_shift = max_shift
        graph._edges_by_color = edges_by_color
        graph._color_sets = color_sets
        graph._colors_of_vertex = colors_of_vertex
        graph._edges_into_by_color = edges_into_by_color
        graph._color_costs = color_costs
        graph._cover_indexes = {}
        return graph

    @property
    def vertices(self) -> FrozenSet[int]:
        """The graph's vertex set (odd positive integers)."""
        return self._vertices

    @property
    def representation(self) -> Representation:
        """Digit representation used for color costs."""
        return self._representation

    @property
    def max_shift(self) -> int:
        """Maximum shift used during quantization or graph build."""
        return self._max_shift

    @property
    def colors(self) -> FrozenSet[int]:
        """All primary colors present in the graph."""
        return frozenset(self._color_sets)

    @property
    def num_edges(self) -> int:
        """Total number of colored edges."""
        return sum(len(edges) for edges in self._edges_by_color.values())

    def color_set(self, color: int) -> FrozenSet[int]:
        """Vertices reachable via any edge of ``color``'s class (its *color set*)."""
        return frozenset(self._color_sets[color])

    def color_cost(self, color: int) -> int:
        """Digit cost of the primary color (paper's ``cost`` property)."""
        return self._color_costs[color]

    def color_frequency(self, color: int) -> int:
        """Size of the color set (paper's ``frequency`` property)."""
        return len(self._color_sets[color])

    def colors_of_vertex(self, vertex: int) -> FrozenSet[int]:
        """Primary colors having at least one edge into ``vertex``."""
        return frozenset(self._colors_of_vertex[vertex])

    def edges_of_color(self, color: int) -> Tuple[ColorEdge, ...]:
        """All concrete edges whose class representative is ``color``."""
        return tuple(self._edges_by_color[color])

    def cover_index(self, strategy: str = "benefit") -> CoverIndex:
        """The greedy cover's index over this graph for ``strategy``, built once.

        Its universe is the vertex set, its costs the float digit costs, and
        its sets a read-only mapping over the graph's own color sets: the
        sets themselves are not copied (freezing them all costs about as much
        as building the index), so callers must not mutate them.  Under
        ``"savings"`` covering vertex ``v`` replaces its direct digit chain
        with one overhead adder, saving ``adder_cost(v) - 1``; the index
        weights each vertex accordingly.  ``"benefit"`` counts vertices (no
        weights).
        """
        index = self._cover_indexes.get(strategy)
        if index is None:
            if strategy == "savings":
                weights = {
                    v: max(0.0, adder_cost(v, self._representation) - 1.0)
                    for v in self._vertices
                }
            elif strategy == "benefit":
                weights = None
            else:
                raise GraphError(f"unknown cover strategy {strategy!r}")
            index = CoverIndex(
                self._vertices,
                MappingProxyType(self._color_sets),
                MappingProxyType({
                    color: float(cost) for color, cost in self._color_costs.items()
                }),
                weights,
            )
            self._cover_indexes[strategy] = index
        return index

    def edges_into(self, vertex: int, allowed_colors: Set[int]) -> List[ColorEdge]:
        """Edges terminating at ``vertex`` whose color lies in ``allowed_colors``."""
        by_color = self._edges_into_by_color[vertex]
        found: List[ColorEdge] = []
        for color in by_color.keys() & allowed_colors:
            found.extend(by_color[color])
        return found


def build_colored_graph(
    vertices: Iterable[int],
    max_shift: int,
    representation: Representation = Representation.CSD,
    budget: Optional["SolverBudget"] = None,
) -> ColoredGraph:
    """Construct the full SIDC graph over ``vertices``.

    For ``M`` vertices this materializes up to ``2 * (max_shift + 1) * M *
    (M - 1)`` colored edges (paper §3.1).  Edges whose SID coefficient is zero
    are skipped — a zero color means ``dst`` is a shift of ``src``, which
    cannot happen between distinct odd vertices.  The optional cooperative
    ``budget`` is charged per vertex pair so oversized builds raise
    :class:`~repro.errors.BudgetExceeded` instead of stalling the pipeline.

    Construction normally runs through the batch kernels of
    :mod:`repro.fastpath.graphbuild` (numpy when available, pure python
    otherwise), which produce the identical graph several times faster;
    ``REPRO_FASTPATH=off`` selects this module's reference loop instead.
    The equivalence suite (``tests/test_fastpath_equivalence.py``) asserts
    the two paths are element-identical.
    """
    vertex_list = sorted(set(vertices))
    if max_shift < 0:
        raise GraphError(f"max_shift must be >= 0, got {max_shift}")
    from ..fastpath import graph_kernel

    kernel = graph_kernel()
    with obs_span(
        "graph.build",
        vertices=len(vertex_list),
        max_shift=max_shift,
        representation=representation.value,
        kernel=kernel,
    ):
        if kernel == "off":
            return _build_edges(vertex_list, max_shift, representation, budget)
        from ..fastpath.graphbuild import build_graph_fast

        return build_graph_fast(
            vertex_list, max_shift, representation, budget, kernel
        )


def _build_edges(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
    budget: Optional["SolverBudget"],
) -> ColoredGraph:
    edges: List[ColorEdge] = []
    for src in vertex_list:
        for dst in vertex_list:
            if src == dst:
                continue
            if budget is not None:
                budget.spend()
            for shift in range(max_shift + 1):
                shifted = src << shift
                for src_sign in (1, -1):
                    xi = dst - src_sign * shifted
                    if xi == 0:
                        continue
                    color_sign = 1 if xi > 0 else -1
                    magnitude = abs(xi)
                    primary = abs(oddpart(magnitude))
                    color_shift = (magnitude // primary).bit_length() - 1
                    edges.append(
                        ColorEdge(
                            src=src,
                            dst=dst,
                            shift=shift,
                            src_sign=src_sign,
                            color=primary,
                            color_shift=color_shift,
                            color_sign=color_sign,
                            weight=digit_cost(primary, representation),
                        )
                    )
    return ColoredGraph(vertex_list, edges, representation, max_shift)
