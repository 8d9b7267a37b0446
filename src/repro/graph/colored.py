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
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import GraphError
from ..numrep import Representation, adder_cost, digit_cost, oddpart
from ..obs import span as obs_span
from .setcover import CoverIndex

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget

__all__ = ["ColorEdge", "ColoredGraph", "ColumnarGraph", "build_colored_graph"]


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
    * ``edges_of_color`` — primary color -> the concrete edges, for spanning-
      tree construction after the cover is chosen
    * ``colors_of_vertex`` — reverse index: the colors with an edge into a vertex
    * ``cover_inputs`` — read-only views of the color sets and float costs
    * ``cover_index`` — the greedy cover's β-invariant state, built once

    This class holds every edge as a :class:`ColorEdge`, indexed eagerly;
    the reference build (``REPRO_FASTPATH=off``) returns it.  The fast
    kernels return a :class:`ColumnarGraph`, which answers the same queries
    from flat per-edge columns and makes edges only when asked for them.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[ColorEdge],
        representation: Representation,
        max_shift: int,
    ):
        vertex_set: FrozenSet[int] = frozenset(vertices)
        for v in vertex_set:
            if v <= 0 or v % 2 == 0:
                raise GraphError(f"vertex {v} must be odd and positive")
        self._edges_by_color: Dict[int, List[ColorEdge]] = {}
        color_sets: Dict[int, Set[int]] = {}
        self._colors_of_vertex: Dict[int, Set[int]] = {v: set() for v in vertex_set}
        self._edges_into_by_color: Dict[int, Dict[int, List[ColorEdge]]] = {
            v: {} for v in vertex_set
        }
        for edge in edges:
            self._edges_by_color.setdefault(edge.color, []).append(edge)
            color_sets.setdefault(edge.color, set()).add(edge.dst)
            self._colors_of_vertex[edge.dst].add(edge.color)
            self._edges_into_by_color[edge.dst].setdefault(edge.color, []).append(edge)
        color_costs = {
            color: digit_cost(color, representation) for color in color_sets
        }
        self._adopt(vertex_set, representation, max_shift, color_sets, color_costs)

    def _adopt(
        self,
        vertices: FrozenSet[int],
        representation: Representation,
        max_shift: int,
        color_sets: Dict[int, Set[int]],
        color_costs: Dict[int, int],
    ) -> None:
        """Set the state every form of the graph shares."""
        self._vertices = vertices
        self._representation = representation
        self._max_shift = max_shift
        self._color_sets = color_sets
        self._color_costs = color_costs
        self._cover_inputs: Optional[
            Tuple[Mapping[int, Set[int]], Mapping[int, float]]
        ] = None
        self._cover_indexes: Dict[str, CoverIndex] = {}

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

    def cover_inputs(self) -> Tuple[Mapping[int, Set[int]], Mapping[int, float]]:
        """The cover solvers' input: color sets and float costs, built once.

        Both mappings are read-only views.  The sets in the first are the
        graph's own color sets, not copies (freezing them all costs about as
        much as building a cover index), so callers must not mutate them.
        :meth:`cover_index` and the ``cover_fn`` path of
        :func:`repro.core.mrp.optimize` share this pair.
        """
        if self._cover_inputs is None:
            self._cover_inputs = (
                MappingProxyType(self._color_sets),
                MappingProxyType({
                    color: float(cost) for color, cost in self._color_costs.items()
                }),
            )
        return self._cover_inputs

    def cover_index(self, strategy: str = "benefit") -> CoverIndex:
        """The greedy cover's index over this graph for ``strategy``, built once.

        Its universe is the vertex set and its sets and costs are
        :meth:`cover_inputs`, under the same read-only contract.  Under
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
            sets, costs = self.cover_inputs()
            index = CoverIndex(self._vertices, sets, costs, weights)
            self._cover_indexes[strategy] = index
        return index

    def edges_into(self, vertex: int, allowed_colors: Set[int]) -> List[ColorEdge]:
        """Edges terminating at ``vertex`` whose color lies in ``allowed_colors``."""
        by_color = self._edges_into_by_color[vertex]
        found: List[ColorEdge] = []
        for color in by_color.keys() & allowed_colors:
            found.extend(by_color[color])
        return found


class ColumnarGraph(ColoredGraph):
    """A :class:`ColoredGraph` kept as flat per-edge columns.

    The fast kernels of :mod:`repro.fastpath.graphbuild` compute each edge's
    primary color, color shift and color sign, in the reference order
    ``(src, dst, shift, sign)`` with the ``src == dst`` pairs left out.
    Between distinct odd vertices no SID coefficient is zero, so every
    ordered pair holds all ``2 * (max_shift + 1)`` of its edges and an
    edge's position alone gives its ``src``, ``dst``, ``shift`` and
    ``src_sign``; its weight is its color's cost.

    The cover reads only the color sets and costs, which the build groups
    up front.  The spanning forest reads the edges of a handful of solution
    colors, so edges are made on demand: :meth:`edges_into` makes the edges
    of one color into one vertex the first time they are asked for and
    keeps them, :meth:`edges_of_color` merges those per-vertex lists, and
    :meth:`colors_of_vertex` reads the column.  Every answer equals the
    eager graph's, order included (``tests/test_fastpath_equivalence.py``).
    """

    def __init__(
        self,
        vertex_list: List[int],
        representation: Representation,
        max_shift: int,
        primaries: List[int],
        color_shifts: List[int],
        color_signs: List[int],
        color_sets: Dict[int, Set[int]],
        color_costs: Dict[int, int],
    ):
        self._adopt(
            frozenset(vertex_list), representation, max_shift, color_sets,
            color_costs,
        )
        self._vertex_list = vertex_list
        self._position = {v: j for j, v in enumerate(vertex_list)}
        self._per_pair = 2 * (max_shift + 1)
        self._primaries = primaries
        self._color_shifts = color_shifts
        self._color_signs = color_signs
        #: vertex -> (its colors in first-appearance order, as dict keys;
        #: the primary colors of the edges into it, in reference order).
        self._incoming: Dict[int, Tuple[Dict[int, None], List[int]]] = {}
        #: (vertex, color) -> the edges of ``color`` into ``vertex``.
        self._made: Dict[Tuple[int, int], List[ColorEdge]] = {}
        self._by_color: Dict[int, Tuple[ColorEdge, ...]] = {}

    @property
    def num_edges(self) -> int:
        """Total number of colored edges."""
        return len(self._primaries)

    def colors_of_vertex(self, vertex: int) -> FrozenSet[int]:
        """Primary colors having at least one edge into ``vertex``."""
        return frozenset(self._incoming_of(vertex)[0])

    def edges_of_color(self, color: int) -> Tuple[ColorEdge, ...]:
        """All concrete edges whose class representative is ``color``."""
        edges = self._by_color.get(color)
        if edges is None:
            found: List[ColorEdge] = []
            for vertex in self._color_sets[color]:
                found.extend(self._edges_into_color(vertex, color))
            found.sort(key=_reference_order)
            edges = self._by_color[color] = tuple(found)
        return edges

    def edges_into(self, vertex: int, allowed_colors: Set[int]) -> List[ColorEdge]:
        """Edges terminating at ``vertex`` whose color lies in ``allowed_colors``."""
        colors = self._incoming_of(vertex)[0]
        found: List[ColorEdge] = []
        # The same set expression as the eager graph's, over the same keys
        # in the same order, so the colors come out in the same order.
        for color in colors.keys() & allowed_colors:
            found.extend(self._edges_into_color(vertex, color))
        return found

    def _pair_start(self, i: int, j: int) -> int:
        """Column position of the first edge from vertex ``i`` to ``j``."""
        pairs_before = i * (len(self._vertex_list) - 1) + j - (j > i)
        return pairs_before * self._per_pair

    def _incoming_of(self, vertex: int) -> Tuple[Dict[int, None], List[int]]:
        incoming = self._incoming.get(vertex)
        if incoming is None:
            j = self._position[vertex]
            per_pair = self._per_pair
            sequence: List[int] = []
            for i in range(len(self._vertex_list)):
                if i != j:
                    start = self._pair_start(i, j)
                    sequence += self._primaries[start:start + per_pair]
            incoming = self._incoming[vertex] = (dict.fromkeys(sequence), sequence)
        return incoming

    def _edges_into_color(self, vertex: int, color: int) -> List[ColorEdge]:
        key = (vertex, color)
        edges = self._made.get(key)
        if edges is None:
            sequence = self._incoming_of(vertex)[1]
            j = self._position[vertex]
            weight = self._color_costs[color]
            edges = []
            at = -1
            for _ in range(sequence.count(color)):
                at = sequence.index(color, at + 1)
                row, offset = divmod(at, self._per_pair)
                i = row + (row >= j)
                k = self._pair_start(i, j) + offset
                edges.append(ColorEdge(
                    src=self._vertex_list[i],
                    dst=vertex,
                    shift=offset >> 1,
                    src_sign=-1 if offset & 1 else 1,
                    color=color,
                    color_shift=self._color_shifts[k],
                    color_sign=self._color_signs[k],
                    weight=weight,
                ))
            self._made[key] = edges
        return edges


def _reference_order(edge: ColorEdge) -> Tuple[int, int, int, int]:
    """An edge's place in the reference build order ``(src, dst, shift, sign)``."""
    return (edge.src, edge.dst, edge.shift, -edge.src_sign)


def build_colored_graph(
    vertices: Iterable[int],
    max_shift: int,
    representation: Representation = Representation.CSD,
    budget: Optional["SolverBudget"] = None,
) -> ColoredGraph:
    """Construct the full SIDC graph over ``vertices``.

    For ``M`` vertices the graph has up to ``2 * (max_shift + 1) * M *
    (M - 1)`` colored edges (paper §3.1).  Edges whose SID coefficient is zero
    are skipped — a zero color means ``dst`` is a shift of ``src``, which
    cannot happen between distinct odd vertices.  The optional cooperative
    ``budget`` is charged per vertex pair so oversized builds raise
    :class:`~repro.errors.BudgetExceeded` instead of stalling the pipeline.

    Construction normally runs through the batch kernels of
    :mod:`repro.fastpath.graphbuild` (numpy when available, pure python
    otherwise), which return a :class:`ColumnarGraph`: flat per-edge
    columns, with edge objects made only when asked for.
    ``REPRO_FASTPATH=off`` selects this module's reference loop instead,
    which makes every edge up front.  The equivalence suite
    (``tests/test_fastpath_equivalence.py``) asserts the two paths are
    element-identical.
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
