"""Stage A of the MRP algorithm (paper §3.4): cover + forest = the MRP plan.

Given integer filter coefficients this module runs the complete optimization
pipeline of the paper:

1. normalize taps to primary coefficients (vertices) — :mod:`repro.core.sidc`;
2. build the SIDC colored graph with shifts ``L in 0..max_shift``;
3. greedily solve the weighted minimum set cover with the benefit function
   ``f = beta*frequency - (1-beta)*cost``;
4. extract a depth-bounded spanning forest (roots via APSP eccentricity);
5. assemble the **SEED set** = spanning-tree roots ∪ solution colors.

The result — an :class:`MrpPlan` — is a pure *architectural* description;
:mod:`repro.core.transform` lowers it to a shift-add netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..errors import SynthesisError

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget
from ..graph import (
    ColoredGraph,
    CoverSolution,
    SpanningForest,
    TreeAssignment,
    build_colored_graph,
    build_spanning_forest,
    greedy_weighted_set_cover,
)
from ..numrep import Representation, adder_cost
from .sidc import TapBinding, normalize_taps

__all__ = ["MrpOptions", "MrpPlan", "optimize", "sidc_graph", "trivial_plan"]


@dataclass(frozen=True)
class MrpOptions:
    """Tuning knobs of the MRP optimization.

    ``beta`` weights coverage against color cost in the benefit function
    (0.5 = interconnect-neutral, the paper's default reading).  ``max_shift``
    is the SIDC shift range ``L`` — ``None`` means "use the coefficient
    wordlength", the paper's ``0 <= L <= W``; 0 degenerates to the pure
    differential-coefficient method of Muhammad & Roy [5].  ``depth_limit``
    bounds spanning-tree height (Table 1 uses 3); ``None`` leaves it
    unbounded.  ``strategy`` selects the greedy score: ``"benefit"`` is the
    paper's β-form; ``"savings"`` is this library's exact adder-savings
    extension (β is then ignored).
    """

    beta: float = 0.5
    max_shift: Optional[int] = None
    representation: Representation = Representation.CSD
    depth_limit: Optional[int] = None
    strategy: str = "benefit"

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise SynthesisError(f"beta must be in [0, 1], got {self.beta}")
        if self.strategy not in ("benefit", "savings"):
            raise SynthesisError(f"unknown cover strategy {self.strategy!r}")
        if self.max_shift is not None and self.max_shift < 0:
            raise SynthesisError(f"max_shift must be >= 0, got {self.max_shift}")
        if self.depth_limit is not None and self.depth_limit < 1:
            raise SynthesisError(f"depth_limit must be >= 1, got {self.depth_limit}")


@dataclass(frozen=True)
class MrpPlan:
    """The complete output of MRP stage A for one coefficient vector."""

    coefficients: Tuple[int, ...]
    options: MrpOptions
    bindings: Tuple[TapBinding, ...]
    vertices: Tuple[int, ...]
    graph: Optional[ColoredGraph] = field(repr=False, default=None)
    cover: Optional[CoverSolution] = field(repr=False, default=None)
    forest: Optional[SpanningForest] = None

    @property
    def solution_colors(self) -> Tuple[int, ...]:
        """Primary colors picked by the greedy cover, in selection order."""
        if self.cover is None:
            return ()
        return tuple(self.cover.colors)

    @property
    def roots(self) -> Tuple[int, ...]:
        """Spanning-forest roots (directly multiplied coefficients)."""
        if self.forest is None:
            return ()
        return self.forest.roots

    @property
    def used_colors(self) -> Tuple[int, ...]:
        """Solution colors actually consumed by the forest.

        A color can win a greedy round yet end up unused when every vertex it
        covered is later attached through a cheaper edge, becomes a root, or
        is an alias.  Only used colors need SEED multipliers; Table 1's
        ``solution set`` column reports the raw cover size instead.
        """
        if self.forest is None:
            return ()
        used = {a.edge.color for a in self.forest.children}
        used.update(self.forest.aliases)
        return tuple(sorted(used))

    @property
    def seed(self) -> Tuple[int, ...]:
        """SEED set = roots ∪ used solution colors (paper §3.5), sorted."""
        return tuple(sorted(set(self.roots) | set(self.used_colors)))

    @property
    def seed_size(self) -> Tuple[int, int]:
        """Table-1 style ``(num_roots, num_solution_colors)``."""
        return len(self.roots), len(self.solution_colors)

    @property
    def overhead_adders(self) -> int:
        """Adders in the overhead add network (one per non-root tree vertex)."""
        return self.forest.overhead_adders if self.forest is not None else 0

    @property
    def seed_multiplication_adders(self) -> int:
        """Adders to multiply the input by each SEED constant, no sharing.

        This is the *uncompressed* SEED network size; CSE or recursive MRP
        can lower it further (paper §4).
        """
        rep = self.options.representation
        return sum(adder_cost(value, rep) for value in self.seed)

    @property
    def total_adders(self) -> int:
        """Multiplier-block adders of the plain MRPF architecture."""
        return self.seed_multiplication_adders + self.overhead_adders

    @property
    def tree_height(self) -> int:
        """Maximum spanning-tree depth (bounds the overhead-network delay)."""
        return self.forest.max_depth if self.forest is not None else 0

    def describe(self) -> str:
        """Multi-line human-readable summary of the plan."""
        lines = [
            f"MRP plan for {len(self.coefficients)} taps "
            f"({len(self.vertices)} primary coefficients)",
            f"  solution colors ({len(self.solution_colors)}): "
            f"{list(self.solution_colors)}",
            f"  roots ({len(self.roots)}): {list(self.roots)}",
            f"  SEED size (roots, solution) = {self.seed_size}",
            f"  adders: seed={self.seed_multiplication_adders} "
            f"overhead={self.overhead_adders} total={self.total_adders}",
            f"  tree height: {self.tree_height}",
        ]
        return "\n".join(lines)


def optimize(
    coefficients: Sequence[int],
    wordlength: int,
    options: Optional[MrpOptions] = None,
    graph: Optional[ColoredGraph] = None,
    budget: Optional["SolverBudget"] = None,
    cover_fn: Optional[Callable[..., CoverSolution]] = None,
) -> MrpPlan:
    """Run MRP stage A on integer taps quantized to ``wordlength`` bits.

    ``wordlength`` sets the default SIDC shift range (``L <= W``, paper §3.1)
    when ``options.max_shift`` is ``None``.  A prebuilt ``graph`` over the
    same vertex set / shift range / representation may be supplied to avoid
    rebuilding it across β sweeps; it is validated before use.

    ``budget`` is an optional cooperative :class:`~repro.robust.SolverBudget`
    threaded into the cover solver (and checkpointed around the graph build)
    so an oversized instance raises :class:`~repro.errors.BudgetExceeded`
    instead of hanging.  ``cover_fn`` swaps the greedy cover for another
    solver — the robust degradation layer uses it to try the exact
    branch-and-bound first; it is called as
    ``cover_fn(universe, sets, costs, options)`` and must return a
    :class:`~repro.graph.CoverSolution`.  ``sets`` and ``costs`` are the
    graph's :meth:`~repro.graph.ColoredGraph.cover_inputs`: read-only
    mappings whose color sets are the graph's own, so ``cover_fn`` must not
    mutate them.
    """
    opts = options or MrpOptions()
    coefficients = tuple(int(c) for c in coefficients)
    if not coefficients:
        raise SynthesisError("cannot optimize an empty coefficient vector")
    if wordlength < 1:
        raise SynthesisError(f"wordlength must be >= 1, got {wordlength}")
    max_shift = opts.max_shift if opts.max_shift is not None else wordlength

    vertices, bindings = normalize_taps(coefficients)
    if not vertices:
        # Every tap is zero or a power of two: nothing to optimize.
        return MrpPlan(
            coefficients=coefficients,
            options=opts,
            bindings=tuple(bindings),
            vertices=(),
            forest=SpanningForest(assignments=()),
        )
    if len(vertices) == 1:
        # A single primary coefficient is its own root; no colors needed.
        forest = SpanningForest(
            assignments=(
                TreeAssignment(vertex=vertices[0], kind="root", depth=0),
            )
        )
        return MrpPlan(
            coefficients=coefficients,
            options=opts,
            bindings=tuple(bindings),
            vertices=tuple(vertices),
            forest=forest,
        )

    if graph is None:
        graph = sidc_graph(vertices, wordlength, opts, budget=budget)
    elif (
        set(graph.vertices) != set(vertices)
        or graph.max_shift != max_shift
        or graph.representation != opts.representation
    ):
        raise SynthesisError(
            "supplied graph does not match the coefficients/options "
            f"(vertices/max_shift/representation mismatch)"
        )
    if budget is not None:
        budget.checkpoint()
    if cover_fn is not None:
        color_sets, costs = graph.cover_inputs()
        cover = cover_fn(set(vertices), color_sets, costs, opts)
    else:
        index = graph.cover_index(opts.strategy)
        cover = greedy_weighted_set_cover(
            set(vertices), index.sets, index.costs, beta=opts.beta,
            element_weights=index.element_weights, strategy=opts.strategy,
            budget=budget, index=index,
        )
    if budget is not None:
        budget.checkpoint()
    forest = build_spanning_forest(
        graph, cover.colors, depth_limit=opts.depth_limit
    )
    return MrpPlan(
        coefficients=coefficients,
        options=opts,
        bindings=tuple(bindings),
        vertices=tuple(vertices),
        graph=graph,
        cover=cover,
        forest=forest,
    )


def sidc_graph(
    vertices: Sequence[int],
    wordlength: int,
    options: MrpOptions,
    budget: Optional["SolverBudget"] = None,
    built: Optional[Dict[Tuple[int, Representation], ColoredGraph]] = None,
) -> ColoredGraph:
    """The SIDC graph :func:`optimize` plans ``vertices`` on under ``options``.

    ``built`` optionally holds graphs already built over the same
    ``vertices``, keyed by ``(max_shift, representation)``.  A graph found
    there is reused, and ``budget`` is charged what building it would have
    cost (one node per ordered vertex pair, as the build charges), so the
    budget runs out at the same node count either way.  A graph built here
    is added to ``built``; a build the budget interrupts is not.
    """
    max_shift = options.max_shift
    if max_shift is None:
        max_shift = wordlength
    key = (max_shift, options.representation)
    graph = built.get(key) if built is not None else None
    if graph is None:
        graph = build_colored_graph(
            vertices, max_shift, options.representation, budget=budget
        )
        if built is not None:
            built[key] = graph
    elif budget is not None:
        size = len(graph.vertices)
        budget.spend_units(size * (size - 1))
    return graph


def trivial_plan(
    coefficients: Sequence[int],
    options: Optional[MrpOptions] = None,
) -> MrpPlan:
    """The no-sharing MRP plan: every primary coefficient is its own root.

    Lowering this plan reproduces the simple implementation (with fundamental
    reuse), so it serves as a guaranteed floor — sweeping β and falling back
    to the trivial plan makes "MRPF never loses to simple" a hard invariant
    (used by :func:`repro.eval.best_mrpf`).
    """
    opts = options or MrpOptions()
    coefficients = tuple(int(c) for c in coefficients)
    if not coefficients:
        raise SynthesisError("cannot plan an empty coefficient vector")
    vertices, bindings = normalize_taps(coefficients)
    forest = SpanningForest(
        assignments=tuple(
            TreeAssignment(vertex=v, kind="root", depth=0) for v in vertices
        )
    )
    return MrpPlan(
        coefficients=coefficients,
        options=opts,
        bindings=tuple(bindings),
        vertices=tuple(vertices),
        forest=forest,
    )
