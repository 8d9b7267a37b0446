"""Greedy weighted minimum set cover with the paper's benefit function (§3.3-3.4).

The MRP color-selection problem is WMSC: find the cheapest set of colors whose
color sets cover every vertex.  The paper solves it greedily, repeatedly
picking the color maximizing

    f = beta * frequency - (1 - beta) * cost        (0 <= beta <= 1)

where ``frequency`` is the number of *still-uncovered* vertices in the color
set and ``cost`` the color's digit count.  ``beta`` skews the solution toward
fewer, denser shares (high beta) or cheaper, less-shared colors (low beta,
modeling deep-submicron interconnect/drive cost).

Implementation: rank buckets
----------------------------
A color's greedy rank ``(f, frequency, -cost)`` is a function of its *state*
``(remaining weight, remaining count, cost)`` and of β alone.  Colors sharing
a state therefore share a rank, so the greedy keeps them in one **bucket**
ordered by the final tie-break (:func:`_tie_order`): the winner of a pick is
the head of the best-ranked bucket, and among equally ranked buckets the
smallest head.  Each pick scans the nonempty buckets — tens to hundreds on
SIDC graphs, against tens of thousands of colors — and then re-buckets only
the colors that share a newly covered element.  A re-bucketed color's old
heap entry stays behind and is dropped when it surfaces at a heap head.

Nothing of this set-up depends on β.  :class:`CoverIndex` holds it — the
initial buckets, the tie order, the element → colors reverse index — and
:meth:`repro.graph.ColoredGraph.cover_index` builds it once per graph and
strategy, so a β sweep pays for it once.  Most SIDC colors cover a single
vertex; such a color never changes state before it dies, so the index
tallies them per element and bucket and a pick retires them in bulk.
The constructor walks any ``sets``/``costs`` mappings one color at a time;
:meth:`CoverIndex.from_columns` fills the same fields from a graph's int64
CSR incidence with array sorts and counts, making no Python object per
color beyond one entry in each tie-indexed list.

The result equals that of the plain greedy that rescans every set on every
pick, kept as the oracle of ``tests/test_cover_equivalence.py``: the same
picks in the same order with the same floats.  (A prebuilt index sums each
color's initial weight in its own universe's iteration order; that is exact
whenever the weights are integer-valued, as the graph's always are.)  The
node budget is charged ``max(1, len(sets))`` per pick, one unit per
candidate set as a full rescan would scan, so a budget stops the greedy at
the same pick with the same partial cover as the plain greedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import BudgetExceeded, GraphError
from ..obs import span as obs_span

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    import numpy as np

    from ..robust.budget import SolverBudget

__all__ = [
    "CoverIndex",
    "CoverStep",
    "CoverSolution",
    "benefit",
    "greedy_weighted_set_cover",
]

#: A color's greedy state: (remaining weight, remaining count, cost).
_State = Tuple[float, int, float]

#: Marks a tie rank that is not a single-element color (elements may be None).
_MULTI = object()


def benefit(frequency: int, cost: float, beta: float) -> float:
    """The paper's benefit function ``f = beta*frequency - (1-beta)*cost``."""
    return beta * frequency - (1.0 - beta) * cost


@dataclass(frozen=True)
class CoverStep:
    """One greedy iteration: the color picked and what it newly covered."""

    color: Hashable
    benefit: float
    frequency: int
    cost: float
    newly_covered: FrozenSet


@dataclass(frozen=True)
class CoverSolution:
    """Result of the greedy WMSC: selection order, coverage map, total cost."""

    steps: Tuple[CoverStep, ...]
    covered_by: Mapping  # vertex -> color that first covered it

    @property
    def colors(self) -> Tuple[Hashable, ...]:
        """The selected colors, in the order the greedy picked them."""
        return tuple(step.color for step in self.steps)

    @property
    def total_cost(self) -> float:
        """Sum of the selected sets' costs."""
        return sum(step.cost for step in self.steps)


class CoverIndex:
    """The β-invariant state of the greedy cover over one set system.

    Built from the same ``universe``, ``sets``, ``costs`` and
    ``element_weights`` the greedy takes; pass it to
    :func:`greedy_weighted_set_cover` as ``index=`` together with those very
    ``sets`` and ``costs`` mappings to skip the per-call set-up.  Colors are
    referred to internally by their *tie rank*, their position in the final
    tie-break order.  The index is read-only once built and may be shared
    by any number of calls.
    """

    def __init__(
        self,
        universe: Iterable,
        sets: Mapping[Hashable, FrozenSet],
        costs: Mapping[Hashable, float],
        element_weights: Optional[Mapping] = None,
    ):
        uncovered = set(universe)
        weights = element_weights if element_weights is not None else {}
        self.universe: FrozenSet = frozenset(uncovered)
        self.sets = sets
        self.costs = costs
        self.element_weights = element_weights
        reachable: Set = set()
        for members in sets.values():
            reachable |= members
        #: Universe elements no set covers (the greedy refuses to start).
        self.missing: FrozenSet = frozenset(uncovered - reachable)

        keys = list(sets)
        members_of = list(sets.values())
        order = _tie_ranking(keys)
        #: tie rank -> color key.
        self.colors: List[Hashable] = [keys[i] for i in order]
        #: tie rank -> cost.
        self.cost_of: List[float] = [costs[key] for key in self.colors]
        #: Initial state of every live multi-element color, by tie rank.
        self.count: Dict[int, int] = {}
        self.weight: Dict[int, float] = {}
        #: tie rank -> a single-element color's one live element, else _MULTI.
        self.sole: List = [_MULTI] * len(order)
        #: element -> multi-element colors (tie ranks) holding it.
        self.multi_of: Dict[Hashable, List[int]] = {}
        #: state -> tie ranks of the colors starting in it, ascending.
        self.buckets: Dict[_State, List[int]] = {}
        singles: Dict[Hashable, Dict[_State, int]] = {}
        for tie, position in enumerate(order):
            live = members_of[position] & uncovered
            count = len(live)
            if not count:
                continue
            if weights:
                weight = sum(weights.get(e, 1.0) for e in live)
            else:
                weight = float(count)  # the sum of count 1.0s, exactly
            state = (weight, count, self.cost_of[tie])
            bucket = self.buckets.get(state)
            if bucket is None:
                self.buckets[state] = [tie]
            else:
                bucket.append(tie)
            if count == 1:
                (element,) = live
                self.sole[tie] = element
                tally = singles.get(element)
                if tally is None:
                    tally = singles[element] = {}
                tally[state] = tally.get(state, 0) + 1
            else:
                self.count[tie] = count
                self.weight[tie] = weight
                for element in live:
                    self.multi_of.setdefault(element, []).append(tie)
        #: element -> ((state, number of single-element colors), ...).
        self.singles_of: Dict[Hashable, Tuple[Tuple[_State, int], ...]] = {
            element: tuple(tally.items()) for element, tally in singles.items()
        }
        #: state -> number of colors starting in it.
        self.sizes: Dict[_State, int] = {
            state: len(ranks) for state, ranks in self.buckets.items()
        }

    @classmethod
    def from_columns(
        cls,
        elements: Sequence,
        sets: Mapping[Hashable, AbstractSet],
        costs: Mapping[Hashable, float],
        element_weights: Optional[Mapping],
        colors: "np.ndarray",
        starts: "np.ndarray",
        members: "np.ndarray",
        color_costs: "np.ndarray",
    ) -> "CoverIndex":
        """The index of a set system given as int64 CSR columns.

        Color ``colors[i]`` holds ``elements[j]`` for each index ``j`` in
        ``members[starts[i]:starts[i + 1]]`` (at least one, each at most
        once) and costs ``color_costs[i]``.  The colors must be distinct
        non-negative ints in ascending order, which is their tie order, and
        the universe is ``elements``.  ``sets`` and ``costs`` are mappings
        over the same system, kept for the greedy as the constructor keeps
        them.  Fills every field the constructor fills, equal to it, with
        array operations and one list per field instead of a loop over the
        colors; the per-color weight sums are exact for integer weights.
        """
        import numpy as np

        self = cls.__new__(cls)
        self.universe = frozenset(elements)
        self.sets, self.costs = sets, costs
        self.element_weights = element_weights
        n = len(colors)
        count = np.diff(starts)
        cost = color_costs.astype(float)
        tie_of = np.repeat(np.arange(n), count)  # per member
        if element_weights:
            per_element = np.array(
                [element_weights.get(e, 1.0) for e in elements], dtype=float
            )
            weight = np.bincount(tie_of, per_element[members], minlength=n)
        else:
            weight = count.astype(float)
        covered = np.zeros(len(elements), dtype=bool)
        covered[members] = True
        self.missing = frozenset(
            elements[j] for j in np.flatnonzero(~covered).tolist()
        )
        self.colors = colors.tolist()
        self.cost_of = cost.tolist()

        # Bucket the tie ranks by state; a stable sort keeps each ascending.
        by_state = np.lexsort((cost, count, weight))
        weight_s, count_s, cost_s = weight[by_state], count[by_state], cost[by_state]
        fresh = np.ones(n, dtype=bool)
        fresh[1:] = (
            (weight_s[1:] != weight_s[:-1])
            | (count_s[1:] != count_s[:-1])
            | (cost_s[1:] != cost_s[:-1])
        )
        heads = np.flatnonzero(fresh)
        states: List[_State] = list(zip(
            weight_s[heads].tolist(), count_s[heads].tolist(),
            cost_s[heads].tolist(),
        ))
        state_of = np.empty(n, dtype=np.int64)
        state_of[by_state] = np.cumsum(fresh) - 1
        ranks, bounds = by_state.tolist(), np.append(heads, n).tolist()
        # Buckets in the order of their smallest tie rank, as the
        # constructor creates them.
        self.buckets = {
            states[g]: ranks[bounds[g]:bounds[g + 1]]
            for g in np.argsort(by_state[heads], kind="stable").tolist()
        }
        self.sizes = {state: len(ties) for state, ties in self.buckets.items()}

        single = count == 1
        sole = np.full(n, _MULTI, dtype=object)
        element_of = np.asarray(elements, dtype=object)
        sole[single] = element_of[members[starts[:-1][single]]]
        self.sole = sole.tolist()
        multi = np.flatnonzero(~single)
        multi_ranks = multi.tolist()
        self.count = dict(zip(multi_ranks, count[multi].tolist()))
        self.weight = dict(zip(multi_ranks, weight[multi].tolist()))

        # element -> multi-element tie ranks, ascending (tie_of ascends).
        in_multi = ~single[tie_of]
        self.multi_of = {}
        for j, tie in zip(members[in_multi].tolist(), tie_of[in_multi].tolist()):
            self.multi_of.setdefault(elements[j], []).append(tie)

        # element -> (state, number of its single-element colors in it),
        # states in the order of their smallest tie rank: np.unique gives
        # each (element, state) group's size and first, smallest, tie.
        single_ties = np.flatnonzero(single)
        groups, first, sizes = np.unique(
            members[starts[:-1][single_ties]] * len(states)
            + state_of[single_ties],
            return_index=True, return_counts=True,
        )
        element_g, state_g = np.divmod(groups, len(states))
        singles: Dict[Hashable, List[Tuple[_State, int]]] = {}
        for g in np.lexsort((first, element_g)).tolist():
            singles.setdefault(elements[element_g[g]], []).append(
                (states[state_g[g]], int(sizes[g]))
            )
        self.singles_of = {
            element: tuple(tally) for element, tally in singles.items()
        }
        return self

    def matches(self, universe: Set, sets: Mapping, costs: Mapping,
                element_weights: Optional[Mapping]) -> bool:
        """True when this index was built for exactly these inputs."""
        return (
            sets is self.sets
            and costs is self.costs
            and element_weights == self.element_weights
            and universe == self.universe
        )


def greedy_weighted_set_cover(
    universe: Set,
    sets: Mapping[Hashable, FrozenSet],
    costs: Mapping[Hashable, float],
    beta: float = 0.5,
    element_weights: Mapping = None,
    strategy: str = "benefit",
    budget: Optional["SolverBudget"] = None,
    *,
    index: Optional[CoverIndex] = None,
) -> CoverSolution:
    """Cover ``universe`` greedily using ``sets`` weighted by the benefit function.

    ``strategy`` selects the greedy score:

    * ``"benefit"`` — the paper's ``f = beta*freq - (1-beta)*cost`` where the
      frequency optionally sums ``element_weights`` instead of counting.
    * ``"savings"`` — ``f = sum(weights of newly covered) - cost``, the exact
      adder-savings objective (an extension beyond the paper; ``beta`` is
      ignored).

    Ties on the score break toward higher frequency, then lower cost, then the
    smaller key (total order -> deterministic output).  Raises
    :class:`GraphError` if some element of the universe appears in no set.

    ``index`` is a prebuilt :class:`CoverIndex` over these exact inputs
    (:meth:`repro.graph.ColoredGraph.cover_index` caches one per graph);
    without it the index is built for this call.  An index built for other
    inputs raises :class:`GraphError`.

    An optional cooperative ``budget`` is charged ``max(1, len(sets))`` units
    per pick — one per candidate set; on exhaustion the raised
    :class:`BudgetExceeded` carries the partial :class:`CoverSolution` built
    so far (covering only part of the universe) as its ``partial`` attribute.
    """
    if not 0.0 <= beta <= 1.0:
        raise GraphError(f"beta must be in [0, 1], got {beta}")
    if strategy not in ("benefit", "savings"):
        raise GraphError(f"unknown cover strategy {strategy!r}")
    with obs_span(
        "cover.greedy",
        universe=len(set(universe)),
        sets=len(sets),
        beta=beta,
        strategy=strategy,
    ):
        if index is None:
            index = CoverIndex(universe, sets, costs, element_weights)
        elif not index.matches(set(universe), sets, costs, element_weights):
            raise GraphError("cover index was built for a different set system")
        return _greedy_cover(index, universe, beta, strategy, budget)


def _greedy_cover(
    index: CoverIndex,
    universe: Set,
    beta: float,
    strategy: str,
    budget: Optional["SolverBudget"],
) -> CoverSolution:
    if index.missing:
        raise GraphError(
            f"elements {sorted(index.missing)!r} appear in no candidate set"
        )
    sets, costs = index.sets, index.costs
    weights = (
        index.element_weights if index.element_weights is not None else {}
    )
    colors, cost_of, sole = index.colors, index.cost_of, index.sole
    multi_of, singles_of, buckets = index.multi_of, index.singles_of, index.buckets
    charge = max(1, len(sets))
    savings = strategy == "savings"

    uncovered: Set = set(universe)
    count = dict(index.count)
    weight = dict(index.weight)
    live = dict(index.sizes)  # state -> colors currently in it (> 0 only)
    heaps: Dict[_State, List[int]] = {}

    def head(state: _State) -> int:
        """Smallest tie rank among the colors currently in ``state``."""
        heap = heaps.get(state)
        if heap is None:
            heap = heaps[state] = list(buckets[state])
        while True:
            tie = heap[0]
            element = sole[tie]
            if element is _MULTI:
                if count[tie] == state[1]:
                    return tie
            elif element in uncovered:
                return tie
            heappop(heap)

    def leave(state: _State, n: int) -> None:
        left = live[state] - n
        if left:
            live[state] = left
        else:
            del live[state]

    steps: List[CoverStep] = []
    covered_by: Dict = {}
    while uncovered:
        if budget is not None:
            try:
                budget.spend(charge)
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    f"greedy cover interrupted with {len(uncovered)} of "
                    f"{len(covered_by) + len(uncovered)} elements uncovered: "
                    f"{exc}",
                    partial=CoverSolution(
                        steps=tuple(steps), covered_by=dict(covered_by)
                    ),
                ) from exc
        best_rank: Optional[Tuple[float, int, float]] = None
        best_states: List[_State] = []
        for state in live:
            remaining, frequency, cost = state
            if savings:
                f = remaining - cost
            else:
                f = benefit(remaining, cost, beta)
            rank = (f, frequency, -cost)
            if best_rank is None or rank > best_rank:
                best_rank, best_states = rank, [state]
            elif rank == best_rank:
                best_states.append(state)
        if best_rank is None:  # pragma: no cover - guarded by reachability check
            raise GraphError("greedy cover stalled with uncovered elements")
        won = min(head(state) for state in best_states)
        best_key = colors[won]
        newly = sets[best_key] & uncovered
        steps.append(
            CoverStep(
                color=best_key,
                benefit=best_rank[0],
                frequency=len(newly),
                cost=costs[best_key],
                newly_covered=frozenset(newly),
            )
        )
        touched: Dict[int, None] = {}
        for element in newly:
            covered_by[element] = best_key
            for state, n in singles_of.get(element, ()):
                leave(state, n)
            w = weights.get(element, 1.0)
            for tie in multi_of.get(element, ()):
                if tie not in touched:
                    touched[tie] = None
                    leave((weight[tie], count[tie], cost_of[tie]), 1)
                count[tie] -= 1
                weight[tie] -= w
        for tie in touched:
            frequency = count[tie]
            if frequency:
                state = (weight[tie], frequency, cost_of[tie])
                live[state] = live.get(state, 0) + 1
                heap = heaps.get(state)
                if heap is None:
                    heap = heaps[state] = list(buckets.get(state, ()))
                heappush(heap, tie)
        uncovered -= newly
    return CoverSolution(steps=tuple(steps), covered_by=covered_by)


def _tie_ranking(keys: List[Hashable]) -> List[int]:
    """Positions of ``keys`` in final tie-break order.

    Equal :func:`_tie_order` values keep their position order, as the first
    of them won in the rescan loop.
    """
    if all(type(key) is int and key >= 0 for key in keys):
        orders: List = keys  # shortlex on a non-negative int's repr is numeric
    else:
        orders = [_tie_order(key) for key in keys]
    return sorted(range(len(keys)), key=orders.__getitem__)


def _tie_order(key: Hashable) -> Tuple[int, str]:
    """Deterministic total order for final tie-breaking: shortlex on repr.

    For the positive-integer color keys the MRP layer uses, shortlex equals
    numeric order — so ties fall to the *smallest* color, which is more likely
    to alias a vertex (paper step 6) and is never more expensive to shift.
    """
    text = repr(key)
    return (len(text), text)
