"""Exact weighted minimum set cover by branch and bound.

The paper solves WMSC greedily because it is NP-complete; for small instances
an exact solver is tractable and lets us *measure* the greedy's optimality
gap instead of guessing at it (``benchmarks/bench_ablation_optimality.py``).

The solver is a classical element-branching branch and bound:

* dominated sets are removed up front (same-or-smaller coverage at
  same-or-higher cost can never help an optimal solution);
* at each node the uncovered element with the *fewest* candidate sets is
  branched on (fail-first), trying its candidates cheapest-first;
* the admissible lower bound is the cost of the cheapest candidate per
  uncovered element, maximized (each uncovered element forces at least one
  more set at least that expensive).

The search runs on integer bitmasks.  The universe's elements are numbered
in fail-first rank order, so the element to branch on is the lowest set bit
of the uncovered mask, and each set is read once into a mask of the
universe.  A child is ``uncovered & ~mask``.  The lower bound depends only
on the uncovered mask and is memoized per mask: a search of 500k nodes
meets a few hundred distinct masks.  A :class:`~repro.robust.SolverBudget`
is charged in batches, through :meth:`~repro.robust.SolverBudget.spend_units`,
when the search reaches a node at which a per-node ``spend()`` would act (a
heartbeat or the node cap; every node when the budget has a deadline or a
forced reason), so it sees the same heartbeats and stops at the same node.

Instances are size-guarded: universes beyond ``max_universe`` raise rather
than silently running forever.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import BudgetExceeded, CoverBudgetError, GraphError
from ..obs import span as obs_span
from .setcover import CoverSolution, CoverStep

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget

__all__ = ["exact_weighted_set_cover", "prune_dominated_sets"]


def prune_dominated_sets(
    sets: Mapping[Hashable, FrozenSet],
    costs: Mapping[Hashable, float],
) -> List[Hashable]:
    """Keys of sets that survive dominance pruning.

    A set is dominated when a set kept before it covers a superset at no
    higher cost.  Sets are visited by cost, then larger first, then by the
    ``repr`` of their keys, so of two equal sets at equal cost the one whose
    key's ``repr`` sorts first is kept: for int keys 11 is kept over 3.
    """
    bit_of: Dict[Hashable, int] = {}
    masks = {
        key: sum(bit_of.setdefault(e, 1 << len(bit_of)) for e in members)
        for key, members in sets.items()
    }
    return _prune_masks(masks, costs)


def _prune_masks(
    masks: Mapping[Hashable, int], costs: Mapping[Hashable, float]
) -> List[Hashable]:
    """:func:`prune_dominated_sets` on sets given as int masks.

    Of the sets sharing a mask, all but the first in visiting order (the
    cheapest, then the smallest ``repr``, then the first given) are
    dominated by it or by what dominates it, so only that one is sorted
    and checked.  This takes costs to be ordered: no NaN.
    """
    keys = list(masks)
    groups: Dict[int, List[int]] = {}
    for index, mask in enumerate(masks.values()):
        group = groups.get(mask)
        if group is None:
            groups[mask] = [index]
        else:
            group.append(index)
    firsts = []
    for mask, group in groups.items():
        if len(group) > 1:
            cheapest = min(costs[keys[i]] for i in group)
            group = [i for i in group if costs[keys[i]] == cheapest]
        first = group[0] if len(group) == 1 else min(
            group, key=lambda i: repr(keys[i])
        )
        key = keys[first]
        size = bin(mask).count("1")
        firsts.append((costs[key], -size, repr(key), first, mask))
    firsts.sort()
    survivors: List[Hashable] = []
    kept: List[Tuple[int, float]] = []
    for cost, _, _, index, mask in firsts:
        for kept_mask, kept_cost in kept:
            if mask & kept_mask == mask and kept_cost <= cost:
                break
        else:
            survivors.append(keys[index])
            kept.append((mask, cost))
    return survivors


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def exact_weighted_set_cover(
    universe: Set,
    sets: Mapping[Hashable, FrozenSet],
    costs: Mapping[Hashable, float],
    max_universe: int = 18,
    max_nodes: int = 2_000_000,
    budget: Optional["SolverBudget"] = None,
) -> CoverSolution:
    """Provably minimum-cost cover of ``universe`` (small instances only).

    Raises :class:`GraphError` when the universe exceeds ``max_universe`` or
    when an element is uncoverable.  When the ``max_nodes`` cap — or the
    optional cooperative ``budget`` (wall clock and/or nodes) — is exhausted
    mid-search, raises :class:`CoverBudgetError` whose ``partial`` attribute
    carries the best *incumbent* cover found so far (a complete cover whose
    optimality is simply unproven), letting callers degrade gracefully
    instead of recomputing from scratch.
    """
    universe = set(universe)
    if len(universe) > max_universe:
        raise GraphError(
            f"exact cover limited to {max_universe} elements, got {len(universe)}"
        )
    # Each set becomes a mask over the universe in any order first: cutting
    # it to the universe is just leaving out the elements without a bit.
    elements = list(universe)
    full = (1 << len(elements)) - 1
    bit_of = {element: 1 << i for i, element in enumerate(elements)}.get
    masks = {
        key: sum(map(bit_of, members, repeat(0)))
        for key, members in sets.items()
    }
    reachable = 0
    for mask in set(masks.values()):
        reachable |= mask
    if reachable != full:
        missing = [elements[i] for i in _bits(full & ~reachable)]
        raise GraphError(f"elements {sorted(missing)!r} appear in no set")
    costs = dict(costs.items())  # one walk; a view's lookups bisect

    survivors = _prune_masks(masks, costs)
    by_cost = sorted(survivors, key=lambda k: (costs[k], repr(k)))
    candidates_of = [
        [k for k in by_cost if masks[k] >> i & 1] for i in range(len(elements))
    ]
    # Renumber in fail-first rank order: the fewest candidates, then repr.
    ranked = sorted(
        range(len(elements)),
        key=lambda i: (len(candidates_of[i]), repr(elements[i])),
    )
    elements = [elements[i] for i in ranked]
    rank_masks = dict.fromkeys(survivors, 0)
    for rank, i in enumerate(ranked):
        for key in candidates_of[i]:
            rank_masks[key] |= 1 << rank
    cheapest = [costs[candidates_of[i][0]] for i in ranked]
    # choices[b]: (cost, ~mask, key) of the candidates of the element whose
    # bit has bit_length b, cheapest first.
    choices = [[]] + [
        [(costs[k], ~rank_masks[k], k) for k in candidates_of[i]]
        for i in ranked
    ]

    bounds: Dict[int, float] = {}

    def lower_bound(uncovered: int) -> float:
        # Only called with elements left: search returns on an empty mask.
        most = max(cheapest[rank] for rank in _bits(uncovered))
        bound = bounds[uncovered] = max(0.0, most)
        return bound

    best_cost = float("inf")
    best_pick: Optional[Tuple[Hashable, ...]] = None
    picked: List[Hashable] = []
    push, pop = picked.append, picked.pop
    # ``nodes`` counts the nodes visited, ``charged`` those already charged
    # to the budget; the search stops to charge when ``nodes`` passes
    # ``limit``, the next node at which a per-node charge would act.
    nodes = 0
    charged = 0
    limit = max_nodes if budget is None else min(max_nodes, budget.quiet_units)

    def charge() -> None:
        nonlocal nodes, charged, limit
        if nodes > max_nodes:
            nodes -= 1  # the node past the cap is never charged
            raise BudgetExceeded("exact cover exceeded its node budget")
        units, charged = nodes - charged, nodes
        budget.spend_units(units)
        limit = min(max_nodes, charged + budget.quiet_units)

    def search(uncovered: int, cost: float) -> None:
        nonlocal nodes, best_cost, best_pick
        nodes += 1
        if nodes > limit:
            charge()
        if not uncovered:
            if cost < best_cost:
                best_cost = cost
                best_pick = tuple(picked)
            return
        try:
            bound = bounds[uncovered]
        except KeyError:
            bound = lower_bound(uncovered)
        if cost + bound >= best_cost:
            return
        for step, keep, key in choices[(uncovered & -uncovered).bit_length()]:
            child = cost + step
            if child >= best_cost:
                continue
            push(key)
            search(uncovered & keep, child)
            pop()

    def solution_from(picks: Tuple[Hashable, ...]) -> CoverSolution:
        steps: List[CoverStep] = []
        covered_by: Dict = {}
        remaining = full
        for key in picks:
            newly_mask = rank_masks[key] & remaining
            newly = [elements[rank] for rank in _bits(newly_mask)]
            steps.append(
                CoverStep(
                    color=key,
                    benefit=0.0,
                    frequency=len(newly),
                    cost=costs[key],
                    newly_covered=frozenset(newly),
                )
            )
            for element in newly:
                covered_by[element] = key
            remaining &= ~newly_mask
        return CoverSolution(steps=tuple(steps), covered_by=covered_by)

    try:
        with obs_span(
            "cover.exact",
            universe=len(universe),
            sets=len(survivors),
            max_nodes=max_nodes,
        ):
            if budget is not None:
                budget.start()
            try:
                search(full, 0.0)
            finally:
                # At most the quiet units left: no heartbeat, no raise.
                if budget is not None:
                    budget.spend_units(nodes - charged)
    except BudgetExceeded as exc:
        incumbent = solution_from(best_pick) if best_pick is not None else None
        suffix = (
            " (incumbent cover attached)" if incumbent is not None
            else " (no incumbent found)"
        )
        raise CoverBudgetError(str(exc) + suffix, partial=incumbent) from exc
    if best_pick is None:  # pragma: no cover - guarded by reachability
        raise GraphError("exact cover found no solution")
    return solution_from(best_pick)
