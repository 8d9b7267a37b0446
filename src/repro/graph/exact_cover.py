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

Instances are size-guarded: universes beyond ``max_universe`` raise rather
than silently running forever.
"""

from __future__ import annotations

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

    A set is dominated when another covers a superset at no higher cost
    (ties broken deterministically toward the smaller key, which is kept).
    """
    keys = sorted(sets, key=lambda k: (costs[k], -len(sets[k]), repr(k)))
    survivors: List[Hashable] = []
    for key in keys:
        members = sets[key]
        dominated = False
        for kept in survivors:
            if members <= sets[kept] and costs[kept] <= costs[key]:
                dominated = True
                break
        if not dominated:
            survivors.append(key)
    return survivors


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
    # The search reads only plain dicts: the sets cut to the universe (the
    # same differences and intersections with subsets of it) and the costs.
    frozen = frozenset(universe)
    sets = {
        key: members if members <= frozen else members & frozen
        for key, members in sets.items()
    }
    costs = dict(costs.items())
    reachable: Set = set().union(*sets.values())
    if universe - reachable:
        raise GraphError(
            f"elements {sorted(universe - reachable)!r} appear in no set"
        )

    survivors = prune_dominated_sets(sets, costs)
    candidates_of: Dict = {}
    for element in universe:
        candidates_of[element] = sorted(
            (k for k in survivors if element in sets[k]),
            key=lambda k: (costs[k], repr(k)),
        )
    # Per element, fixed for the whole solve: the cost of its cheapest
    # candidate (its share of the lower bound) and its fail-first rank.
    cheapest = {e: costs[keys[0]] for e, keys in candidates_of.items()}
    branch_rank = {
        e: (len(keys), repr(e)) for e, keys in candidates_of.items()
    }

    best_cost = [float("inf")]
    best_pick: List[Optional[Tuple[Hashable, ...]]] = [None]
    nodes = [0]

    def lower_bound(uncovered: Set) -> float:
        # Only called with elements left: search returns on an empty set.
        return max(0.0, max(map(cheapest.__getitem__, uncovered)))

    def search(uncovered: Set, cost: float, picked: Tuple[Hashable, ...]) -> None:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise BudgetExceeded("exact cover exceeded its node budget")
        if budget is not None:
            budget.spend()
        if not uncovered:
            if cost < best_cost[0]:
                best_cost[0] = cost
                best_pick[0] = picked
            return
        if cost + lower_bound(uncovered) >= best_cost[0]:
            return
        # Fail-first: branch on the element with the fewest candidates.
        element = min(uncovered, key=branch_rank.__getitem__)
        for key in candidates_of[element]:
            if cost + costs[key] >= best_cost[0]:
                continue
            search(uncovered - sets[key], cost + costs[key], picked + (key,))

    def solution_from(picked: Tuple[Hashable, ...]) -> CoverSolution:
        steps: List[CoverStep] = []
        covered_by: Dict = {}
        remaining = set(universe)
        for key in picked:
            newly = sets[key] & remaining
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
            remaining -= newly
        return CoverSolution(steps=tuple(steps), covered_by=covered_by)

    try:
        with obs_span(
            "cover.exact",
            universe=len(universe),
            sets=len(survivors),
            max_nodes=max_nodes,
        ):
            search(set(universe), 0.0, ())
    except BudgetExceeded as exc:
        incumbent = (
            solution_from(best_pick[0]) if best_pick[0] is not None else None
        )
        suffix = (
            " (incumbent cover attached)" if incumbent is not None
            else " (no incumbent found)"
        )
        raise CoverBudgetError(str(exc) + suffix, partial=incumbent) from exc
    if best_pick[0] is None:  # pragma: no cover - guarded by reachability
        raise GraphError("exact cover found no solution")
    return solution_from(best_pick[0])
