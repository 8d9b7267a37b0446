"""Equivalence lockdown: the bucketed greedy cover against the rescan loop.

``_reference_cover`` below is the original greedy: every pick rescans every
candidate set and keeps the best ``(f, frequency, -cost)`` rank, breaking
exact ties on :func:`_tie_order`.  The library's bucketed greedy must return
an equal :class:`CoverSolution` on every instance, raise on the same inputs,
and under every node cap stop at the same pick with an equal partial cover
and the same ``nodes_used``.
"""

from typing import Dict, Hashable, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MrpOptions, lower_plan, mrp, optimize
from repro.core.sidc import normalize_taps
from repro.errors import BudgetExceeded, GraphError
from repro.eval import BETA_SWEEP, best_mrpf, experiments
from repro.filters import benchmark_suite
from repro.graph import (
    CoverIndex,
    CoverSolution,
    CoverStep,
    benefit,
    build_colored_graph,
    greedy_weighted_set_cover,
)
from repro.graph import colored
from repro.quantize import ScalingScheme, quantize
from repro.robust import SolverBudget

BETAS = (0.0, 0.3, 0.5, 0.7, 1.0)


def _tie_order(key: Hashable) -> Tuple[int, str]:
    text = repr(key)
    return (len(text), text)


def _reference_cover(universe, sets, costs, beta=0.5, element_weights=None,
                     strategy="benefit", budget=None) -> CoverSolution:
    """The rescan-every-set greedy the bucketed greedy replaced."""
    if not 0.0 <= beta <= 1.0:
        raise GraphError(f"beta must be in [0, 1], got {beta}")
    if strategy not in ("benefit", "savings"):
        raise GraphError(f"unknown cover strategy {strategy!r}")
    weights = element_weights if element_weights is not None else {}
    uncovered: Set = set(universe)
    reachable: Set = set()
    for members in sets.values():
        reachable |= members
    missing = uncovered - reachable
    if missing:
        raise GraphError(f"elements {sorted(missing)!r} appear in no candidate set")
    sets_of_element: Dict[Hashable, List[Hashable]] = {}
    for key, members in sets.items():
        for element in members:
            sets_of_element.setdefault(element, []).append(key)
    remaining_count: Dict[Hashable, int] = {}
    remaining_weight: Dict[Hashable, float] = {}
    for key, members in sets.items():
        live = members & uncovered
        remaining_count[key] = len(live)
        remaining_weight[key] = sum(weights.get(e, 1.0) for e in live)
    steps: List[CoverStep] = []
    covered_by: Dict = {}
    while uncovered:
        if budget is not None:
            try:
                budget.spend(max(1, len(remaining_count)))
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    str(exc),
                    partial=CoverSolution(
                        steps=tuple(steps), covered_by=dict(covered_by)
                    ),
                ) from exc
        best_key = None
        best_rank = (float("-inf"), 0.0, 0.0)
        for key, frequency in remaining_count.items():
            if frequency == 0:
                continue
            if strategy == "savings":
                f = remaining_weight[key] - costs[key]
            else:
                f = benefit(remaining_weight[key], costs[key], beta)
            rank = (f, frequency, -costs[key])
            if (
                best_key is None
                or rank > best_rank
                or (rank == best_rank and _tie_order(key) < _tie_order(best_key))
            ):
                best_key, best_rank = key, rank
        newly = sets[best_key] & uncovered
        steps.append(CoverStep(
            color=best_key,
            benefit=best_rank[0],
            frequency=len(newly),
            cost=costs[best_key],
            newly_covered=frozenset(newly),
        ))
        for element in newly:
            covered_by[element] = best_key
            for key in sets_of_element.get(element, ()):
                remaining_count[key] -= 1
                remaining_weight[key] -= weights.get(element, 1.0)
        uncovered -= newly
    return CoverSolution(steps=tuple(steps), covered_by=covered_by)


def _outcome(solver, *args, cap=None, **kwargs):
    """(solution or partial, exception type, nodes used) of one run."""
    budget = SolverBudget(max_nodes=cap) if cap is not None else None
    try:
        solution = solver(*args, budget=budget, **kwargs)
        error = None
    except BudgetExceeded as exc:
        solution, error = exc.partial, BudgetExceeded
    except (GraphError, TypeError) as exc:  # TypeError: unsortable missing
        solution, error = None, type(exc)
    return solution, error, budget.nodes_used if budget is not None else None


def _assert_same(universe, sets, costs, beta, weights, strategy, caps=(None,),
                 index=None):
    for cap in caps:
        expected = _outcome(_reference_cover, universe, sets, costs, beta,
                            weights, strategy, cap=cap)
        actual = _outcome(greedy_weighted_set_cover, universe, sets, costs,
                          beta, weights, strategy, cap=cap, index=index)
        assert actual == expected, f"cap={cap}"


# -- hypothesis instances ------------------------------------------------------

_int_keys = st.integers(min_value=-3, max_value=40)
_str_keys = st.sampled_from(["a", "b", "c", "aa", "ab", "ba", "b1", "10", "9"])


@st.composite
def set_systems(draw, weighted=False):
    """Small set systems with heavy rank ties; keys int, str or mixed."""
    elements = draw(st.sampled_from([
        list(range(6)), ["u", "v", "w", "x", "y"], [0, 1, "x", "y", None],
    ]))
    key_kind = draw(st.sampled_from(["int", "str", "mixed"]))
    keys = {"int": _int_keys, "str": _str_keys,
            "mixed": st.one_of(_int_keys, _str_keys)}[key_kind]
    members = st.frozensets(st.sampled_from(elements + ["outside"]), max_size=4)
    sets = draw(st.dictionaries(keys, members, max_size=12))
    costs = {
        key: draw(st.sampled_from([1.0, 1.0, 1.0, 2.0, 2.0, 0.0, 0.5]))
        for key in sets
    }
    universe = set(draw(st.lists(st.sampled_from(elements), max_size=6)))
    universe.add(elements[0])
    if draw(st.booleans()):
        # Mostly coverable: one set per element guarantees reachability.
        for n, element in enumerate(sorted(universe, key=repr)):
            sets.setdefault(f"z{n}", frozenset({element}))
            costs.setdefault(f"z{n}", 2.0)
    weights = draw(st.one_of(
        st.nothing() if weighted else st.none(),
        st.dictionaries(
            st.sampled_from(elements),
            st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5, 3]),
        ),
    ))
    return universe, sets, costs, weights


@given(system=set_systems(), beta=st.sampled_from(BETAS),
       strategy=st.sampled_from(["benefit", "savings"]))
def test_random_instances_match_reference(system, beta, strategy):
    universe, sets, costs, weights = system
    free = _outcome(_reference_cover, universe, sets, costs, beta, weights,
                    strategy, cap=10**9)
    caps = [None] + list(range(0, (free[2] or 0) + 2))
    _assert_same(universe, sets, costs, beta, weights, strategy, caps)


@settings(max_examples=300)
@given(system=set_systems(weighted=True))
def test_beta_zero_ties_span_buckets(system):
    # At beta = 0 the score ignores the remaining weight, so colors in
    # different buckets (states) tie and the smallest head among them wins.
    universe, sets, costs, weights = system
    _assert_same(universe, sets, costs, 0.0, weights, "benefit")


def test_tie_across_buckets_after_a_head_dies():
    # "a" and "c" share a state, "b" has another; all three tie at beta = 0.
    # Once "a" is picked, "b" (the smaller remaining head) must beat "c"
    # although the bucket of "a" and "c" was created first.
    sets = {"c": frozenset({2}), "b": frozenset({1}), "a": frozenset({0})}
    costs = {"a": 1.0, "b": 1.0, "c": 1.0}
    weights = {0: 2.0, 2: 2.0}
    solution = greedy_weighted_set_cover({0, 1, 2}, sets, costs, 0.0, weights)
    assert solution.colors == ("a", "b", "c")
    _assert_same({0, 1, 2}, sets, costs, 0.0, weights, "benefit")


@given(system=set_systems(), strategy=st.sampled_from(["benefit", "savings"]))
def test_one_index_serves_every_beta(system, strategy):
    universe, sets, costs, weights = system
    index = CoverIndex(universe, sets, costs, weights)
    for beta in BETAS:
        _assert_same(universe, sets, costs, beta, weights, strategy,
                     index=index)


def test_index_for_other_inputs_is_rejected():
    sets = {"a": frozenset({1, 2})}
    costs = {"a": 1.0}
    index = CoverIndex({1, 2}, sets, costs)
    with pytest.raises(GraphError):
        greedy_weighted_set_cover({1, 2}, dict(sets), costs, index=index)
    with pytest.raises(GraphError):
        greedy_weighted_set_cover({1}, sets, costs, index=index)
    with pytest.raises(GraphError):
        greedy_weighted_set_cover({1, 2}, sets, costs,
                                  element_weights={1: 2.0}, index=index)


# -- the benchmark suite -------------------------------------------------------

SUITE_POINTS = [
    (index, wordlength, scaling)
    for index in range(12)
    for wordlength in (8, 12, 16, 20)
    for scaling in ("uniform", "maximal")
]


@pytest.mark.parametrize(
    "point", SUITE_POINTS, ids=lambda p: f"f{p[0]}-w{p[1]}-{p[2]}"
)
def test_suite_graph_covers_match_reference(point):
    filter_index, wordlength, scaling = point
    q = quantize(benchmark_suite()[filter_index].folded, wordlength,
                 ScalingScheme(scaling))
    vertices, _ = normalize_taps(q.integers)
    if len(vertices) < 2:
        pytest.skip("a single primary coefficient needs no cover")
    graph = build_colored_graph(vertices, wordlength)
    universe = set(vertices)
    for strategy, betas in (("benefit", BETA_SWEEP), ("savings", (0.5,))):
        index = graph.cover_index(strategy)
        for beta in betas:
            _assert_same(universe, index.sets, index.costs, beta,
                         index.element_weights, strategy, index=index)
    # Caps on either side of the first pick's charge: one stops before any
    # pick, the other lets exactly one pick through.
    index = graph.cover_index("benefit")
    charge = max(1, len(index.sets))
    caps = (charge - 1, charge)
    _assert_same(universe, index.sets, index.costs, 0.5, None, "benefit",
                 caps, index=index)


def test_cover_index_built_once_per_graph_and_strategy(monkeypatch):
    built = []

    class CountingIndex(CoverIndex):
        def __init__(self, *args, **kwargs):
            built.append(args[3])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(colored, "CoverIndex", CountingIndex)
    taps = [5, 22, 45, 89, 45, 22, 5]
    best_mrpf(taps, 7)
    assert built == [None]  # four betas, one graph, one "benefit" index
    graph = build_colored_graph(normalize_taps(taps)[0], 7)
    assert graph.cover_index("savings") is graph.cover_index("savings")
    assert graph.cover_index("benefit") is graph.cover_index("benefit")
    assert len(built) == 3


def test_cover_index_mappings_are_read_only():
    graph = build_colored_graph(normalize_taps([5, 22, 45, 89, 45, 22, 5])[0], 7)
    index = graph.cover_index("benefit")
    assert index.sets.keys() == graph.colors
    for color, members in index.sets.items():
        assert members == graph.color_set(color)
        assert index.costs[color] == graph.color_cost(color)
    color = next(iter(graph.colors))
    with pytest.raises(TypeError):
        index.sets[color] = frozenset()
    with pytest.raises(TypeError):
        index.costs[color] = 0.0


def test_best_mrpf_lowers_each_distinct_cover_once(monkeypatch):
    q = quantize(benchmark_suite()[3].folded, 12, ScalingScheme.MAXIMAL)
    taps = q.integers
    # Every beta lowered, as before repeated covers were skipped.
    plans = [optimize(taps, 12, MrpOptions(beta=beta)) for beta in BETA_SWEEP]
    lowered = [lower_plan(plan) for plan in plans]
    distinct = {plan.solution_colors for plan in plans}
    assert len(distinct) < len(plans)  # the point exercises a repeat

    calls = []

    def counting(plan, *args, **kwargs):
        calls.append(plan)
        return lower_plan(plan, *args, **kwargs)

    monkeypatch.setattr(experiments, "lower_plan", counting)
    best = best_mrpf(taps, 12)
    assert len(calls) == 1 + len(distinct)  # the trivial floor, then each cover
    floor = lower_plan(mrp.trivial_plan(taps))
    assert best.adder_count == min(
        [floor.adder_count] + [arch.adder_count for arch in lowered]
    )
