"""Unit + property tests for the exact branch-and-bound set cover."""

import contextlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sidc import normalize_taps
from repro.errors import BudgetExceeded, CoverBudgetError, GraphError
from repro.filters import benchmark_filter
from repro.graph import build_colored_graph, greedy_weighted_set_cover
from repro.graph.exact_cover import exact_weighted_set_cover, prune_dominated_sets
from repro.graph.setcover import CoverSolution, CoverStep
from repro.quantize import ScalingScheme, quantize
from repro.robust.budget import HEARTBEAT_NODES, SolverBudget


def brute_force_optimum(universe, sets, costs):
    """Reference: try every subset of sets (exponential, tests only)."""
    best = None
    keys = list(sets)
    for r in range(1, len(keys) + 1):
        for combo in itertools.combinations(keys, r):
            covered = set()
            for k in combo:
                covered |= sets[k]
            if universe <= covered:
                cost = sum(costs[k] for k in combo)
                if best is None or cost < best:
                    best = cost
        if best is not None and r >= 2:
            # keep scanning — a larger combo of cheap sets may still win
            continue
    return best


def pairwise_prune(sets, costs):
    """Oracle for dominance pruning: test each set against every kept one."""
    keys = sorted(sets, key=lambda k: (costs[k], -len(sets[k]), repr(k)))
    survivors = []
    for key in keys:
        if not any(sets[key] <= sets[kept] and costs[kept] <= costs[key]
                   for kept in survivors):
            survivors.append(key)
    return survivors


class TestDominancePruning:
    def test_subset_at_higher_cost_pruned(self):
        sets = {"big": frozenset({1, 2, 3}), "small": frozenset({1, 2})}
        costs = {"big": 1.0, "small": 2.0}
        assert prune_dominated_sets(sets, costs) == ["big"]

    def test_subset_at_lower_cost_kept(self):
        sets = {"big": frozenset({1, 2, 3}), "small": frozenset({1, 2})}
        costs = {"big": 5.0, "small": 1.0}
        survivors = prune_dominated_sets(sets, costs)
        assert set(survivors) == {"big", "small"}

    def test_duplicates_collapse(self):
        sets = {"a": frozenset({1}), "b": frozenset({1})}
        costs = {"a": 1.0, "b": 1.0}
        assert len(prune_dominated_sets(sets, costs)) == 1

    def test_equal_sets_keep_the_key_whose_repr_sorts_first(self):
        # "11" < "3" as strings: the key with the smaller repr survives,
        # not the smaller key.
        sets = {3: frozenset({1, 2}), 11: frozenset({1, 2}), 5: frozenset({1})}
        costs = {3: 1.0, 11: 1.0, 5: 1.0}
        assert prune_dominated_sets(sets, costs) == [11]

    def test_pinned_survivor_order(self):
        sets = {
            3: frozenset({1, 2}), 11: frozenset({1, 2}), 7: frozenset({3}),
            -2: frozenset({3, 4}), 20: frozenset({1, 2, 3, 4}),
            100: frozenset({4}), 9: frozenset({2}),
        }
        costs = {3: 1.0, 11: 1.0, 7: 1.0, -2: 2.0, 20: 4.0, 100: 0.5,
                 9: 0.5}
        assert prune_dominated_sets(sets, costs) == [100, 9, 11, 7, -2, 20]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_scan(self, data):
        """Same survivors, in the same order, as a scan of every kept set."""
        sets = {}
        for key in data.draw(st.lists(st.integers(-20, 20), min_size=1,
                                      max_size=12, unique=True)):
            sets[key] = frozenset(data.draw(st.sets(st.integers(0, 5),
                                                    max_size=4)))
        costs = {k: float(data.draw(st.integers(0, 3))) for k in sets}
        assert prune_dominated_sets(sets, costs) == pairwise_prune(sets, costs)


class TestExactCover:
    def test_guard_on_universe_size(self):
        universe = set(range(30))
        sets = {"all": frozenset(universe)}
        with pytest.raises(GraphError):
            exact_weighted_set_cover(universe, sets, {"all": 1.0})

    def test_unreachable_element(self):
        with pytest.raises(GraphError):
            exact_weighted_set_cover({1, 2}, {"a": frozenset({1})}, {"a": 1.0})

    def test_beats_greedy_on_adversarial_instance(self):
        """The classic greedy trap: one covering set vs log-many partials."""
        universe = {1, 2, 3, 4, 5, 6}
        sets = {
            "half1": frozenset({1, 2, 3}),
            "half2": frozenset({4, 5, 6}),
            "trap": frozenset({1, 4}),
            "trap2": frozenset({2, 5}),
            "trap3": frozenset({3, 6}),
        }
        costs = {"half1": 2.0, "half2": 2.0, "trap": 1.0, "trap2": 1.0,
                 "trap3": 1.0}
        exact = exact_weighted_set_cover(universe, sets, costs)
        assert exact.total_cost == pytest.approx(3.0)  # the three traps

    def test_solution_is_a_cover(self):
        universe = {1, 2, 3, 4}
        sets = {"a": frozenset({1, 2}), "b": frozenset({3}), "c": frozenset({3, 4})}
        costs = {"a": 1.0, "b": 1.0, "c": 1.5}
        solution = exact_weighted_set_cover(universe, sets, costs)
        covered = set()
        for step in solution.steps:
            covered |= step.newly_covered
        assert covered == universe

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, data):
        universe = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=6))
        num_sets = data.draw(st.integers(2, 6))
        sets = {}
        for i in range(num_sets):
            members = data.draw(
                st.sets(st.sampled_from(sorted(universe)), min_size=1, max_size=5)
            )
            sets[f"s{i}"] = frozenset(members)
        sets["all"] = frozenset(universe)
        costs = {k: float(data.draw(st.integers(1, 5))) for k in sets}
        exact = exact_weighted_set_cover(universe, sets, costs)
        assert exact.total_cost == pytest.approx(
            brute_force_optimum(universe, sets, costs)
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_greedy_never_beats_exact(self, data):
        universe = data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=8))
        num_sets = data.draw(st.integers(1, 7))
        sets = {"all": frozenset(universe)}
        for i in range(num_sets):
            members = data.draw(
                st.sets(st.sampled_from(sorted(universe)), min_size=1, max_size=6)
            )
            sets[f"s{i}"] = frozenset(members)
        costs = {k: float(data.draw(st.integers(1, 6))) for k in sets}
        exact = exact_weighted_set_cover(universe, sets, costs)
        greedy = greedy_weighted_set_cover(universe, sets, costs, beta=0.5)
        assert exact.total_cost <= greedy.total_cost + 1e-9


def per_node_exact_cover(universe, sets, costs, max_universe=18,
                         max_nodes=2_000_000, budget=None):
    """Oracle: the solver as it was, recomputing its per-element facts.

    At every node it looks up each uncovered element's cheapest candidate
    and branch rank again, and it freezes the universe once per set.
    """
    universe = set(universe)
    if len(universe) > max_universe:
        raise GraphError("universe too large")
    reachable = set()
    for members in sets.values():
        reachable |= members
    if universe - reachable:
        raise GraphError("uncoverable element")
    survivors = prune_dominated_sets(
        {k: sets[k] & frozenset(universe) for k in sets}, costs
    )
    candidates_of = {}
    for element in universe:
        candidates_of[element] = sorted(
            (k for k in survivors if element in sets[k]),
            key=lambda k: (costs[k], repr(k)),
        )
    best_cost = [float("inf")]
    best_pick = [None]
    nodes = [0]

    def lower_bound(uncovered):
        bound = 0.0
        for element in uncovered:
            cheapest = costs[candidates_of[element][0]]
            bound = max(bound, cheapest)
        return bound

    def search(uncovered, cost, picked):
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
        element = min(
            uncovered, key=lambda e: (len(candidates_of[e]), repr(e))
        )
        for key in candidates_of[element]:
            if cost + costs[key] >= best_cost[0]:
                continue
            search(uncovered - sets[key], cost + costs[key], picked + (key,))

    def solution_from(picked):
        steps = []
        covered_by = {}
        remaining = set(universe)
        for key in picked:
            newly = sets[key] & remaining
            steps.append(CoverStep(
                color=key, benefit=0.0, frequency=len(newly),
                cost=costs[key], newly_covered=frozenset(newly),
            ))
            for element in newly:
                covered_by[element] = key
            remaining -= newly
        return CoverSolution(steps=tuple(steps), covered_by=covered_by)

    try:
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
    return solution_from(best_pick[0])


class RecordingBudget(SolverBudget):
    """A budget that records its node count at every heartbeat."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.beats = []

    def _heartbeat(self):
        super()._heartbeat()
        self.beats.append(self.nodes_used)


def ticking_clock(step=1.0):
    """A clock that moves ``step`` seconds at every reading."""
    ticks = itertools.count()
    return lambda: next(ticks) * step


def run_budgeted(solver, universe, sets, costs, max_nodes, budget):
    """``(outcome, cover, nodes, message, heartbeats)`` of one solve."""
    try:
        cover = solver(universe, sets, costs, max_nodes=max_nodes, budget=budget)
    except CoverBudgetError as exc:
        return ("exhausted", exc.partial, budget.nodes_used, str(exc),
                budget.beats)
    return "solved", cover, budget.nodes_used, None, budget.beats


def run_capped(solver, universe, sets, costs, max_nodes, budget_nodes,
               precharge=0):
    """One solve under both caps, after ``precharge`` units of earlier work.

    The budget always counts the nodes; ``budget_nodes`` caps it (``None``:
    no cap), ``max_nodes`` is the solver's own cap.
    """
    budget = RecordingBudget(max_nodes=budget_nodes).start()
    with contextlib.suppress(BudgetExceeded):
        budget.spend_units(precharge)
    return run_budgeted(solver, universe, sets, costs, max_nodes, budget)


def assert_same_solve(universe, sets, costs, max_nodes, budget_nodes,
                      precharge=0):
    """Same outcome, cover, nodes, message and heartbeats as the oracle.

    Returns ``(outcome, cover, nodes spent)``.
    """
    expected = run_capped(per_node_exact_cover, universe, sets, costs,
                          max_nodes, budget_nodes, precharge)
    actual = run_capped(exact_weighted_set_cover, universe, sets, costs,
                        max_nodes, budget_nodes, precharge)
    assert actual == expected
    return expected[:3]


def sidc_instance():
    """Suite filter 1 at W=14, maximal scaling: 13 vertices, 4,495 colors."""
    taps = quantize(
        benchmark_filter(1).folded, 14, ScalingScheme.MAXIMAL
    ).integers
    vertices, _ = normalize_taps(taps)
    sets, costs = build_colored_graph(vertices, 14).cover_inputs()
    return set(vertices), sets, costs


#: Elements and keys of other types than int: each is ordered by its repr.
OTHER_HASHABLES = st.one_of(
    st.text(alphabet="ab1", min_size=1, max_size=3),
    st.tuples(st.integers(-2, 2), st.text(alphabet="xy", max_size=2)),
    st.integers(-30, -1),
)


CAPS = (1, 2, 3, 5, 8, 13, 40, 200, 2_000_000)


class TestExactCoverOracle:
    """Same search tree as the per-node oracle: cover, nodes and incumbent."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_instances_under_every_cap(self, data):
        universe = data.draw(st.sets(st.integers(0, 11), min_size=1, max_size=10))
        sets = {"all": frozenset(universe)}
        for i in range(data.draw(st.integers(1, 12))):
            sets[f"s{i}"] = frozenset(data.draw(
                st.sets(st.sampled_from(sorted(universe)), min_size=1, max_size=6)
            ))
        costs = {k: float(data.draw(st.integers(1, 6))) for k in sets}
        for cap in CAPS:
            assert_same_solve(universe, sets, costs, cap, None)
            assert_same_solve(universe, sets, costs, 2_000_000, cap)

    def test_sidc_instance_under_every_cap(self):
        # Suite filter 1 at W=14, maximal scaling: 13 vertices, 4,495 colors,
        # a search of a few thousand nodes.
        universe, sets, costs = sidc_instance()
        outcomes = []
        for cap in CAPS + (1_000, 4_000):
            outcomes.append(
                assert_same_solve(universe, sets, costs, cap, None)
            )
            assert_same_solve(universe, sets, costs, 2_000_000, cap)
        # The caps stop the search with and without an incumbent, and let
        # it finish.
        kinds = {(kind, cover is not None) for kind, cover, _ in outcomes}
        assert kinds == {
            ("exhausted", False), ("exhausted", True), ("solved", True)
        }

    def test_precharged_budgets_around_heartbeats_and_caps(self):
        # A cascade charges graph-build units to the budget before the
        # solve, so the solve starts anywhere relative to the next
        # heartbeat and to the cap.
        universe, sets, costs = sidc_instance()
        _, _, nodes = assert_same_solve(universe, sets, costs, 2_000_000, None)
        assert nodes > HEARTBEAT_NODES // 4
        heartbeats = 0
        for precharge in (
            HEARTBEAT_NODES - 1, HEARTBEAT_NODES, HEARTBEAT_NODES + 1,
            2 * HEARTBEAT_NODES - nodes // 2,
        ):
            for cap in (None, precharge + nodes // 2, precharge + nodes):
                assert_same_solve(universe, sets, costs, 2_000_000, cap,
                                  precharge)
            heartbeats += len(run_capped(
                exact_weighted_set_cover, universe, sets, costs, 2_000_000,
                None, precharge,
            )[4])
        assert heartbeats >= 4  # each precharge crosses a heartbeat
        cap = 3_000
        for precharge in (cap - 1, cap, cap + 1):
            for max_nodes in (1, 2_000_000):
                assert_same_solve(universe, sets, costs, max_nodes, cap,
                                  precharge)
        kind, cover, spent = assert_same_solve(
            universe, sets, costs, 2_000_000, cap, cap + 1
        )
        assert (kind, cover, spent) == ("exhausted", None, cap + 2)

    def test_deadline_on_a_ticking_clock(self):
        # A deadline is checked at every node: with a clock that moves at
        # every reading, the solve stops at the oracle's node.
        universe, sets, costs = sidc_instance()
        stops = set()
        for deadline_s in (0.0, 3.0, 40.0, 700.0, 5_000.0, 1e9):
            for max_nodes in (25, 2_000_000):
                expected, actual = (
                    run_budgeted(
                        solver, universe, sets, costs, max_nodes,
                        RecordingBudget(deadline_s=deadline_s,
                                        clock=ticking_clock()),
                    )
                    for solver in (per_node_exact_cover,
                                   exact_weighted_set_cover)
                )
                assert actual == expected
                stops.add(expected[0])
        assert stops == {"exhausted", "solved"}

    def test_forced_exhaustion_stops_at_the_first_node(self):
        universe, sets, costs = sidc_instance()
        outcomes = []
        for solver in (per_node_exact_cover, exact_weighted_set_cover):
            budget = RecordingBudget()
            budget.exhaust()
            outcomes.append(run_budgeted(
                solver, universe, sets, costs, 2_000_000, budget
            ))
        assert outcomes[0] == outcomes[1] == (
            "exhausted", None, 1,
            "solver budget exhausted: forced exhaustion (no incumbent found)",
            [],
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_str_tuple_and_negative_int_elements_and_keys(self, data):
        universe = data.draw(st.sets(OTHER_HASHABLES, min_size=1, max_size=8))
        keys = data.draw(st.lists(OTHER_HASHABLES, min_size=1, max_size=9,
                                  unique=True))
        sets = {
            key: frozenset(data.draw(st.sets(
                st.sampled_from(sorted(universe, key=repr)), max_size=5
            )))
            for key in keys
        }
        sets["all"] = frozenset(universe)
        costs = {k: float(data.draw(st.integers(1, 6))) for k in sets}
        for cap in CAPS:
            assert_same_solve(universe, sets, costs, cap, None)
            assert_same_solve(universe, sets, costs, 2_000_000, cap)

    def test_empty_universe(self):
        for sets in ({}, {"a": frozenset({1}), -1: frozenset()}):
            costs = {k: 1.0 for k in sets}
            for cap in (0, 1, 2_000_000):
                assert_same_solve(set(), sets, costs, cap, None)
                assert_same_solve(set(), sets, costs, 2_000_000, cap)
            kind, cover, nodes = assert_same_solve(
                set(), sets, costs, 2_000_000, None
            )
            assert (kind, cover.steps, nodes) == ("solved", (), 1)
