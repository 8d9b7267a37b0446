"""SolverBudget semantics and its plumbing through every NP-hard search."""

import pytest

from repro.errors import BudgetExceeded, CoverBudgetError, GraphError, ReproError
from repro.graph import (
    build_colored_graph,
    exact_weighted_set_cover,
    greedy_weighted_set_cover,
)
from repro.numrep import enumerate_msd
from repro.quantize import quantize_uniform, search_coefficients
from repro.robust import SolverBudget
from repro.robust.budget import HEARTBEAT_NODES

ADVERSARIAL_UNIVERSE = {1, 2, 3, 4, 5, 6}
ADVERSARIAL_SETS = {
    "half1": frozenset({1, 2, 3}),
    "half2": frozenset({4, 5, 6}),
    "trap1": frozenset({1, 4}),
    "trap2": frozenset({2, 5}),
    "trap3": frozenset({3, 6}),
}
ADVERSARIAL_COSTS = {
    "half1": 2.0, "half2": 2.0, "trap1": 1.0, "trap2": 1.0, "trap3": 1.0,
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSolverBudget:
    def test_unbounded_never_raises(self):
        budget = SolverBudget()
        budget.spend(10_000_000)
        assert not budget.exhausted
        assert budget.remaining_s is None
        assert budget.remaining_nodes is None

    def test_node_cap(self):
        budget = SolverBudget(max_nodes=3)
        budget.spend(3)
        assert not budget.exhausted
        with pytest.raises(BudgetExceeded, match="node budget"):
            budget.spend()
        assert budget.exhausted
        assert budget.nodes_used == 4

    def test_deadline_with_injected_clock(self):
        clock = FakeClock()
        budget = SolverBudget(deadline_s=10.0, clock=clock).start()
        budget.checkpoint()
        clock.now = 9.9
        budget.checkpoint()
        assert budget.remaining_s == pytest.approx(0.1)
        clock.now = 10.1
        with pytest.raises(BudgetExceeded, match="deadline"):
            budget.checkpoint()
        assert budget.remaining_s == 0.0

    def test_deadline_anchored_at_first_checkpoint(self):
        clock = FakeClock()
        clock.now = 100.0  # setup time before the budget is consulted
        budget = SolverBudget(deadline_s=5.0, clock=clock)
        budget.checkpoint()  # anchors here
        clock.now = 104.0
        budget.checkpoint()  # only 4s elapsed since the anchor

    def test_forced_exhaustion(self):
        budget = SolverBudget()
        budget.exhaust("test fault")
        with pytest.raises(BudgetExceeded, match="test fault"):
            budget.checkpoint()

    def test_partial_attached(self):
        budget = SolverBudget(max_nodes=0)
        with pytest.raises(BudgetExceeded) as info:
            budget.spend(partial="incumbent")
        assert info.value.partial == "incumbent"

    def test_quiet_units_end_before_a_heartbeat_or_the_cap(self):
        budget = SolverBudget(max_nodes=HEARTBEAT_NODES + 10)
        assert budget.quiet_units == HEARTBEAT_NODES - 1
        budget.spend_units(HEARTBEAT_NODES - 1)
        assert budget.quiet_units == 0  # the next unit fires a heartbeat
        budget.spend()
        assert budget.quiet_units == 10  # now the cap comes first
        budget.spend_units(10)
        assert budget.quiet_units == 0
        with pytest.raises(BudgetExceeded, match="node budget"):
            budget.spend()
        assert budget.quiet_units == 0

    def test_no_quiet_units_under_a_deadline_or_a_forced_reason(self):
        assert SolverBudget().quiet_units == HEARTBEAT_NODES - 1
        assert SolverBudget(deadline_s=5.0).quiet_units == 0
        forced = SolverBudget()
        forced.exhaust()
        assert forced.quiet_units == 0

    def test_invalid_limits(self):
        with pytest.raises(ReproError):
            SolverBudget(deadline_s=-1.0)
        with pytest.raises(ReproError):
            SolverBudget(max_nodes=-1)


class TestExactCoverBudget:
    def test_incumbent_carried_on_node_budget(self):
        """The budget error must carry the best complete cover found so far."""
        seen_incumbent = False
        for max_nodes in range(1, 40):
            try:
                exact_weighted_set_cover(
                    ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
                    max_nodes=max_nodes,
                )
            except CoverBudgetError as exc:
                if exc.partial is None:
                    continue
                seen_incumbent = True
                covered = set()
                for step in exc.partial.steps:
                    covered |= step.newly_covered
                assert covered == ADVERSARIAL_UNIVERSE
                continue
            break  # search completed: larger budgets cannot raise
        assert seen_incumbent

    def test_budget_error_is_graph_and_budget_error(self):
        """Backwards compatibility: callers catching GraphError still work."""
        with pytest.raises(GraphError):
            exact_weighted_set_cover(
                ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
                max_nodes=1,
            )
        with pytest.raises(BudgetExceeded):
            exact_weighted_set_cover(
                ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
                max_nodes=1,
            )

    def test_solver_budget_interrupts(self):
        budget = SolverBudget(max_nodes=3)
        with pytest.raises(CoverBudgetError):
            exact_weighted_set_cover(
                ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
                budget=budget,
            )
        assert budget.nodes_used == 4

    def test_unbudgeted_result_unchanged(self):
        solution = exact_weighted_set_cover(
            ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
            budget=SolverBudget(),
        )
        assert solution.total_cost == pytest.approx(3.0)


class TestGreedyCoverBudget:
    def test_partial_cover_attached(self):
        budget = SolverBudget(max_nodes=5)  # one pick costs len(sets) = 5
        with pytest.raises(BudgetExceeded) as info:
            greedy_weighted_set_cover(
                ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
                budget=budget,
            )
        partial = info.value.partial
        assert partial is not None
        assert len(partial.steps) <= 1

    def test_budget_large_enough_is_harmless(self):
        budgeted = greedy_weighted_set_cover(
            ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS,
            budget=SolverBudget(max_nodes=10_000),
        )
        free = greedy_weighted_set_cover(
            ADVERSARIAL_UNIVERSE, ADVERSARIAL_SETS, ADVERSARIAL_COSTS
        )
        assert budgeted.colors == free.colors


class TestMsdBudget:
    def test_enumeration_interrupted(self):
        with pytest.raises(BudgetExceeded):
            enumerate_msd(0b101010101010101, budget=SolverBudget(max_nodes=3))

    def test_budget_large_enough_matches_unbudgeted(self):
        value = 45
        assert enumerate_msd(value, budget=SolverBudget(max_nodes=10_000)) \
            == enumerate_msd(value)


class TestCoefficientSearchBudget:
    def test_partial_result_attached(self):
        quantized = quantize_uniform([0.9, 0.496, 0.25, 0.124], 10)
        with pytest.raises(BudgetExceeded) as info:
            search_coefficients(
                quantized, lambda taps: True, budget=SolverBudget(max_nodes=2)
            )
        partial = info.value.partial
        assert partial is not None
        assert partial.original == quantized.integers
        assert partial.improved_cost <= partial.original_cost

    def test_budget_large_enough_matches_unbudgeted(self):
        quantized = quantize_uniform([0.9, 0.496, 0.25, 0.124], 10)
        free = search_coefficients(quantized, lambda taps: True)
        budgeted = search_coefficients(
            quantized, lambda taps: True, budget=SolverBudget(max_nodes=100_000)
        )
        assert budgeted.improved == free.improved


class TestGraphBuildBudget:
    def test_build_interrupted(self):
        vertices = [3, 5, 7, 9, 11, 13, 15, 17, 19, 21]
        with pytest.raises(BudgetExceeded):
            build_colored_graph(vertices, 10, budget=SolverBudget(max_nodes=4))
