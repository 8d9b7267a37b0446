"""Work shared by one robust cascade: one graph and one exact solve each.

:func:`repro.robust.synthesize` builds each SIDC graph once per
``(max_shift, representation)`` and replays a β-only exact retry from the
first solve.  The oracle here is the standalone path: every attempt,
rerun on its own through :func:`repro.core.mrp.optimize` with a freshly
built graph and a fresh ``SolverBudget(max_nodes=config.max_nodes)``, must
end at the same stage with the same error and warnings.
"""

from dataclasses import replace

import pytest

import repro.core.mrp as mrp
import repro.robust.degrade as degrade
from repro.arch.simulate import verify_against_convolution
from repro.core.mrp import MrpOptions, optimize, sidc_graph, trivial_plan
from repro.core.sidc import normalize_taps
from repro.core.transform import lower_plan
from repro.errors import BudgetExceeded, CoverBudgetError
from repro.filters import benchmark_filter
from repro.numrep import Representation
from repro.obs import metrics as obs_metrics
from repro.quantize import ScalingScheme, quantize
from repro.robust import ChaosHarness, RobustConfig, SolverBudget, synthesize
from repro.robust.degrade import _exact_cover_fn
from repro.verify import release_audit

#: 14 primary coefficients at W=12: the exact tier is tractable but needs
#: more than a few hundred nodes, and the graph has ~4.4k colors, so small
#: node caps exhaust either tier at a chosen point.
COEFFS = [3781, 2175, 121, 3445, 1911, 3181, 3867, 1023, 2661, 215, 3693,
          645, 467, 1525]
WORDLENGTH = 12
PAIRS = 14 * 13  # what one graph build charges the budget


def standalone(tier, coefficients, wordlength, attempt, config,
               forced=None):
    """``(stage, outcome, error_type, error)`` and warnings of one attempt
    rerun on its own: fresh graph, fresh budget, no memo."""
    options = replace(
        MrpOptions(), beta=attempt.beta, max_shift=attempt.max_shift,
        representation=Representation(attempt.representation),
    )
    budget = SolverBudget(max_nodes=config.max_nodes)
    warnings = []
    stage = "plan"
    try:
        if forced is not None:
            budget.exhaust(forced)
            budget.checkpoint()
        if tier == "trivial":
            plan = trivial_plan(coefficients, options)
        elif tier == "greedy":
            plan = optimize(coefficients, wordlength, options, budget=budget)
        else:
            plan = optimize(
                coefficients, wordlength, options, budget=budget,
                cover_fn=_exact_cover_fn(config, budget, warnings),
            )
        stage = "lower"
        architecture = lower_plan(plan, config.seed_compression)
        stage = "verify"
        verify_against_convolution(
            architecture.netlist, architecture.tap_names, list(coefficients),
            list(config.verify_samples),
        )
        release_audit(
            architecture.netlist, architecture.tap_names, list(coefficients),
            input_bits=config.release_audit_input_bits,
        )
    except Exception as exc:  # noqa: BLE001 — mirrors the cascade
        outcome = "quarantined" if stage == "verify" else "failed"
        return (stage, outcome, type(exc).__name__, str(exc)), warnings
    return ("done", "ok", None, None), warnings


def assert_matches_standalone(result, config, forced_at=()):
    """Check every attempt against :func:`standalone`; return the warnings
    the standalone attempts gave, in order."""
    expected_warnings = []
    for index, attempt in enumerate(result.attempts):
        forced = (
            "chaos-injected deadline at stage 'plan'"
            if index in forced_at else None
        )
        expected, warnings = standalone(
            attempt.tier, COEFFS, WORDLENGTH, attempt, config, forced
        )
        actual = (attempt.stage, attempt.outcome, attempt.error_type,
                  attempt.error)
        assert actual == expected, (index, attempt)
        expected_warnings.extend(warnings)
    return expected_warnings


@pytest.fixture
def spies(monkeypatch):
    """Count graph builds and exact solves made inside the cascade."""
    calls = {"build": [], "exact": 0}
    real_build = mrp.build_colored_graph
    real_exact = degrade.exact_weighted_set_cover

    def build(vertices, max_shift, representation, budget=None):
        calls["build"].append((max_shift, representation))
        return real_build(vertices, max_shift, representation, budget=budget)

    def exact(*args, **kwargs):
        calls["exact"] += 1
        return real_exact(*args, **kwargs)

    monkeypatch.setattr(mrp, "build_colored_graph", build)
    monkeypatch.setattr(degrade, "exact_weighted_set_cover", exact)
    return calls


def run(config, spies, chaos=None):
    """Run the cascade, counting only its own calls (not the oracle's)."""
    result = synthesize(COEFFS, WORDLENGTH, config=config, chaos=chaos)
    counted = dict(spies, build=list(spies["build"]))
    spies["build"].clear()
    spies["exact"] = 0
    return result, counted


def distinct_keys(attempts):
    keys = set()
    for a in attempts:
        if a.tier == "trivial":
            continue
        shift = a.max_shift if a.max_shift is not None else WORDLENGTH
        keys.add((shift, Representation(a.representation)))
    return keys


class TestGraphReuse:
    def test_greedy_exhaustion_across_beta_retries(self, spies):
        config = RobustConfig(tiers=("greedy", "trivial"), max_nodes=10_000)
        result, calls = run(config, spies)
        greedy = [a for a in result.attempts if a.tier == "greedy"]
        assert [a.beta for a in greedy] == [0.5, 0.25, 0.75]
        assert all("greedy cover interrupted" in a.error for a in greedy)
        assert result.tier == "trivial"
        assert calls["build"] == [(WORDLENGTH, Representation.CSD)]
        assert assert_matches_standalone(result, config) == []

    def test_six_retries_build_one_graph_per_set_system(self, spies):
        config = RobustConfig(max_nodes=250, max_retries=6)
        result, calls = run(config, spies)
        tiers = [a.tier for a in result.attempts]
        assert tiers == ["exact"] * 7 + ["greedy"] * 7 + ["trivial"]
        keys = distinct_keys(result.attempts)
        assert keys == {
            (WORDLENGTH, Representation.CSD),
            (WORDLENGTH, Representation.SM),
            (WORDLENGTH // 2, Representation.CSD),
        }
        assert sorted(calls["build"], key=repr) == sorted(keys, key=repr)
        # One exact solve per set system; the four β-only retries replay.
        assert calls["exact"] == 3
        warnings = assert_matches_standalone(result, config)
        assert list(result.warnings) == warnings

    def test_reused_graph_charges_the_build(self):
        vertices, _ = normalize_taps(COEFFS)
        options = MrpOptions()
        built = {}
        sidc_graph(vertices, WORDLENGTH, options, SolverBudget(), built)
        for cap in (0, 1, PAIRS - 1, PAIRS, PAIRS + 1):
            fresh, reused = (SolverBudget(max_nodes=cap) for _ in range(2))
            outcomes = []
            for budget, memo in ((fresh, None), (reused, built)):
                try:
                    sidc_graph(vertices, WORDLENGTH, options, budget, memo)
                    outcomes.append(None)
                except BudgetExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], cap
            assert fresh.nodes_used == reused.nodes_used
        assert reused.nodes_used == PAIRS


class TestExactReplay:
    def test_exhaustion_with_incumbent(self, spies):
        config = RobustConfig(max_nodes=250)
        result, calls = run(config, spies)
        exact = [a for a in result.attempts if a.tier == "exact"]
        assert [a.beta for a in exact] == [0.5, 0.25, 0.75]
        assert calls["exact"] == 1
        assert calls["build"] == [(WORDLENGTH, Representation.CSD)]
        warnings = assert_matches_standalone(result, config)
        assert len(warnings) == 3 and "incumbent" in warnings[0]
        assert list(result.warnings) == warnings

    def test_exhaustion_without_incumbent(self, spies):
        config = RobustConfig(max_nodes=PAIRS + 3)
        result, calls = run(config, spies)
        exact = [a for a in result.attempts if a.tier == "exact"]
        assert len(exact) == 3
        assert all(a.error.endswith("(no incumbent found)") for a in exact)
        assert calls["exact"] == 1
        assert assert_matches_standalone(result, config) == []
        assert result.warnings == ()

    def test_chaos_exhausted_retry_is_neither_memoized_nor_replayed(
            self, spies):
        config = RobustConfig(max_nodes=250)
        chaos = ChaosHarness(seed=10, stages=("plan",), faults=("deadline",),
                             rate=0.5, max_injections=1)
        result, calls = run(config, spies, chaos=chaos)
        forced = [i for i, a in enumerate(result.attempts)
                  if "chaos-injected" in (a.error or "")]
        assert forced == [1]
        assert calls["exact"] == 1  # attempt 2 replays attempt 0
        warnings = assert_matches_standalone(result, config, forced_at={1})
        assert list(result.warnings) == warnings

    def test_deadline_bypasses_the_memo(self, spies):
        config = RobustConfig(max_nodes=250, deadline_s=600.0)
        result, calls = run(config, spies)
        exact = [a for a in result.attempts if a.tier == "exact"]
        assert len(exact) == 3
        assert calls["exact"] == 3
        # The graph is still shared: it does not depend on the clock.
        assert calls["build"] == [(WORDLENGTH, Representation.CSD)]
        warnings = assert_matches_standalone(result, config)
        assert list(result.warnings) == warnings


class TestIncumbentNotReleased:
    def test_filter3_w20_maximal_releases_greedy(self, monkeypatch):
        """Pinned: the exact tier's incumbent is never released under a
        node budget.  On this design it would cost 38 (greedy: 41) yet need
        91 adders (greedy: 85), so the behaviour is kept."""
        taps = list(quantize(
            benchmark_filter(3).folded, 20, ScalingScheme("maximal")
        ).integers)
        incumbents = []
        real_exact = degrade.exact_weighted_set_cover

        def exact(*args, **kwargs):
            try:
                return real_exact(*args, **kwargs)
            except CoverBudgetError as exc:
                incumbents.append(exc.partial)
                raise

        monkeypatch.setattr(degrade, "exact_weighted_set_cover", exact)
        result = synthesize(taps, 20)
        assert result.tier == "greedy"
        assert result.architecture.adder_count == 85
        assert result.architecture.plan.cover.total_cost == 41.0
        exact_attempts = result.attempts[:3]
        assert [(a.tier, a.stage, a.error_type) for a in exact_attempts] \
            == [("exact", "plan", "BudgetExceeded")] * 3
        assert all(a.error == "solver exceeded its node budget "
                   "(500001 > 500000)" for a in exact_attempts)
        assert len(result.warnings) == 3
        assert all("reusing the incumbent cover" in w
                   for w in result.warnings)
        (incumbent,) = incumbents  # one solve, two replays
        assert incumbent.total_cost == 38.0
        plan = optimize(taps, 20, MrpOptions(),
                        cover_fn=lambda *args: incumbent)
        assert lower_plan(plan).adder_count == 91


class TestSpendUnits:
    @pytest.mark.parametrize("start,units,cap", [
        (0, 10, None), (0, 10, 5), (3, 9000, None), (100, 9000, 8191),
        (0, 4096, 4095), (7, 0, 3), (5, 1, 4), (4200, 12_000, 9_000),
    ])
    def test_matches_unit_spends(self, start, units, cap):
        name = "repro_budget_heartbeats_total"
        outcomes = []
        for bulk in (False, True):
            budget = SolverBudget(max_nodes=cap)
            budget._nodes = start  # as if earlier work spent it
            before = obs_metrics.DEFAULT_REGISTRY.counter_value(name)
            error = None
            try:
                if bulk:
                    budget.spend_units(units)
                else:
                    for _ in range(units):
                        budget.spend()
            except BudgetExceeded as exc:
                error = str(exc)
            beats = obs_metrics.DEFAULT_REGISTRY.counter_value(name) - before
            outcomes.append((error, budget.nodes_used, beats))
        assert outcomes[0] == outcomes[1]
