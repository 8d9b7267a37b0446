"""Chaos harness: every fault class at every stage is caught and rerouted.

Extends ``test_failure_injection.py``'s data-corruption philosophy to
control-flow faults: injected exceptions, forced deadline exhaustion, and
silently corrupted intermediate structures.  For every (stage, fault) pair
the robust cascade must either release a verified architecture or raise a
typed ReproError carrying the full attempt history — never hang, never
release an unverified result.
"""

import pytest

from repro.arch.simulate import verify_against_convolution
from repro.errors import BudgetExceeded, DegradationError, ReproError
from repro.robust import (
    FAULT_CLASSES,
    ChaosFault,
    ChaosHarness,
    RobustConfig,
    STAGES,
    synthesize,
)

COEFFS = [5, 22, 45, 89, 45, 22, 5]
WORDLENGTH = 7

MATRIX = [(stage, fault) for stage in STAGES for fault in FAULT_CLASSES]


class TestHarnessValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ReproError):
            ChaosHarness(stages=("quantize",))

    def test_unknown_fault_rejected(self):
        with pytest.raises(ReproError):
            ChaosHarness(faults=("bitflip",))

    def test_bad_rate_rejected(self):
        with pytest.raises(ReproError):
            ChaosHarness(rate=1.5)

    def test_determinism(self):
        def run(seed):
            chaos = ChaosHarness(seed=seed, rate=0.5)
            try:
                synthesize(COEFFS, WORDLENGTH, chaos=chaos)
            except DegradationError:
                pass
            return tuple(chaos.injections)

        assert run(123) == run(123)


class TestFaultMatrix:
    """The acceptance matrix: 3 fault classes x 3 wrapped stages."""

    @pytest.mark.parametrize("stage,fault", MATRIX)
    def test_single_fault_rerouted_to_verified_result(self, stage, fault):
        chaos = ChaosHarness(
            seed=7, stages=(stage,), faults=(fault,), rate=1.0,
            max_injections=1,
        )
        result = synthesize(COEFFS, WORDLENGTH, chaos=chaos)
        # The fault actually fired, where and what we asked.
        assert [(i.stage, i.fault) for i in chaos.injections] == [(stage, fault)]
        # The cascade rerouted: one failed/quarantined attempt, then success.
        assert result.num_attempts == 2
        failed, released = result.attempts
        assert failed.outcome in ("failed", "quarantined")
        assert failed.error_type is not None
        assert released.outcome == "ok"
        # The released architecture is genuinely correct.
        verify_against_convolution(
            result.architecture.netlist, result.architecture.tap_names,
            list(COEFFS), [1, -1, 3, 255, -777, 12345],
        )

    @pytest.mark.parametrize("stage", STAGES)
    def test_corruption_is_quarantined_not_released(self, stage):
        """A silent data fault must be caught by the convolution self-check."""
        chaos = ChaosHarness(
            seed=3, stages=(stage,), faults=("corruption",), rate=1.0,
            max_injections=1,
        )
        result = synthesize(COEFFS, WORDLENGTH, chaos=chaos)
        assert len(result.quarantined) == 1
        assert result.quarantined[0].stage == "verify"
        assert result.quarantined[0].error_type in (
            "SimulationError", "SynthesisError"
        )

    @pytest.mark.parametrize("fault", FAULT_CLASSES)
    def test_unlimited_faults_raise_typed_error_with_history(self, fault):
        chaos = ChaosHarness(seed=5, faults=(fault,), rate=1.0)
        with pytest.raises(DegradationError) as info:
            synthesize(COEFFS, WORDLENGTH, chaos=chaos)
        assert isinstance(info.value, ReproError)
        assert len(info.value.attempts) >= 3  # every tier was tried
        assert {a.tier for a in info.value.attempts} \
            == {"exact", "greedy", "trivial"}


class TestDeadlineFault:
    def test_budget_checkpoint_raises_after_forced_exhaustion(self):
        """The deadline fault fires through the solver's own checkpoint."""
        chaos = ChaosHarness(
            seed=9, stages=("plan",), faults=("deadline",), rate=1.0,
            max_injections=1,
        )
        result = synthesize(COEFFS, WORDLENGTH, chaos=chaos)
        assert result.attempts[0].error_type == "BudgetExceeded"
        assert "chaos-injected deadline" in result.attempts[0].error

    def test_chaos_fault_is_not_a_repro_error(self):
        """Injected exceptions are alien on purpose: the cascade must catch
        arbitrary exception types, not just its own hierarchy."""
        assert not issubclass(ChaosFault, ReproError)
        assert not issubclass(ChaosFault, BudgetExceeded)


class TestPartialChaos:
    def test_low_rate_usually_succeeds(self):
        """With a sub-1 rate and retries, most runs land a verified result."""
        released = 0
        for seed in range(6):
            chaos = ChaosHarness(seed=seed, rate=0.3)
            try:
                result = synthesize(COEFFS, WORDLENGTH, chaos=chaos)
            except DegradationError:
                continue
            released += 1
            verify_against_convolution(
                result.architecture.netlist, result.architecture.tap_names,
                list(COEFFS), [1, -1, 3],
            )
        assert released >= 3

    def test_chaos_with_deadline_still_bounded(self):
        """Chaos plus a deadline: the run stays within 2x the budget."""
        import time

        deadline = 1.0
        chaos = ChaosHarness(seed=2, rate=0.5)
        started = time.monotonic()
        try:
            synthesize(
                COEFFS, WORDLENGTH, chaos=chaos,
                config=RobustConfig(deadline_s=deadline),
            )
        except DegradationError:
            pass
        assert time.monotonic() - started < 2.0 * deadline


class TestProcessFaultPlan:
    """Process-level fault schedules: deterministic, validated, replayable."""

    def test_rates_validated(self):
        from repro.robust import ProcessFaultPlan

        with pytest.raises(ReproError):
            ProcessFaultPlan(kill_rate=1.5)
        with pytest.raises(ReproError):
            ProcessFaultPlan(slow_rate=-0.1)
        with pytest.raises(ReproError):
            ProcessFaultPlan(kills_per_task=-1)
        with pytest.raises(ReproError):
            ProcessFaultPlan(slow_s=-1.0)

    def test_kill_decisions_are_pure_functions(self):
        from repro.robust import ProcessFaultPlan

        plan = ProcessFaultPlan(seed=42, kill_rate=0.5, kills_per_task=2)
        keys = [f"task-{i}" for i in range(64)]
        first = [plan.should_kill(k, 0) for k in keys]
        assert first == [plan.should_kill(k, 0) for k in keys]
        # Same seed in a "different process" (fresh object): same decisions.
        clone = ProcessFaultPlan(seed=42, kill_rate=0.5, kills_per_task=2)
        assert first == [clone.should_kill(k, 0) for k in keys]
        # A different seed disagrees somewhere across 64 keys.
        other = ProcessFaultPlan(seed=43, kill_rate=0.5, kills_per_task=2)
        assert first != [other.should_kill(k, 0) for k in keys]

    def test_kills_stop_after_budget(self):
        from repro.robust import ProcessFaultPlan

        plan = ProcessFaultPlan(seed=0, kill_rate=1.0, kills_per_task=2)
        assert plan.should_kill("k", 0)
        assert plan.should_kill("k", 1)
        assert not plan.should_kill("k", 2)

    def test_poison_tasks_always_kill(self):
        from repro.robust import ProcessFaultPlan

        plan = ProcessFaultPlan(seed=0, poison_tasks=("bad",))
        for attempt in range(10):
            assert plan.should_kill("bad", attempt)
        assert not plan.should_kill("good", 0)

    def test_slow_delay_deterministic_and_gated(self):
        from repro.robust import ProcessFaultPlan

        always = ProcessFaultPlan(seed=9, slow_rate=1.0, slow_s=0.25)
        never = ProcessFaultPlan(seed=9, slow_rate=0.0, slow_s=0.25)
        assert always.slow_delay("k") == 0.25
        assert never.slow_delay("k") == 0.0

    def test_fault_classes_exported(self):
        from repro.robust import PROCESS_FAULT_CLASSES

        assert set(PROCESS_FAULT_CLASSES) == {"kill", "slow"}
