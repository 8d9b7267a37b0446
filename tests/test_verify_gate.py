"""The release gate end to end: degrade cascade, sweep paths, CLI exit codes."""

import pytest

import repro.verify
from repro.errors import VerificationError
from repro.eval import cache as disk_cache
from repro.eval.__main__ import (
    EXIT_OK,
    EXIT_VERIFY_EQUIVALENCE,
    EXIT_VERIFY_FIXEDPOINT,
    EXIT_VERIFY_MUTATION,
    EXIT_VERIFY_STRUCTURE,
    main,
)
from repro.eval.experiments import _method_result, clear_cache
from repro.filters import benchmark_filter
from repro.quantize import ScalingScheme
from repro.robust import RobustConfig, synthesize
from repro.robust.chaos import NetlistMutator
from repro.verify import CheckResult, VerificationReport, full_audit


@pytest.fixture(autouse=True)
def _pristine_caches():
    clear_cache()
    disk_cache.configure(None)
    yield
    clear_cache()
    disk_cache.configure(None)


class _StructuralCorruptor:
    """Chaos hook that breaks the fundamental table at the verify stage.

    The corrupted architecture still computes the right filter, so the
    convolution self-check passes — only the independent release audit can
    quarantine it.
    """

    def __init__(self):
        self.corrupted = 0

    def before(self, stage, budget):
        return None

    def transform(self, stage, obj):
        if stage != "verify" or self.corrupted:
            return obj
        mutator = NetlistMutator(seed=0, operators=("fundamental_entry",))
        _, mutant = mutator.mutate(obj.netlist)
        self.corrupted += 1
        import dataclasses

        return dataclasses.replace(obj, netlist=mutant)


class TestDegradeGate:
    def test_release_audit_on_by_default(self):
        assert RobustConfig().release_audit is True

    def test_clean_synthesis_passes_gate(self, paper_coefficients):
        result = synthesize(paper_coefficients, 7)
        assert result.architecture.adder_count > 0
        assert not result.quarantined

    def test_structural_corruption_quarantined(self, paper_coefficients):
        """Convolution-invisible corruption is caught only by the gate."""
        corruptor = _StructuralCorruptor()
        result = synthesize(paper_coefficients, 7, chaos=corruptor)
        assert corruptor.corrupted == 1
        assert result.quarantined  # the first attempt was caught
        record = result.quarantined[0]
        assert record.stage == "verify"
        assert "fundamental" in (record.error or "").lower()

    def test_gate_can_be_disabled(self, paper_coefficients):
        """With the gate off, the same corruption sails through —
        demonstrating the gate is what catches it."""
        corruptor = _StructuralCorruptor()
        config = RobustConfig(release_audit=False)
        result = synthesize(paper_coefficients, 7,
                            config=config, chaos=corruptor)
        assert corruptor.corrupted == 1
        assert not result.quarantined


class TestSweepGate:
    def test_env_gate_runs_release_audit(self, monkeypatch):
        calls = []
        real = repro.verify.release_audit

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.verify, "release_audit", spy)
        monkeypatch.setenv("REPRO_VERIFY_GATE", "1")
        designed = benchmark_filter(0)
        _method_result(designed, 0, 8, ScalingScheme.MAXIMAL, "mrpf")
        assert len(calls) == 1

    def test_env_gate_off_by_default(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            repro.verify, "release_audit",
            lambda *a, **k: calls.append(a),
        )
        monkeypatch.delenv("REPRO_VERIFY_GATE", raising=False)
        designed = benchmark_filter(0)
        _method_result(designed, 0, 8, ScalingScheme.MAXIMAL, "simple")
        assert not calls

    def test_env_gate_failure_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise VerificationError("injected gate failure")

        monkeypatch.setattr(repro.verify, "release_audit", broken)
        monkeypatch.setenv("REPRO_VERIFY_GATE", "1")
        designed = benchmark_filter(0)
        with pytest.raises(VerificationError):
            _method_result(designed, 0, 8, ScalingScheme.MAXIMAL, "cse")

    def test_supervised_sweep_green_under_gate(self, monkeypatch, tmp_path):
        """The journaled sweep engine completes with the gate armed — the
        audit runs inside every worker task without quarantining anything."""
        from repro.eval.parallel import run_sweep_supervised

        monkeypatch.setenv("REPRO_VERIFY_GATE", "1")
        report = run_sweep_supervised(
            ["fig6"], jobs=2, cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journal",
            filter_indices=[0], wordlengths=[8],
        )
        stats = report.stats()
        assert stats["tasks_quarantined"] == 0
        assert stats["tasks_failed"] == 0
        assert stats["tasks_computed"] > 0


class TestCliVerify:
    def test_verify_subcommand_green(self, capsys):
        code = main(["verify", "--filters", "0", "--wordlengths", "8",
                     "--mutants", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "[PASS] structure" in out
        assert "[PASS] mutation" in out
        assert "0 failed" in out

    @pytest.mark.parametrize(
        "check,expected",
        [
            ("structure", EXIT_VERIFY_STRUCTURE),
            ("fixedpoint", EXIT_VERIFY_FIXEDPOINT),
            ("equivalence", EXIT_VERIFY_EQUIVALENCE),
            ("cmodel", EXIT_VERIFY_EQUIVALENCE),
            ("mutation", EXIT_VERIFY_MUTATION),
        ],
    )
    def test_exit_code_per_failing_check(self, monkeypatch, capsys,
                                         check, expected):
        report = VerificationReport(checks=(
            CheckResult(check="structure", status="passed"),
            CheckResult(check=check, status="failed", detail="injected"),
        ))
        monkeypatch.setattr(repro.verify, "full_audit",
                            lambda *a, **k: report)
        code = main(["verify", "--filters", "0", "--wordlengths", "8"])
        capsys.readouterr()
        assert code == expected

    def test_full_audit_green_on_all_table1_filters_w8(self):
        """Acceptance criterion: the complete audit is green for every
        Table-1 filter at W=8 (serial path; the CI job repeats this through
        the CLI with mutation campaigns on top)."""
        from repro.eval.experiments import best_mrpf
        from repro.quantize import quantize

        for index in range(12):
            designed = benchmark_filter(index)
            q = quantize(designed.folded, 8, ScalingScheme.MAXIMAL)
            arch = best_mrpf(q.integers, 8)
            report = full_audit(
                arch.netlist, arch.tap_names, arch.coefficients,
                input_bits=8, exhaustive_bits=6,
                expected_adder_count=arch.adder_count,
            )
            assert report.ok, f"{designed.name}: {report.summary()}"
