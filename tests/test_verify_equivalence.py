"""Equivalence proving: exhaustive sweeps, corner vectors, differential diff."""

import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ShiftAddNetlist, simulate_tdf_filter
from repro.baselines import synthesize_simple
from repro.core import synthesize_mrpf
from repro.errors import EquivalenceViolation, VerificationError
from repro.robust.chaos import NetlistMutator
from repro.verify import equivalence
from repro.verify import (
    EXHAUSTIVE_MAX_BITS,
    cmodel_equivalence,
    corner_vectors,
    differential_equivalence,
    exhaustive_equivalence,
    golden_convolution,
)

COEFFS = st.lists(
    st.integers(min_value=-(2**8), max_value=2**8), min_size=1, max_size=6
).filter(lambda cs: any(cs))


def build_filter(constants):
    nl = ShiftAddNetlist()
    names = []
    for i, c in enumerate(constants):
        name = f"tap{i}"
        nl.mark_output(name, nl.ensure_constant(c) if c else None)
        names.append(name)
    return nl, names


class TestGoldenConvolution:
    @given(COEFFS, st.lists(st.integers(-1000, 1000), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_matches_definition(self, coeffs, samples):
        got = golden_convolution(coeffs, samples)
        assert len(got) == len(samples)
        for n, y in enumerate(got):
            assert y == sum(
                c * samples[n - i]
                for i, c in enumerate(coeffs) if n - i >= 0
            )


class TestCornerVectors:
    def test_shapes_and_extremes(self):
        vectors = corner_vectors(5, input_bits=8)
        assert set(vectors) == {
            "impulse", "negative_impulse", "step", "alternating",
            "max_magnitude",
        }
        for stimulus in vectors.values():
            assert len(stimulus) == 9
            assert all(-128 <= x <= 127 for x in stimulus)
        assert vectors["impulse"][0] == 127
        assert vectors["negative_impulse"][0] == -128
        assert vectors["max_magnitude"] == [-128] * 9

    def test_rejects_degenerate(self):
        with pytest.raises(VerificationError):
            corner_vectors(0)
        with pytest.raises(VerificationError):
            corner_vectors(3, input_bits=0)


class TestExhaustive:
    def test_complete_sweep_on_paper_example(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        swept = exhaustive_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients, input_bits=8
        )
        assert swept == 256

    def test_refuses_oversized_sweep(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        with pytest.raises(VerificationError):
            exhaustive_equivalence(
                arch.netlist, arch.tap_names, paper_coefficients,
                input_bits=EXHAUSTIVE_MAX_BITS + 1,
            )

    def test_catches_wrong_coefficient_claim(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        wrong = list(paper_coefficients)
        wrong[0] += 1
        with pytest.raises(EquivalenceViolation):
            exhaustive_equivalence(
                arch.netlist, arch.tap_names, wrong, input_bits=6
            )


class TestDifferential:
    def test_green_on_synthesized(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        cycles = differential_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients
        )
        assert cycles > 0

    @given(COEFFS)
    @settings(max_examples=15, deadline=None)
    def test_green_on_random_simple_filters(self, coeffs):
        arch = synthesize_simple([c for c in coeffs] or [1])
        differential_equivalence(
            arch.netlist, arch.tap_names, list(coeffs),
            input_bits=12, random_blocks=1, block_len=16,
        )

    def test_deterministic_given_seed(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        a = differential_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients, seed=3
        )
        b = differential_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients, seed=3
        )
        assert a == b

    def test_extra_vectors_are_exercised(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        base = differential_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients
        )
        extended = differential_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients,
            extra_vectors={"regression": [5, 4, 3, 2, 1]},
        )
        assert extended == base + 5

    @staticmethod
    def _silence_corners(monkeypatch):
        """Let a wrong netlist reach the run and pass every corner vector.

        The declared-constant check is skipped, and the corner vectors keep
        their shapes but hold only zeros, which no netlist gets wrong.
        """
        monkeypatch.setattr(equivalence, "_check_declared", lambda *args: None)
        monkeypatch.setattr(equivalence, "corner_vectors", lambda *args: {
            name: [0] * len(stimulus)
            for name, stimulus in corner_vectors(*args).items()
        })

    def test_mismatch_names_its_vector_and_cycle(self, monkeypatch):
        self._silence_corners(monkeypatch)
        netlist, names = build_filter([3, -5, 7, 2])
        claimed = [3, -5, 9, 2]
        rng = random.Random(4)
        random_0 = [rng.randint(-(1 << 11), (1 << 11) - 1) for _ in range(16)]
        got = simulate_tdf_filter(netlist, names, random_0)
        want = golden_convolution(claimed, random_0)
        cycle = next(n for n, (g, w) in enumerate(zip(got, want)) if g != w)
        with pytest.raises(
            EquivalenceViolation,
            match=rf"vector 'random_0' cycle {cycle}: netlist produced "
                  rf"{got[cycle]}, golden convolution {want[cycle]}$",
        ):
            differential_equivalence(
                netlist, names, claimed, input_bits=12, random_blocks=2,
                block_len=16, seed=4,
            )

    def test_mismatch_in_a_flush_names_the_vector_before(self, monkeypatch):
        self._silence_corners(monkeypatch)
        netlist, names = build_filter([1, 2, 4])
        # The impulse at the end of "tail" meets the wrong last tap two
        # cycles later, inside the flush that follows it.
        with pytest.raises(EquivalenceViolation, match="vector 'tail' cycle 2:"):
            differential_equivalence(
                netlist, names, [1, 2, 3], random_blocks=0,
                extra_vectors={"tail": [1]},
            )

    def test_cycle_count_is_the_vector_lengths(self, paper_coefficients):
        arch = synthesize_mrpf(paper_coefficients, 7)
        taps = len(arch.tap_names)
        cycles = differential_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients,
            random_blocks=3, block_len=10, extra_vectors={"x": [1, 2]},
        )
        assert cycles == 5 * (taps + 4) + 3 * 10 + 2

    def test_catches_output_mutants(self, paper_coefficients):
        """Every output_* mutant is structurally valid; only the functional
        diff can catch it — and must."""
        arch = synthesize_mrpf(paper_coefficients, 7)
        mutator = NetlistMutator(
            seed=11, operators=("output_shift", "output_sign", "output_rewire")
        )
        for description, mutant in mutator.mutants(arch.netlist, 15):
            with pytest.raises(EquivalenceViolation):
                differential_equivalence(
                    mutant, arch.tap_names, paper_coefficients,
                    random_blocks=1, block_len=16,
                )


@pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler available",
)
class TestCModel:
    def test_green_on_paper_example(self, paper_coefficients, tmp_path):
        arch = synthesize_mrpf(paper_coefficients, 7)
        cycles = cmodel_equivalence(
            arch.netlist, arch.tap_names, paper_coefficients,
            workdir=tmp_path,
        )
        assert cycles is not None and cycles > 0
