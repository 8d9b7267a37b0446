"""Column kernel vs per-cycle loops: the TDF simulators must not change.

:mod:`repro.fastpath.tdfsim` runs :func:`simulate_tdf_filter`,
:func:`simulate_tdf_fixed` and :func:`exhaustive_equivalence` over the whole
stimulus as int64 columns.  The per-cycle loops they replace stay in the
tree and run under ``fastpath.set_mode("off")``; they are the oracle here.
Every comparison covers the full outcome — outputs, overflow events in
order, or the exception raised (type, message, site and cycle).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.arch import Ref, ShiftAddNetlist, simulate_tdf_filter
from repro.arch.metrics import node_bitwidths
from repro.core import synthesize_mrpf
from repro.errors import OverflowViolation, SimulationError
from repro.fastpath import tdfsim
from repro.filters import benchmark_filter
from repro.quantize import ScalingScheme, quantize
from repro.robust.chaos import NetlistMutator
from repro.verify import (
    exhaustive_equivalence,
    release_audit,
    run_mutation_campaign,
    simulate_tdf_fixed,
)

from .conftest import PAPER_EXAMPLE

MODES = ("wrap", "saturate", "error")


@pytest.fixture(autouse=True)
def _default_mode(monkeypatch):
    """Each test starts from the default mode, whatever the shell set."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    fastpath.set_mode(None)
    yield
    fastpath.set_mode(None)


def outcome(thunk):
    """What a call did: its value, or the exception it raised."""
    try:
        return ("returned", thunk())
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return (
            "raised", type(exc), str(exc),
            getattr(exc, "site", None), getattr(exc, "cycle", None),
        )


def kernel_and_loop(thunk):
    """The call's outcome at the default mode and under ``off``."""
    fast = outcome(thunk)
    fastpath.set_mode("off")
    try:
        reference = outcome(thunk)
    finally:
        fastpath.set_mode(None)
    return fast, reference


def assert_python_ints(run):
    assert all(type(v) is int for v in run.outputs)
    for event in run.overflows:
        assert type(event.value) is int and type(event.cycle) is int


SHIFTS = st.one_of(st.integers(0, 3), st.integers(4, 24))


@st.composite
def random_filters(draw, max_nodes=8, max_taps=6):
    """A random shift-add DAG with negative signs, large shifts and zero
    taps, and 1..``max_taps`` named outputs."""
    nl = ShiftAddNetlist()

    def ref():
        return Ref(
            node=draw(st.integers(0, len(nl) - 1)),
            shift=draw(SHIFTS),
            sign=draw(st.sampled_from((1, -1))),
        )

    for _ in range(draw(st.integers(0, max_nodes))):
        a, b = ref(), ref()
        if nl.ref_value(a) + nl.ref_value(b) == 0:
            b = b.negated()  # a - (-a) = 2a: never the useless 0
        nl.add(a, b)
    names = [f"t{k}" for k in range(draw(st.integers(1, max_taps)))]
    for name in names:
        nl.mark_output(name, draw(st.none() | st.builds(ref)))
    return nl, names


STIMULUS = st.lists(st.integers(-(2**15), 2**15 - 1), max_size=20)


class TestExactSimulator:
    @given(random_filters(), STIMULUS)
    @settings(max_examples=150)
    def test_outputs_match_the_loop(self, design, samples):
        nl, names = design
        fast, reference = kernel_and_loop(
            lambda: simulate_tdf_filter(nl, names, samples)
        )
        assert fast == reference
        if fast[0] == "returned":
            assert all(type(v) is int for v in fast[1])

    def test_single_tap_and_empty_stimulus(self):
        nl = ShiftAddNetlist()
        nl.mark_output("t0", nl.ensure_constant(-12))
        for samples in ([], [5], [3, -7, 2**15 - 1]):
            fast, reference = kernel_and_loop(
                lambda: simulate_tdf_filter(nl, ["t0"], samples)
            )
            assert fast == reference

    def test_invalid_inputs_raise_the_same(self):
        nl = ShiftAddNetlist()
        nl.mark_output("t0", nl.ensure_constant(5))
        for thunk in (
            lambda: simulate_tdf_filter(nl, [], [1, 2]),
            lambda: simulate_tdf_filter(nl, ["t0", "nope"], [1]),
            lambda: simulate_tdf_filter(nl, ["t0"], [1], pipeline_latency=-1),
        ):
            fast, reference = kernel_and_loop(thunk)
            assert fast == reference and fast[0] == "raised"


class TestFixedSimulator:
    @given(
        random_filters(),
        STIMULUS,
        st.sampled_from(MODES),
        st.lists(st.integers(0, 14), min_size=9, max_size=9),
        st.none() | st.integers(1, 40),
    )
    @settings(max_examples=200)
    def test_runs_match_the_loop(self, design, samples, mode, shrink, acc):
        nl, names = design
        widths = [
            max(1, w - s)
            for w, s in zip(node_bitwidths(nl, 16), shrink)
        ]
        fast, reference = kernel_and_loop(
            lambda: simulate_tdf_fixed(
                nl, names, samples, overflow=mode,
                node_widths=widths, accumulator_width=acc,
            )
        )
        assert fast == reference
        if fast[0] == "returned":
            assert_python_ints(fast[1])
        else:
            assert fast[1] is OverflowViolation and mode == "error"

    def test_default_widths_on_a_synthesized_filter(self):
        arch = synthesize_mrpf(list(PAPER_EXAMPLE), 7)
        samples = [2**15 - 1, -(2**15), 1, -1] * 6
        for mode in MODES:
            fast, reference = kernel_and_loop(
                lambda: simulate_tdf_fixed(
                    arch.netlist, arch.tap_names, samples, overflow=mode
                )
            )
            assert fast == reference and fast[0] == "returned"
            assert not fast[1].overflowed

    def test_overflow_events_are_in_loop_order(self):
        arch = synthesize_mrpf(list(PAPER_EXAMPLE), 7)
        samples = [2**15 - 1, -(2**15)] * 8
        for mode in MODES:
            fast, reference = kernel_and_loop(
                lambda: simulate_tdf_fixed(
                    arch.netlist, arch.tap_names, samples, overflow=mode,
                    accumulator_width=18,
                )
            )
            assert fast == reference
        run = simulate_tdf_fixed(
            arch.netlist, arch.tap_names, samples, accumulator_width=18
        )
        cycles = [event.cycle for event in run.overflows]
        assert len(set(cycles)) > 1 and cycles == sorted(cycles)

    def test_invalid_inputs_raise_the_same(self):
        nl = ShiftAddNetlist()
        nl.mark_output("t0", nl.ensure_constant(5))
        nl.mark_output("t1", nl.ensure_constant(3))
        names = ["t0", "t1"]
        width_count = len(nl)
        for thunk in (
            lambda: simulate_tdf_fixed(nl, names, [1], overflow="clip"),
            lambda: simulate_tdf_fixed(nl, [], [1]),
            lambda: simulate_tdf_fixed(
                nl, names, [1], node_widths=[8] * (width_count + 1)
            ),
            lambda: simulate_tdf_fixed(
                nl, names, [1], node_widths=[8] * (width_count - 1) + [0]
            ),
            lambda: simulate_tdf_fixed(nl, names, [1], accumulator_width=0),
            lambda: simulate_tdf_fixed(
                nl, names, [300], node_widths=[4] + [0] * (width_count - 1),
                overflow="error",
            ),
        ):
            fast, reference = kernel_and_loop(thunk)
            assert fast == reference and fast[0] == "raised"

    def test_above_the_int64_bound_takes_the_loop(self, monkeypatch):
        arch = synthesize_mrpf([(1 << 30) + 3, 7, -(1 << 29) - 1], 32)
        samples = [(1 << 47) - 1, -(1 << 47), 12345, 0, 1]
        declined = []
        real = tdfsim.fixed_run

        def spy(*args):
            result = real(*args)
            declined.append(result is None)
            return result

        monkeypatch.setattr(tdfsim, "fixed_run", spy)
        for mode in MODES:
            fast, reference = kernel_and_loop(
                lambda: simulate_tdf_fixed(
                    arch.netlist, arch.tap_names, samples,
                    input_bits=48, overflow=mode,
                )
            )
            assert fast == reference and fast[0] == "returned"
        assert declined == [True] * len(MODES)
        fast, reference = kernel_and_loop(
            lambda: simulate_tdf_filter(arch.netlist, arch.tap_names, samples)
        )
        assert fast == reference
        assert tdfsim.exact_outputs(
            arch.netlist, arch.tap_names, samples
        ) is None


class TestExhaustiveSweep:
    @given(random_filters(max_taps=4), st.integers(1, 9))
    @settings(max_examples=60)
    def test_same_count_or_same_error(self, design, bits):
        nl, names = design
        coefficients = list(nl.output_values()[name] for name in names)
        fast, reference = kernel_and_loop(
            lambda: exhaustive_equivalence(
                nl, names, coefficients, input_bits=bits
            )
        )
        assert fast == reference

    def test_mutants_fail_the_same(self):
        """Broken operands, declared values and outputs: the first failing
        sample and site (a node's linearity before a tap) are the loop's."""
        arch = synthesize_mrpf(list(PAPER_EXAMPLE), 7)
        mutator = NetlistMutator(
            seed=1,
            operators=(
                "operand_shift", "operand_sign", "operand_rewire",
                "node_value",
            ),
        )
        node_failures = 0
        for _, mutant in mutator.mutants(arch.netlist, 40):
            fast, reference = kernel_and_loop(
                lambda: exhaustive_equivalence(
                    mutant, arch.tap_names, arch.coefficients, input_bits=8
                )
            )
            assert fast == reference
            node_failures += fast[:2] == ("raised", SimulationError)
        assert node_failures > 20


def _suite_design():
    spec = benchmark_filter(0)
    quantized = quantize(spec.folded, 12, ScalingScheme.UNIFORM)
    coefficients = list(quantized.integers)
    arch = synthesize_mrpf(coefficients, 12)
    return arch, coefficients


class TestReleaseAuditRouting:
    def test_kernel_by_default_loops_under_off(self, monkeypatch):
        import repro.arch.simulate as simulate_module
        import repro.verify.fixedpoint as fixedpoint_module

        calls = {"kernel": 0, "declined": 0, "loop_steps": 0}

        def spying(real, key):
            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                calls[key] += 1
                if key == "kernel" and result is None:
                    calls["declined"] += 1
                return result
            return wrapper

        monkeypatch.setattr(
            tdfsim, "exact_outputs", spying(tdfsim.exact_outputs, "kernel")
        )
        monkeypatch.setattr(
            tdfsim, "fixed_run", spying(tdfsim.fixed_run, "kernel")
        )
        monkeypatch.setattr(
            simulate_module, "tap_products",
            spying(simulate_module.tap_products, "loop_steps"),
        )
        monkeypatch.setattr(
            fixedpoint_module, "fit",
            spying(fixedpoint_module.fit, "loop_steps"),
        )
        arch, coefficients = _suite_design()

        release_audit(arch.netlist, arch.tap_names, coefficients)
        assert calls["kernel"] > 0 and calls["declined"] == 0
        assert calls["loop_steps"] == 0

        calls.update(kernel=0, loop_steps=0)
        fastpath.set_mode("off")
        release_audit(arch.netlist, arch.tap_names, coefficients)
        assert calls["kernel"] == 0 and calls["loop_steps"] > 0


class TestMutationGate:
    def test_campaign_is_identical_under_off(self):
        arch = synthesize_mrpf(list(PAPER_EXAMPLE), 7)
        fast, reference = kernel_and_loop(
            lambda: run_mutation_campaign(
                arch.netlist, arch.tap_names, arch.coefficients,
                mutants=50, seed=0,
            )
        )
        assert fast[0] == "returned"
        assert fast == reference
        report = fast[1]
        assert (report.killed, report.total) == (
            reference[1].killed, reference[1].total
        )
