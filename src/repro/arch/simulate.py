"""Bit-accurate simulation of shift-add netlists and the filters built on them.

Simulation is *exact*: every intermediate value lives in an unbounded Python
``int``, so there is no rounding, no wrap-around, and no saturation anywhere
in these functions — an MRPF architecture can be checked for functional
equivalence against plain convolution by the quantized coefficients, the
strongest correctness statement available for an architectural
transformation.  The flip side is that exactness here says *nothing* about
finite registers: a netlist that passes these checks can still overflow in
hardware if the RTL declares too few bits.  Finite-wordlength semantics
(wrap/saturate/error modes, per-site overflow attribution, minimal safe
widths) live in :mod:`repro.verify.fixedpoint`, which applies them at the
same sites of the same TDF structure; :func:`verify_against_convolution`
bridges the two via its optional ``wordlength`` argument.

Two levels:

* node level — evaluate every adder from its operand terms for one input
  sample (NOT via the ``value * x`` shortcut), optionally cross-checking
  linearity against the declared fundamentals;
* filter level — feed the tap products into a cycle-accurate transposed
  direct form register chain, with optional extra pipeline latency.

The per-cycle loops here are the reference.  Unless fast paths are off
(``REPRO_FASTPATH=off``), :func:`simulate_tdf_filter` at zero latency and
without the linearity check runs the whole stimulus as int64 columns
through :mod:`repro.fastpath.tdfsim` instead — same outputs, and the loop
still runs whenever a static magnitude bound says a column could leave
int64.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .. import fastpath
from ..errors import SimulationError
from ..fastpath import tdfsim
from .netlist import ShiftAddNetlist
from .nodes import Ref

__all__ = [
    "evaluate_nodes",
    "evaluate_ref",
    "tap_products",
    "simulate_tdf_filter",
    "verify_against_convolution",
]


def evaluate_nodes(
    netlist: ShiftAddNetlist, sample: int, check_linearity: bool = False
) -> List[int]:
    """Evaluate every node's output for one input ``sample``.

    Adds shifted operand terms exactly as the hardware would.  With
    ``check_linearity`` each output is compared against ``value * sample``
    (they must match — the network is linear by construction) and a
    :class:`SimulationError` is raised on divergence.
    """
    outputs: List[int] = [0] * len(netlist)
    outputs[0] = sample
    for node in netlist.nodes[1:]:
        result = node.a.value(outputs[node.a.node]) + node.b.value(
            outputs[node.b.node]
        )
        outputs[node.id] = result
        if check_linearity and result != node.value * sample:
            raise SimulationError(
                f"node {node.id}: computed {result}, "
                f"expected {node.value} * {sample}"
            )
    return outputs


def evaluate_ref(
    netlist: ShiftAddNetlist, ref: Optional[Ref], node_outputs: Sequence[int]
) -> int:
    """Output carried by a reference given precomputed node outputs."""
    if ref is None:
        return 0
    return ref.value(node_outputs[ref.node])


def tap_products(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    sample: int,
    check_linearity: bool = False,
) -> List[int]:
    """All tap products ``c_i * sample`` for one input sample, in tap order."""
    outputs = evaluate_nodes(netlist, sample, check_linearity)
    return [
        evaluate_ref(netlist, ref, outputs)
        for ref in netlist.tap_refs(tap_names)
    ]


def simulate_tdf_filter(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    samples: Sequence[int],
    pipeline_latency: int = 0,
    check_linearity: bool = False,
) -> List[int]:
    """Cycle-accurate TDF filter run over an input block.

    Each cycle forms every tap product of the current sample through the
    shift-add network and folds it into the TDF register chain.  A nonzero
    ``pipeline_latency`` models registers inserted in the multiplier block:
    products reach the accumulation chain that many cycles late, delaying the
    whole response (the output stream is preceded by that many zeros).
    """
    if pipeline_latency < 0:
        raise SimulationError("pipeline latency cannot be negative")
    num_taps = len(tap_names)
    if num_taps == 0:
        raise SimulationError("a filter needs at least one tap output")
    samples = list(samples)
    columnar = not pipeline_latency and not check_linearity
    if columnar and fastpath.tdfsim_enabled():
        columns = tdfsim.exact_outputs(netlist, tap_names, samples)
        if columns is not None:
            return columns
    registers = [0] * (num_taps - 1)
    product_delay: List[List[int]] = []
    outputs: List[int] = []
    for sample in samples:
        products = tap_products(netlist, tap_names, sample, check_linearity)
        product_delay.append(products)
        if len(product_delay) <= pipeline_latency:
            outputs.append(0)
            continue
        current = product_delay.pop(0)
        y = current[0] + (registers[0] if registers else 0)
        for k in range(len(registers)):
            incoming = registers[k + 1] if k + 1 < len(registers) else 0
            registers[k] = current[k + 1] + incoming
        outputs.append(y)
    return outputs


def verify_against_convolution(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    coefficients: Sequence[int],
    samples: Sequence[int],
    wordlength: Optional[int] = None,
) -> None:
    """Assert the netlist filter equals direct convolution by ``coefficients``.

    Raises :class:`SimulationError` with the first mismatching cycle.  This
    is the end-to-end functional check run by the integration tests for every
    synthesis method.

    By default the comparison is exact (unbounded integers).  Passing a
    ``wordlength`` additionally re-runs the stimulus through the
    finite-wordlength simulator at that input width with overflow as an
    error — so the same call also proves the design's exported register
    widths never overflow on this stimulus
    (:class:`~repro.errors.OverflowViolation`, a ``SimulationError``
    subclass, names the exact site and cycle otherwise).
    """
    declared = netlist.output_values()
    for name, coefficient in zip(tap_names, coefficients):
        if declared[name] != coefficient:
            raise SimulationError(
                f"output {name!r} carries {declared[name]}, "
                f"expected coefficient {coefficient}"
            )
    # Imported lazily: repro.verify builds on this module.
    from ..verify.equivalence import golden_convolution
    from ..verify.fixedpoint import simulate_tdf_fixed

    simulated = simulate_tdf_filter(netlist, tap_names, samples)
    reference = golden_convolution(coefficients, samples)
    for cycle, (got, want) in enumerate(zip(simulated, reference)):
        if got != want:
            raise SimulationError(
                f"cycle {cycle}: netlist produced {got}, convolution {want}"
            )
    if wordlength is not None:
        simulate_tdf_fixed(
            netlist, tap_names, samples,
            input_bits=wordlength, overflow="error",
        )
