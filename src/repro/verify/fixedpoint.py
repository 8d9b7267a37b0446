"""Bit-accurate finite-wordlength evaluation of shift-add filters.

:mod:`repro.arch.simulate` is exact — unbounded Python integers — which
proves *architectural* equivalence but says nothing about the hardware's
finite registers.  This module applies a configurable fixed-point semantics
at every site of the same TDF structure:

* every DAG node, tap product, TDF register, and the output adder is
  evaluated at a declared signed width with ``wrap`` (two's-complement
  truncation, what plain Verilog arithmetic does), ``saturate``, or
  ``error`` overflow behavior;
* every overflow is attributed to a *site* (``node:7``, ``tap:tap3``,
  ``reg:2``, ``out``) and a cycle, so a width bug points at the exact
  wire;
* :func:`min_node_widths` / :func:`min_accumulator_widths` derive the
  minimal safe widths analytically from the coefficient magnitudes (the
  worst case of a ``input_bits``-bit two's-complement input), giving the
  per-tap-chain accumulator sizing a designer needs;
* :func:`check_export_widths` cross-checks the widths
  :mod:`repro.arch.verilog` actually emits against those bounds — the
  export's semantics audited against the Python model rather than assumed.

:func:`simulate_tdf_fixed` runs the whole stimulus as int64 columns through
:mod:`repro.fastpath.tdfsim` — one array op per node, tap and register,
overflows reported in the per-cycle loop's order — unless fast paths are
off (``REPRO_FASTPATH=off``), a width is below 1, or a static magnitude
bound says a column could leave int64; then the per-cycle loop, the
reference, runs.

The analytic bounds are deliberately derived independently of
:func:`repro.arch.metrics.node_bitwidths` (from ``|value| * 2^(w-1)``
magnitudes, not ``bit_length`` arithmetic) so the two implementations
check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .. import fastpath
from ..arch.metrics import node_bitwidths
from ..arch.netlist import ShiftAddNetlist
from ..arch.verilog import output_width
from ..errors import OverflowViolation, VerificationError, WidthContractViolation
from ..fastpath import tdfsim

__all__ = [
    "OVERFLOW_MODES",
    "FixedPointRun",
    "OverflowEvent",
    "check_export_widths",
    "fit",
    "min_accumulator_widths",
    "min_node_widths",
    "simulate_tdf_fixed",
]

OVERFLOW_MODES = ("wrap", "saturate", "error")


@dataclass(frozen=True)
class OverflowEvent:
    """One finite-wordlength overflow: where, when, and what it held."""

    site: str
    cycle: int
    value: int
    width: int


@dataclass(frozen=True)
class FixedPointRun:
    """A finite-wordlength simulation's outputs plus every overflow seen."""

    outputs: Tuple[int, ...]
    overflows: Tuple[OverflowEvent, ...]

    @property
    def overflowed(self) -> bool:
        """True when at least one site overflowed during the run."""
        return bool(self.overflows)


def fit(value: int, width: int, mode: str = "wrap") -> Tuple[int, bool]:
    """Constrain ``value`` to a signed ``width``-bit register.

    Returns ``(fitted_value, overflowed)``.  ``wrap`` keeps the low
    ``width`` bits two's-complement style; ``saturate`` clamps to the
    representable range; ``error`` returns the raw value (the caller
    raises with site context).
    """
    if width < 1:
        raise VerificationError(f"register width must be >= 1, got {width}")
    if mode not in OVERFLOW_MODES:
        raise VerificationError(
            f"overflow mode must be one of {OVERFLOW_MODES}, got {mode!r}"
        )
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if lo <= value <= hi:
        return value, False
    if mode == "saturate":
        return (hi if value > hi else lo), True
    if mode == "error":
        return value, True
    span = 1 << width
    wrapped = ((value - lo) % span) + lo
    return wrapped, True


def min_node_widths(netlist: ShiftAddNetlist, input_bits: int) -> List[int]:
    """Minimal signed width of every DAG node for an ``input_bits`` input.

    Node ``i`` computes ``value_i * x``; the worst-case magnitude over
    two's-complement inputs is ``|value_i| * 2^(input_bits-1)`` (reached at
    the most negative input), needing ``bit_length + 1`` signed bits.
    """
    if input_bits < 1:
        raise VerificationError(f"input_bits must be >= 1, got {input_bits}")
    peak_input = 1 << (input_bits - 1)
    return [
        max(1, (abs(node.value) * peak_input).bit_length() + 1)
        for node in netlist.nodes
    ]


def min_accumulator_widths(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    input_bits: int,
) -> List[int]:
    """Minimal signed width of each TDF accumulator, output-first.

    Entry 0 is the output adder ``y``; entry ``k >= 1`` is register
    ``r(k-1)`` of the transposed-direct-form chain, which accumulates the
    products of taps ``k..T-1``.  The worst case of register ``k`` is
    therefore the *suffix* coefficient magnitude sum times the peak input —
    the per-tap-chain accumulator sizing rule.
    """
    refs = netlist.tap_refs(tap_names)
    magnitudes = [
        0 if ref is None else abs(netlist.ref_value(ref)) for ref in refs
    ]
    peak_input = 1 << (input_bits - 1)
    widths: List[int] = []
    suffix = sum(magnitudes)
    for magnitude in magnitudes:
        widths.append(max(1, (suffix * peak_input).bit_length() + 1))
        suffix -= magnitude
    return widths


def _overflow_error(
    site: str, cycle: int, value: int, width: int
) -> OverflowViolation:
    return OverflowViolation(
        f"value {value} overflows the {width}-bit register at "
        f"{site} on cycle {cycle}",
        site=site,
        cycle=cycle,
    )


def simulate_tdf_fixed(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    samples: Sequence[int],
    input_bits: int = 16,
    overflow: str = "wrap",
    node_widths: Optional[Sequence[int]] = None,
    accumulator_width: Optional[int] = None,
) -> FixedPointRun:
    """Cycle-accurate TDF run with finite-wordlength arithmetic everywhere.

    ``node_widths`` defaults to the widths the Verilog export declares
    (:func:`repro.arch.metrics.node_bitwidths`); ``accumulator_width``
    defaults to the export's ``OUT_W`` (:func:`repro.arch.verilog.output_width`)
    — so with defaults this simulates the emitted RTL's arithmetic, not an
    idealized machine.  In ``"error"`` mode the first overflow raises
    :class:`~repro.errors.OverflowViolation` carrying its site and cycle;
    otherwise all overflows are recorded in the returned run.
    """
    if overflow not in OVERFLOW_MODES:
        raise VerificationError(
            f"overflow mode must be one of {OVERFLOW_MODES}, got {overflow!r}"
        )
    if not tap_names:
        raise VerificationError("a filter needs at least one tap output")
    widths = (
        list(node_widths)
        if node_widths is not None
        else node_bitwidths(netlist, input_bits)
    )
    if len(widths) != len(netlist):
        raise VerificationError(
            f"{len(widths)} node widths for {len(netlist)} nodes"
        )
    acc_width = (
        accumulator_width
        if accumulator_width is not None
        else output_width(netlist, tap_names, input_bits)
    )
    refs = netlist.tap_refs(tap_names)
    samples = list(samples)
    if fastpath.tdfsim_enabled():
        columns = tdfsim.fixed_run(
            netlist, tap_names, refs, samples, widths, acc_width, overflow
        )
        if columns is not None:
            outputs, overflows = columns
            if overflow == "error" and overflows:
                raise _overflow_error(*overflows[0])
            return FixedPointRun(
                outputs=tuple(outputs),
                overflows=tuple(OverflowEvent(*o) for o in overflows),
            )
    num_taps = len(tap_names)
    registers = [0] * (num_taps - 1)
    events: List[OverflowEvent] = []

    def constrain(value: int, width: int, site: str, cycle: int) -> int:
        fitted, overflowed = fit(value, width, overflow)
        if overflowed:
            if overflow == "error":
                raise _overflow_error(site, cycle, value, width)
            events.append(
                OverflowEvent(site=site, cycle=cycle, value=value, width=width)
            )
        return fitted

    outputs: List[int] = []
    for cycle, sample in enumerate(samples):
        node_out: List[int] = [0] * len(netlist)
        node_out[0] = constrain(int(sample), widths[0], "node:0", cycle)
        for node in netlist.nodes[1:]:
            raw = node.a.value(node_out[node.a.node]) + node.b.value(
                node_out[node.b.node]
            )
            node_out[node.id] = constrain(
                raw, widths[node.id], f"node:{node.id}", cycle
            )
        products: List[int] = []
        for name, ref in zip(tap_names, refs):
            raw = 0 if ref is None else ref.value(node_out[ref.node])
            products.append(constrain(raw, acc_width, f"tap:{name}", cycle))
        y = constrain(
            products[0] + (registers[0] if registers else 0),
            acc_width, "out", cycle,
        )
        for k in range(len(registers)):
            incoming = registers[k + 1] if k + 1 < len(registers) else 0
            registers[k] = constrain(
                products[k + 1] + incoming, acc_width, f"reg:{k}", cycle
            )
        outputs.append(y)
    return FixedPointRun(outputs=tuple(outputs), overflows=tuple(events))


def check_export_widths(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    input_bits: int = 16,
) -> None:
    """Prove the Verilog export's declared widths can never overflow.

    Compares :func:`repro.arch.metrics.node_bitwidths` (what ``emit_verilog``
    sizes each node wire to) and :func:`repro.arch.verilog.output_width`
    (its ``OUT_W``) against this module's independently derived minimal
    safe widths.  An export width below the analytic bound means the RTL
    can silently truncate where the Python model would not — raised as
    :class:`~repro.errors.WidthContractViolation`.
    """
    declared = node_bitwidths(netlist, input_bits)
    required = min_node_widths(netlist, input_bits)
    for node_id, (have, need) in enumerate(zip(declared, required)):
        if have < need:
            raise WidthContractViolation(
                f"export declares {have} bits for node {node_id} but the "
                f"model requires {need} bits at input width {input_bits}"
            )
    declared_out = output_width(netlist, tap_names, input_bits)
    required_out = max(
        min_accumulator_widths(netlist, tap_names, input_bits), default=1
    )
    if declared_out < required_out:
        raise WidthContractViolation(
            f"export declares OUT_W={declared_out} but full-precision TDF "
            f"accumulation requires {required_out} bits at input width "
            f"{input_bits}"
        )
