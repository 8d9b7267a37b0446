"""Equivalence proving: netlist vs golden convolution vs compiled C model.

Three escalating strengths of the same claim — the optimized shift-add
netlist computes *exactly* the filter the coefficients describe:

* :func:`exhaustive_equivalence` — for small input wordlengths, sweep every
  representable two's-complement sample through the multiplier block and
  prove each tap product equals ``coefficient * x``.  Because the block is
  combinational and the TDF chain is exact addition, per-sample exhaustion
  over the block *is* exhaustive over all input sequences — a complete
  proof, not a sampling argument.  Unless fast paths are off, the whole
  sample range goes through the block as one int64 column
  (:func:`repro.fastpath.tdfsim.exhaustive_check`); the per-sample loop is
  the reference and runs when a column could leave int64.
* :func:`differential_equivalence` — corner vectors (impulse, step,
  alternating sign, max magnitude) plus seeded-random blocks through the
  cycle-accurate simulator, diffed against golden direct convolution.
* :func:`cmodel_equivalence` — the same stimulus through the *compiled*
  C model (:mod:`repro.arch.cmodel`), catching emission bugs the Python
  model cannot see.  Skipped (returns ``None``) when no C compiler is on
  PATH, so library code never hard-depends on a toolchain.

All divergences raise :class:`~repro.errors.EquivalenceViolation` naming
the vector and cycle, so a failure is immediately reproducible.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import tempfile
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .. import fastpath
from ..arch.cmodel import emit_c_model
from ..arch.netlist import ShiftAddNetlist
from ..arch.simulate import evaluate_nodes, simulate_tdf_filter
from ..errors import EquivalenceViolation, VerificationError
from ..fastpath import tdfsim

__all__ = [
    "EXHAUSTIVE_MAX_BITS",
    "cmodel_equivalence",
    "corner_vectors",
    "differential_equivalence",
    "exhaustive_equivalence",
    "golden_convolution",
]

#: Exhaustive sweeps above this input width are refused — 2^12 node walks
#: is the knee where "complete proof" stops being interactive.
EXHAUSTIVE_MAX_BITS = 12


def golden_convolution(
    coefficients: Sequence[int], samples: Sequence[int]
) -> List[int]:
    """Exact direct-form convolution — the golden reference (same length).

    A plain per-sample loop over unbounded ints, sharing no code with the
    simulators it checks.
    """
    out: List[int] = []
    for n in range(len(samples)):
        acc = 0
        for i, c in enumerate(coefficients):
            if n - i < 0:
                break
            acc += c * samples[n - i]
        out.append(acc)
    return out


def corner_vectors(num_taps: int, input_bits: int = 16) -> Dict[str, List[int]]:
    """The named corner stimuli, each long enough to flush the tap chain.

    ``impulse`` and ``negative_impulse`` exercise the full impulse
    response at peak magnitude; ``step`` accumulates the maximal running
    sum; ``alternating`` swings every register through its full range each
    cycle (the classic worst case for wrap-around bugs); ``max_magnitude``
    holds the most negative representable input — the asymmetric
    two's-complement corner.
    """
    if num_taps < 1:
        raise VerificationError("corner vectors need at least one tap")
    if input_bits < 1:
        raise VerificationError(f"input_bits must be >= 1, got {input_bits}")
    hi = (1 << (input_bits - 1)) - 1
    lo = -(1 << (input_bits - 1))
    length = num_taps + 4
    return {
        "impulse": [hi] + [0] * (length - 1),
        "negative_impulse": [lo] + [0] * (length - 1),
        "step": [hi] * length,
        "alternating": [hi if i % 2 == 0 else lo for i in range(length)],
        "max_magnitude": [lo] * length,
    }


def _check_declared(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    coefficients: Sequence[int],
) -> None:
    if len(tap_names) != len(coefficients):
        raise VerificationError(
            f"{len(tap_names)} tap names for {len(coefficients)} coefficients"
        )
    declared = netlist.output_values()
    for name, coefficient in zip(tap_names, coefficients):
        carried = declared.get(name)
        if carried != int(coefficient):
            raise EquivalenceViolation(
                f"output {name!r} carries {carried}, expected coefficient "
                f"{coefficient}"
            )


def exhaustive_equivalence(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    coefficients: Sequence[int],
    input_bits: int = 8,
) -> int:
    """Prove every tap product for *every* ``input_bits``-bit sample.

    Returns the number of samples swept.  A complete proof for the
    multiplier block (and hence, by linearity of the exact TDF chain, for
    every input sequence at that wordlength).
    """
    if not 1 <= input_bits <= EXHAUSTIVE_MAX_BITS:
        raise VerificationError(
            f"exhaustive sweep supports 1..{EXHAUSTIVE_MAX_BITS} input bits, "
            f"got {input_bits}"
        )
    _check_declared(netlist, tap_names, coefficients)
    lo = -(1 << (input_bits - 1))
    hi = 1 << (input_bits - 1)
    if fastpath.tdfsim_enabled():
        swept = tdfsim.exhaustive_check(
            netlist, tap_names, coefficients, lo, hi
        )
        if swept is not None:
            return swept
    refs = netlist.tap_refs(tap_names)
    count = 0
    for sample in range(lo, hi):
        outputs = evaluate_nodes(netlist, sample, check_linearity=True)
        for name, ref, coefficient in zip(tap_names, refs, coefficients):
            product = 0 if ref is None else ref.value(outputs[ref.node])
            if product != coefficient * sample:
                raise EquivalenceViolation(
                    f"tap {name!r} computes {product} for sample {sample}, "
                    f"expected {coefficient} * {sample} = "
                    f"{coefficient * sample}"
                )
        count += 1
    return count


def differential_equivalence(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    coefficients: Sequence[int],
    input_bits: int = 16,
    random_blocks: int = 2,
    block_len: int = 48,
    seed: int = 0,
    extra_vectors: Optional[Dict[str, Sequence[int]]] = None,
) -> int:
    """Corner + seeded-random differential test vs golden convolution.

    Returns the total number of cycles compared: the sum of the vector
    lengths.  ``extra_vectors`` lets a caller append regression stimuli
    (e.g. a previously escaping input).

    The vectors run as one stream, each followed by ``len(tap_names)``
    zeros that flush the tap chain, so every vector starts from rest as
    it would alone: one simulation and one convolution in all.  A mismatch
    names the vector it falls in, or follows when it falls in a flush,
    and its cycle counted from that vector's first sample.
    """
    _check_declared(netlist, tap_names, coefficients)
    vectors: Dict[str, List[int]] = dict(
        corner_vectors(len(tap_names), input_bits)
    )
    rng = random.Random(seed)
    lo = -(1 << (input_bits - 1))
    hi = (1 << (input_bits - 1)) - 1
    for block in range(random_blocks):
        vectors[f"random_{block}"] = [
            rng.randint(lo, hi) for _ in range(block_len)
        ]
    if extra_vectors:
        for name, stimulus in extra_vectors.items():
            vectors[name] = [int(x) for x in stimulus]
    stream: List[int] = []
    starts: List[int] = []  # each vector's first cycle in the stream
    for stimulus in vectors.values():
        starts.append(len(stream))
        stream.extend(stimulus)
        stream.extend([0] * len(tap_names))
    got = simulate_tdf_filter(netlist, tap_names, stream)
    want = golden_convolution(coefficients, stream)
    for at, (g, w) in enumerate(zip(got, want)):
        if g != w:
            owner = bisect_right(starts, at) - 1
            raise EquivalenceViolation(
                f"vector {list(vectors)[owner]!r} cycle {at - starts[owner]}: "
                f"netlist produced {g}, golden convolution {w}"
            )
    return sum(len(stimulus) for stimulus in vectors.values())


def _find_compiler() -> Optional[str]:
    return shutil.which("gcc") or shutil.which("cc")


def cmodel_equivalence(
    netlist: ShiftAddNetlist,
    tap_names: Sequence[str],
    coefficients: Sequence[int],
    input_bits: int = 16,
    seed: int = 0,
    workdir: Optional[Path] = None,
) -> Optional[int]:
    """Compile the emitted C model and diff it against the Python simulator.

    Returns the number of cycles compared, or ``None`` when no C compiler
    is available (the caller records the check as skipped, never failed).
    Uses the corner vectors plus one seeded-random block as stimulus.
    """
    compiler = _find_compiler()
    if compiler is None:
        return None
    _check_declared(netlist, tap_names, coefficients)
    vectors = corner_vectors(len(tap_names), input_bits)
    rng = random.Random(seed)
    lo = -(1 << (input_bits - 1))
    hi = (1 << (input_bits - 1)) - 1
    vectors["random_0"] = [rng.randint(lo, hi) for _ in range(48)]
    stimulus: List[int] = []
    for block in vectors.values():
        stimulus.extend(block)
        stimulus.extend([0] * len(tap_names))  # flush between vectors
    source = emit_c_model(netlist, tap_names, input_bits=input_bits)

    def run(workspace: Path) -> int:
        c_file = workspace / "filter.c"
        binary = workspace / "filter"
        c_file.write_text(source)
        try:
            subprocess.run(
                [compiler, "-O2", "-o", str(binary), str(c_file)],
                check=True, capture_output=True,
            )
            result = subprocess.run(
                [str(binary)],
                input=" ".join(str(x) for x in stimulus),
                capture_output=True, text=True, check=True, timeout=60,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise EquivalenceViolation(
                f"C model failed to compile or run: {exc}"
            ) from exc
        got = [int(line) for line in result.stdout.split()]
        want = simulate_tdf_filter(netlist, tap_names, stimulus)
        if len(got) != len(want):
            raise EquivalenceViolation(
                f"C model emitted {len(got)} samples, simulator {len(want)}"
            )
        for cycle, (g, w) in enumerate(zip(got, want)):
            if g != w:
                raise EquivalenceViolation(
                    f"C model diverges from the Python model at cycle "
                    f"{cycle}: C={g}, Python={w}"
                )
        return len(want)

    if workdir is not None:
        return run(Path(workdir))
    with tempfile.TemporaryDirectory(prefix="repro-verify-cmodel-") as tmp:
        return run(Path(tmp))
