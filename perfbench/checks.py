"""Output checks that do not trust the program under test.

Netlists are simulated here from their raw node list — the declared
fundamentals are ignored — and the filter output is compared against
``numpy.convolve`` of the requested integer taps on a seeded input stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

#: Input samples are signed 16-bit; with coefficients below 2**21 and at
#: most 80 taps every partial sum fits comfortably in int64.
INPUT_BITS = 16
STREAM_LENGTH = 48


class OutputMismatch(AssertionError):
    """A program output disagrees with the benchmark's own reference."""


def input_stream(seed: int, length: int = STREAM_LENGTH) -> np.ndarray:
    """The seeded signed input samples every netlist is driven with."""
    rng = np.random.default_rng(seed)
    low, high = -(1 << (INPUT_BITS - 1)), 1 << (INPUT_BITS - 1)
    stream = rng.integers(low, high, size=length, dtype=np.int64)
    stream[:4] = (high - 1, low, 1, -1)  # extremes and unit impulses
    return stream


def _ref(values: Dict[int, np.ndarray], ref) -> np.ndarray:
    return ref.sign * (values[ref.node] << ref.shift)


def tap_products(netlist, tap_names: Sequence[str], x: np.ndarray) -> List[np.ndarray]:
    """Each tap output of the multiplier block for input samples ``x``."""
    values: Dict[int, np.ndarray] = {}
    for node in netlist.nodes:
        if node.a is None and node.b is None:
            values[node.id] = x
        else:
            values[node.id] = _ref(values, node.a) + _ref(values, node.b)
    outputs = netlist.outputs
    return [
        _ref(values, outputs[name]) if outputs[name] is not None
        else np.zeros_like(x)
        for name in tap_names
    ]


def check_netlist(netlist, tap_names, taps: Sequence[int], x: np.ndarray) -> None:
    """Direct-form FIR built from the netlist's tap products vs convolve."""
    taps = [int(t) for t in taps]
    if len(tap_names) != len(taps):
        raise OutputMismatch(
            f"netlist has {len(tap_names)} taps, {len(taps)} were requested"
        )
    products = tap_products(netlist, tap_names, x)
    y = np.zeros(len(x) + len(taps) - 1, dtype=np.int64)
    for k, product in enumerate(products):
        y[k:k + len(x)] += product
    expected = np.convolve(x, np.asarray(taps, dtype=np.int64))
    if not np.array_equal(y, expected):
        bad = int(np.flatnonzero(y != expected)[0])
        raise OutputMismatch(
            f"netlist output {int(y[bad])} != convolution {int(expected[bad])} "
            f"at sample {bad} for taps {taps}"
        )


@dataclass
class SweepQuality:
    """The benchmark's own aggregates over the figure records of exports."""

    adders: int = 0
    vs_simple: List[float] = field(default_factory=list)
    vs_cse: List[float] = field(default_factory=list)

    def metrics(self) -> Dict[str, float]:
        """MRPF adders summed, and the mean normalized complexities.

        A ratio with no checked rows (its exports failed a check) reads
        1.0, no reduction, so the run still reports every metric.
        """
        return {
            "adders_total": float(self.adders),
            "adders_vs_simple": mean_or_one(self.vs_simple),
            "adders_vs_cse": mean_or_one(self.vs_cse),
        }


def mean_or_one(values: List[float]) -> float:
    return sum(values) / len(values) if values else 1.0


def check_sweep_export(export_text: str, quality: SweepQuality) -> None:
    """Recompute the figures' means from the records; check invariants.

    Adds to ``quality`` the MRPF adders of the figure records and the
    per-row normalized complexity of MRPF vs simple (fig6/fig7) and of
    MRPF+CSE vs CSE (fig8a/fig8b).  Raises :class:`OutputMismatch` when an
    experiment failed, when an MRPF design is worse than the simple per-tap
    design it must never lose to, or when an experiment's summary disagrees
    with its records.
    """
    for entry in json.loads(export_text)["sweep"]:
        if not entry["ok"]:
            raise OutputMismatch(
                f"{entry['experiment']} failed: {entry['error_type']}: "
                f"{entry['error']}"
            )
        experiment = entry["experiment"]
        if experiment in ("fig6", "fig7"):
            method, base, ratios = "mrpf", "simple", quality.vs_simple
            summary_key = "mean_normalized_complexity"
        elif experiment in ("fig8a", "fig8b"):
            method, base, ratios = "mrpf_cse", "cse", quality.vs_cse
            summary_key = "mean_normalized_vs_cse"
        else:
            continue
        rows: Dict[tuple, Dict[str, int]] = {}
        for record in entry["records"]:
            key = (record["filter"], record["wordlength"], record["scaling"])
            rows.setdefault(key, {})[record["method"]] = record["adders"]
        normalized = []
        for key, row in rows.items():
            if row[method] > row["simple"]:
                raise OutputMismatch(
                    f"{experiment} {key}: {method} uses {row[method]} adders, "
                    f"more than the simple design's {row['simple']}"
                )
            quality.adders += row[method]
            normalized.append(row[method] / row[base])
        mean = sum(normalized) / len(normalized)
        if abs(entry["summary"][summary_key] - mean) > 1e-9:
            raise OutputMismatch(
                f"{experiment} summary {summary_key}="
                f"{entry['summary'][summary_key]} but the records give {mean}"
            )
        ratios.extend(normalized)
