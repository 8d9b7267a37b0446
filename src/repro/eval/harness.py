"""Experiment registry, dispatch, and paper-vs-measured comparison."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import ReproError
from ..quantize import ScalingScheme
from .experiments import (
    ExperimentResult,
    run_figure6,
    run_figure7,
    run_figure8,
    run_summary,
    run_table1,
)

__all__ = [
    "EXPERIMENTS",
    "PAPER_CLAIMS",
    "SweepOutcome",
    "paper_comparison",
    "run_experiment",
    "run_sweep",
]


@dataclass(frozen=True)
class _Registered:
    runner: Callable[..., ExperimentResult]
    description: str


EXPERIMENTS: Dict[str, _Registered] = {
    "fig6": _Registered(
        run_figure6,
        "MRPF vs simple, uniformly scaled SPT coefficients (W=8/12/16/20)",
    ),
    "fig7": _Registered(
        run_figure7,
        "MRPF vs simple, maximally scaled SPT coefficients (W=8/12/16/20)",
    ),
    "fig8a": _Registered(
        lambda **kw: run_figure8(ScalingScheme.UNIFORM, **kw),
        "MRPF+CSE vs CSE (CSD), uniformly scaled",
    ),
    "fig8b": _Registered(
        lambda **kw: run_figure8(ScalingScheme.MAXIMAL, **kw),
        "MRPF+CSE vs CSE (CSD), maximally scaled",
    ),
    "table1": _Registered(
        run_table1,
        "Filter specs + SEED sizes, W=16 maximal scaling, depth<=3",
    ),
    "summary": _Registered(
        run_summary,
        "Aggregate §5 claims including CLA-weighted complexity",
    ),
}

# The paper's published numbers per experiment (fraction reductions).
# The abstract's "7%" contradicts §5's "66%/74% vs simple"; §5 and the
# conclusion's context make clear the abstract meant ~70% (see EXPERIMENTS.md).
PAPER_CLAIMS: Dict[str, Dict[str, float]] = {
    "fig6": {"mean_reduction": 0.60},
    "fig7": {
        "mean_reduction_w8_w12": 0.60,
        "mean_reduction_w16_w20": 0.40,
    },
    "fig8a": {
        "mean_reduction_vs_cse": 0.17,
        "mean_reduction_vs_simple": 0.66,
    },
    "fig8b": {
        "mean_reduction_vs_cse": 0.15,
        "mean_reduction_vs_simple": 0.74,
    },
    "summary": {
        "cla_reduction_vs_cse_uniform": 0.16,
    },
}


def run_experiment(
    experiment_id: str,
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Run a registered experiment, optionally restricted for quick runs."""
    try:
        registered = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        ) from None
    kwargs = {}
    if filter_indices is not None:
        kwargs["filter_indices"] = filter_indices
    if wordlengths is not None and experiment_id != "table1":
        kwargs["wordlengths"] = wordlengths
    return registered.runner(**kwargs)


@dataclass(frozen=True)
class SweepOutcome:
    """One experiment's fate inside a robust sweep."""

    experiment_id: str
    result: Optional[ExperimentResult]
    error_type: Optional[str]
    error: Optional[str]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        """True when the experiment completed and produced a result."""
        return self.result is not None


def run_sweep(
    experiment_ids: Optional[Sequence[str]] = None,
    robust: bool = True,
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
) -> Tuple[SweepOutcome, ...]:
    """Run several experiments, surviving individual-instance failures.

    With ``robust`` (default) an experiment that raises — a solver blowup, a
    validation failure, an injected fault — is recorded as a failed
    :class:`SweepOutcome` and the sweep continues, so one pathological
    instance no longer aborts a whole benchmark run.  With ``robust=False``
    the first failure propagates (the historical behavior).

    This is the serial path.  For worker processes, a persistent disk cache
    or per-task deadlines use :func:`repro.eval.parallel.run_sweep_parallel`,
    whose replay phase calls this function over the warm caches, so its
    outcomes are byte-identical to these.
    """
    ids = (
        list(experiment_ids) if experiment_ids is not None
        else sorted(EXPERIMENTS)
    )
    outcomes = []
    for experiment_id in ids:
        started = time.monotonic()
        try:
            result = run_experiment(experiment_id, filter_indices, wordlengths)
        except Exception as exc:  # noqa: BLE001 — robust sweeps must survive
            if not robust:
                raise
            outcomes.append(
                SweepOutcome(
                    experiment_id=experiment_id,
                    result=None,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    elapsed_s=time.monotonic() - started,
                )
            )
            continue
        outcomes.append(
            SweepOutcome(
                experiment_id=experiment_id,
                result=result,
                error_type=None,
                error=None,
                elapsed_s=time.monotonic() - started,
            )
        )
    return tuple(outcomes)


def paper_comparison(result: ExperimentResult) -> Tuple[Tuple[str, float, float], ...]:
    """(metric, paper value, measured value) triples for the claims we track."""
    claims = PAPER_CLAIMS.get(result.experiment_id, {})
    rows = []
    for metric, paper_value in claims.items():
        measured = result.summary.get(metric)
        if measured is not None:
            rows.append((metric, paper_value, measured))
    return tuple(rows)
