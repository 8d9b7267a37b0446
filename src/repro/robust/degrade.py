"""Tiered degradation for MRPF synthesis: exact → greedy → trivial.

The MRP flow chains NP-hard searches whose running time explodes
unpredictably with tap count and wordlength.  :func:`synthesize` wraps the
whole plan→lower→verify pipeline in a cascade of tiers:

1. **exact** — plan with the branch-and-bound exact cover (optimal SEED
   selection).  On budget exhaustion the cover step hands back the
   solver's incumbent cover (complete, optimality unproven) with a warning,
   but the attempt still fails: the spent budget's next checkpoint raises
   before the plan is made.  The greedy tier then releases the design.
2. **greedy** — the paper's greedy weighted set cover (polynomial).
3. **trivial** — the all-roots per-tap plan, which always succeeds and
   reproduces the simple baseline.

Within each tier, a failed attempt is retried with *perturbed* options —
varying ``beta``, ``max_shift``, and the digit representation — because many
synthesis failures are instance-specific (a pathological cover, a degenerate
forest) and a nearby configuration sails through.

Attempts share work whose result cannot change.  The SIDC graph depends
only on ``(max_shift, representation)``, so each is built once per cascade
and later attempts reuse it (and its cached cover index).  The branch and
bound ignores β, so an exact attempt that differs from an earlier one only
in β replays that solve's outcome instead of rerunning it.  Both charge the
attempt's budget what the skipped work would have cost, so every attempt
exhausts at the same node count, with the same error, as a standalone
:func:`~repro.core.mrp.optimize` call.  The exact-solve memo is bypassed
when the budget has a deadline or is already exhausted, where a rerun is
not deterministic.

Every architecture released by :func:`synthesize` is re-verified against
exact convolution **of the caller's coefficient vector** (not the plan's own
record, which a fault may have corrupted); an attempt whose architecture
fails that self-check is *quarantined* into the attempt report rather than
returned.  If every tier fails, a :class:`~repro.errors.DegradationError`
carrying the full attempt history is raised — the cascade never hangs and
never returns an unverified architecture.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..arch.simulate import verify_against_convolution
from ..core.mrp import MrpOptions, MrpPlan, optimize, sidc_graph, trivial_plan
from ..core.sidc import normalize_taps
from ..core.transform import VERIFY_SAMPLES, MrpfArchitecture, lower_plan
from ..errors import (
    BudgetExceeded,
    CoverBudgetError,
    DegradationError,
    SynthesisError,
)
from ..graph import ColoredGraph, exact_weighted_set_cover
from ..numrep import Representation
from ..obs import metrics as obs_metrics
from ..obs import span as obs_span
from .budget import SolverBudget

__all__ = [
    "TIERS",
    "STAGES",
    "AttemptRecord",
    "RobustConfig",
    "RobustResult",
    "synthesize",
]

TIERS = ("exact", "greedy", "trivial")
STAGES = ("plan", "lower", "verify")


@dataclass(frozen=True)
class RobustConfig:
    """Knobs of the degradation cascade.

    ``deadline_s`` bounds the *whole* cascade: once it passes, remaining
    expensive tiers are skipped and only the final tier's base attempt runs
    (the trivial tier is cheap, so total wall clock stays close to the
    deadline).  ``max_nodes`` caps each cover-solver attempt.
    ``max_retries`` is the number of *perturbed* retries per tier beyond the
    base attempt.  ``exact_max_universe`` guards the exact tier the same way
    :func:`~repro.graph.exact_weighted_set_cover` does.

    ``release_audit`` (default on) runs the independent
    :func:`repro.verify.release_audit` — structure invariants, export width
    contract, overflow-free corner vectors, differential equivalence —
    after the convolution self-check; an architecture failing it is
    quarantined exactly like a convolution mismatch.
    ``release_audit_input_bits`` is the input wordlength that audit assumes.
    """

    tiers: Tuple[str, ...] = TIERS
    deadline_s: Optional[float] = None
    max_nodes: Optional[int] = 500_000
    max_retries: int = 2
    seed_compression: str = "none"
    exact_max_universe: int = 18
    verify_samples: Tuple[int, ...] = VERIFY_SAMPLES
    release_audit: bool = True
    release_audit_input_bits: int = 16

    def __post_init__(self) -> None:
        if not self.tiers:
            raise SynthesisError("RobustConfig needs at least one tier")
        unknown = [t for t in self.tiers if t not in TIERS]
        if unknown:
            raise SynthesisError(
                f"unknown tiers {unknown!r}; choose from {TIERS}"
            )
        if self.max_retries < 0:
            raise SynthesisError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.deadline_s is not None and self.deadline_s < 0:
            raise SynthesisError(
                f"deadline_s must be >= 0, got {self.deadline_s}"
            )


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of the cascade: where it ran and how it ended.

    ``outcome`` is ``"ok"`` (verified and released), ``"failed"`` (died
    before producing an architecture), or ``"quarantined"`` (produced an
    architecture that failed the convolution self-check — reported, never
    returned).  ``stage`` is the pipeline stage reached (``"done"`` for ok).
    """

    tier: str
    stage: str
    outcome: str
    beta: float
    max_shift: Optional[int]
    representation: str
    error_type: Optional[str] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    #: Wall time of this attempt as measured by the tracer's ``synth.attempt``
    #: span (monotonic fallback when tracing is off).  ``elapsed_s`` is kept
    #: for backward compatibility; the two agree up to clock granularity.
    duration_s: float = 0.0


@dataclass(frozen=True)
class RobustResult:
    """What :func:`synthesize` released, and the full story of getting there."""

    architecture: MrpfArchitecture
    tier: str
    attempts: Tuple[AttemptRecord, ...]
    elapsed_s: float
    warnings: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when at least one attempt failed before the released one."""
        return len(self.attempts) > 1

    @property
    def num_attempts(self) -> int:
        """Total attempts made, including the successful one."""
        return len(self.attempts)

    @property
    def quarantined(self) -> Tuple[AttemptRecord, ...]:
        """Attempts whose architecture failed the self-check."""
        return tuple(a for a in self.attempts if a.outcome == "quarantined")


def _perturbations(
    base: MrpOptions, wordlength: int, max_retries: int
) -> Iterator[MrpOptions]:
    """The deterministic retry schedule: base first, then nearby configs.

    Perturbs one knob at a time — β toward the corners, the other digit
    representation, then a halved shift range — so a failure tied to any
    single knob is escaped within a few retries.
    """
    yield base
    emitted = 0
    variants: List[MrpOptions] = []
    for beta in (0.25, 0.75, 0.0, 1.0):
        if abs(beta - base.beta) > 1e-9:
            variants.append(replace(base, beta=beta))
    other_rep = (
        Representation.SM
        if base.representation == Representation.CSD
        else Representation.CSD
    )
    variants.append(replace(base, representation=other_rep))
    shift = base.max_shift if base.max_shift is not None else wordlength
    if shift > 1:
        variants.append(replace(base, max_shift=shift // 2))
    for options in variants:
        if emitted >= max_retries:
            return
        emitted += 1
        yield options


@dataclass
class _Shared:
    """What the attempts of one cascade share: its graphs and exact solves.

    ``graphs`` is keyed by ``(max_shift, representation)`` (see
    :func:`~repro.core.mrp.sidc_graph`); ``solves`` holds one memo per such
    set system for :func:`_exact_solve`.
    """

    vertices: Tuple[int, ...]
    graphs: Dict[Tuple[int, Representation], ColoredGraph] = field(
        default_factory=dict
    )
    solves: Dict[Tuple[int, Representation], dict] = field(
        default_factory=dict
    )


def _exact_solve(universe, sets, costs, config: RobustConfig,
                 budget: SolverBudget, memo: Optional[dict]):
    """One exact branch-and-bound solve, or the replay of an identical one.

    ``memo`` belongs to one set system of one cascade.  It maps the
    budget's state when a solve began (nodes spent, node cap) to the nodes
    the solve spent and its outcome: the cover or the
    :class:`~repro.errors.CoverBudgetError`.  The solve is deterministic and
    ignores β, so a β-only retry starting from the same state would repeat
    it node for node; the replay charges the same nodes and returns or
    raises the same outcome instead.  A budget with a deadline, or one
    already exhausted (chaos forces that), is never memoized: a rerun
    could stop elsewhere.
    """
    replayable = (
        memo is not None and budget.deadline_s is None and not budget.exhausted
    )
    key = (budget.nodes_used, budget.max_nodes)
    if replayable and key in memo:
        spent, outcome = memo[key]
        # The memoized outcome already says how this charge ends.
        with contextlib.suppress(BudgetExceeded):
            budget.spend_units(spent)
        if isinstance(outcome, CoverBudgetError):
            raise CoverBudgetError(str(outcome), partial=outcome.partial)
        return outcome
    started = budget.nodes_used
    try:
        outcome = exact_weighted_set_cover(
            universe, sets, costs,
            max_universe=config.exact_max_universe,
            budget=budget,
        )
    except CoverBudgetError as exc:
        if replayable:
            memo[key] = (budget.nodes_used - started, exc)
        raise
    if replayable:
        memo[key] = (budget.nodes_used - started, outcome)
    return outcome


def _exact_cover_fn(config: RobustConfig, budget: SolverBudget,
                    warnings: List[str], memo: Optional[dict] = None):
    """Cover solver for the exact tier (``memo``: see :func:`_exact_solve`).

    On budget exhaustion it returns the solver's incumbent cover, when there
    is one, with a warning.  That does not release the incumbent:
    the budget is spent, so the checkpoint :func:`optimize` runs after the
    cover raises :class:`~repro.errors.BudgetExceeded` and the attempt
    fails.  Behaviour kept on purpose: on filter 3 at W=20 (maximal
    scaling) the incumbent costs 38 against the greedy cover's 41, yet
    would need 91 adders where the greedy release needs 85.
    """

    def cover(universe, sets, costs, options):
        try:
            return _exact_solve(universe, sets, costs, config, budget, memo)
        except CoverBudgetError as exc:
            incumbent = exc.partial
            if incumbent is not None:
                warnings.append(
                    "exact cover budget exhausted; reusing the incumbent "
                    f"cover ({len(incumbent.colors)} colors, optimality "
                    "unproven)"
                )
                return incumbent
            raise

    return cover


def _plan_tier(
    tier: str,
    coefficients: Tuple[int, ...],
    wordlength: int,
    options: MrpOptions,
    config: RobustConfig,
    budget: SolverBudget,
    warnings: List[str],
    shared: _Shared,
) -> MrpPlan:
    if tier == "trivial":
        return trivial_plan(coefficients, options)
    graph = None
    if wordlength >= 1 and len(shared.vertices) > 1:
        # Where optimize would build a graph (it rejects wordlength < 1
        # first and needs none below two vertices), build it once per cascade.
        graph = sidc_graph(
            shared.vertices, wordlength, options, budget, shared.graphs
        )
    cover_fn = None
    if tier == "exact":
        memo = None if graph is None else shared.solves.setdefault(
            (graph.max_shift, graph.representation), {}
        )
        cover_fn = _exact_cover_fn(config, budget, warnings, memo)
    return optimize(
        coefficients, wordlength, options, graph=graph, budget=budget,
        cover_fn=cover_fn,
    )


def synthesize(
    coefficients: Sequence[int],
    wordlength: int,
    options: Optional[MrpOptions] = None,
    config: Optional[RobustConfig] = None,
    chaos=None,
    budget: Optional[SolverBudget] = None,
) -> RobustResult:
    """Synthesize ``coefficients`` through the degradation cascade.

    Returns a :class:`RobustResult` whose architecture has been verified
    against exact convolution of the *requested* coefficients.  Raises
    :class:`~repro.errors.DegradationError` (with the attempt history) only
    when every tier and every perturbed retry failed.

    ``chaos`` is an optional :class:`~repro.robust.ChaosHarness`; when given,
    its fault hooks run at every stage boundary — production callers leave it
    ``None``.

    ``budget`` supplies an *external* overall budget for the cascade instead
    of one derived from ``config.deadline_s`` — a sweep worker passes the
    same budget to every call so its whole shard, not each instance, is
    bounded (``config.deadline_s`` is ignored in that case).
    """
    cfg = config or RobustConfig()
    base_options = options or MrpOptions()
    coefficients = tuple(int(c) for c in coefficients)
    started = time.monotonic()
    overall = (budget or SolverBudget(deadline_s=cfg.deadline_s)).start()
    attempts: List[AttemptRecord] = []
    warnings: List[str] = []
    samples = list(cfg.verify_samples)
    last_tier = cfg.tiers[-1]
    vertices, _ = normalize_taps(coefficients)
    shared = _Shared(tuple(vertices))

    for tier in cfg.tiers:
        if tier == "exact" and len(vertices) > cfg.exact_max_universe:
            warnings.append(
                f"{len(vertices)} primary coefficients exceed "
                f"exact_max_universe={cfg.exact_max_universe}; "
                "skipping the exact tier"
            )
            continue
        if overall.exhausted and tier != last_tier:
            warnings.append(
                f"deadline reached after {overall.elapsed_s:.3f}s; "
                f"skipping tier {tier!r}"
            )
            continue
        for index, tier_options in enumerate(
            _perturbations(base_options, wordlength, cfg.max_retries)
        ):
            if index > 0 and overall.exhausted:
                warnings.append(
                    f"deadline reached; abandoning retries of tier {tier!r}"
                )
                break
            attempt_budget = SolverBudget(
                deadline_s=overall.remaining_s, max_nodes=cfg.max_nodes
            )
            architecture, record = _run_attempt(
                tier, coefficients, wordlength, tier_options,
                cfg, attempt_budget, chaos, samples, warnings, shared,
            )
            attempts.append(record)
            if architecture is not None:
                return RobustResult(
                    architecture=architecture,
                    tier=tier,
                    attempts=tuple(attempts),
                    elapsed_s=time.monotonic() - started,
                    warnings=tuple(warnings),
                )
    raise DegradationError(
        f"all {len(attempts)} attempts across tiers {cfg.tiers!r} failed "
        f"for {len(coefficients)} taps (last error: "
        f"{attempts[-1].error_type}: {attempts[-1].error})",
        attempts=tuple(attempts),
    )


def _run_attempt(
    tier: str,
    coefficients: Tuple[int, ...],
    wordlength: int,
    options: MrpOptions,
    config: RobustConfig,
    budget: SolverBudget,
    chaos,
    samples: List[int],
    warnings: List[str],
    shared: _Shared,
):
    """One plan→lower→verify attempt; never raises (records instead)."""
    stage = "plan"
    attempt_started = time.monotonic()

    with obs_span(
        "synth.attempt",
        tier=tier,
        beta=options.beta,
        representation=options.representation.value,
    ) as sp:

        def record(outcome: str, stage_name: str,
                   error: Optional[BaseException]):
            duration = sp.elapsed() or (time.monotonic() - attempt_started)
            sp.set_tag("outcome", outcome)
            obs_metrics.counter(
                "repro_degrade_attempts_total", tier=tier, outcome=outcome
            ).inc()
            return AttemptRecord(
                tier=tier,
                stage=stage_name,
                outcome=outcome,
                beta=options.beta,
                max_shift=options.max_shift,
                representation=options.representation.value,
                error_type=type(error).__name__ if error is not None else None,
                error=str(error) if error is not None else None,
                elapsed_s=time.monotonic() - attempt_started,
                duration_s=duration,
            )

        try:
            if chaos is not None:
                chaos.before("plan", budget)
            plan = _plan_tier(
                tier, coefficients, wordlength, options, config, budget,
                warnings, shared,
            )
            if chaos is not None:
                plan = chaos.transform("plan", plan)

            stage = "lower"
            if chaos is not None:
                chaos.before("lower", budget)
            architecture = lower_plan(plan, config.seed_compression)
            if chaos is not None:
                architecture = chaos.transform("lower", architecture)

            stage = "verify"
            if chaos is not None:
                chaos.before("verify", budget)
                architecture = chaos.transform("verify", architecture)
            if tuple(architecture.coefficients) != coefficients:
                raise SynthesisError(
                    "architecture reports coefficients "
                    f"{architecture.coefficients!r} instead of the requested "
                    f"{coefficients!r}"
                )
            verify_against_convolution(
                architecture.netlist, architecture.tap_names,
                list(coefficients), samples,
            )
            if config.release_audit:
                # Imported lazily: repro.verify pulls in the mutation engine,
                # which lives next door in repro.robust.chaos.
                from ..verify import release_audit

                release_audit(
                    architecture.netlist, architecture.tap_names,
                    list(coefficients),
                    input_bits=config.release_audit_input_bits,
                )
            return architecture, record("ok", "done", None)
        except Exception as exc:  # noqa: BLE001 — chaos injects arbitrary faults
            outcome = "quarantined" if stage == "verify" else "failed"
            return None, record(outcome, stage, exc)
