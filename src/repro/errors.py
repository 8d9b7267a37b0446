"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the library with a single ``except`` clause
while still distinguishing the failure domains below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class EncodingError(ReproError):
    """A number could not be encoded in the requested digit representation."""


class QuantizationError(ReproError):
    """Coefficient quantization failed (empty taps, zero vector, bad width)."""


class FilterDesignError(ReproError):
    """A filter specification could not be realized."""


class GraphError(ReproError):
    """The SIDC colored graph or one of its derived structures is invalid."""


class SynthesisError(ReproError):
    """MRP/CSE synthesis could not produce a valid architecture."""


class NetlistError(ReproError):
    """A shift-add netlist failed structural or functional validation."""


class SimulationError(ReproError):
    """Bit-accurate simulation detected an inconsistency."""


class BudgetExceeded(ReproError):
    """A cooperative solver exhausted its :class:`~repro.robust.SolverBudget`.

    Raised from a solver's budget checkpoint when the wall-clock deadline
    passes or the node/iteration cap is hit, so unbounded searches become
    interruptible instead of hanging.  ``partial`` optionally carries the
    best feasible result found before exhaustion (e.g. an incumbent
    :class:`~repro.graph.CoverSolution` or a partially improved coefficient
    vector) so degradation tiers can reuse it instead of recomputing.
    """

    def __init__(self, message: str, partial: object = None) -> None:
        super().__init__(message)
        self.partial = partial


class CoverBudgetError(BudgetExceeded, GraphError):
    """The exact-cover branch and bound ran out of budget mid-search.

    Subclasses both :class:`BudgetExceeded` (it is a budget exhaustion) and
    :class:`GraphError` (historical contract of the exact solver).  When a
    complete-but-unproven cover was already found, ``partial`` holds it.
    """


class SupervisorError(ReproError):
    """The sweep engine was misconfigured or cannot proceed.

    Raised for contract violations of
    :func:`~repro.eval.parallel.run_sweep_parallel` — e.g.
    ``resume=True`` without a journal directory, or a negative retry
    budget — never for worker-side failures, which are always folded into
    :class:`~repro.eval.TaskOutcome` records instead of raised.
    """


class SweepAborted(SupervisorError):
    """A sweep stopped early at its caller's request.

    Raised between task completions when the job-level ``deadline_at``
    passes or the ``should_stop`` callback given to
    :func:`~repro.eval.parallel.run_sweep_parallel` returns a reason
    (e.g. the owning service job was cancelled or expired).  Every outcome
    journaled before the abort is durable, so a later resumed run skips
    the finished work — aborting loses time, never results.
    """


class JournalError(SupervisorError):
    """A sweep journal is unreadable or belongs to a different sweep/version.

    The write-ahead log replayed by ``--resume`` carries a header binding it
    to one sweep signature and one code version; resuming against a journal
    written by different code (whose cached results could be stale) or for a
    different sweep raises this instead of silently mixing results.
    """


class ServiceError(ReproError):
    """Base of the :mod:`repro.service` taxonomy.

    Every failure the synthesis job service can signal to a caller is a
    subclass, so the HTTP layer can map exception type to status code while
    a plain ``except ServiceError`` still catches the whole family.
    """


class SpecError(ServiceError):
    """A submitted job spec is malformed or names unknown work (HTTP 400)."""


class AdmissionRejected(ServiceError):
    """The service is shedding load and refused to accept a job (HTTP 429).

    ``retry_after_s`` is the server's estimate — derived from observed job
    durations and current queue depth — of when capacity will free up; it
    becomes the response's ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitOpen(AdmissionRejected):
    """The worker-pool circuit breaker is open (HTTP 503).

    Raised when repeated ``BrokenProcessPool`` rebuilds within the breaker
    window indicate the execution substrate itself is sick — admitting more
    work would only feed the failure.  ``retry_after_s`` is the remaining
    cooldown.
    """


class JobStateError(ServiceError):
    """A job lifecycle operation is illegal in the job's current state.

    Raised for transitions outside the state machine (e.g. completing a
    job that was already cancelled) and for requests that need a state the
    job is not in (fetching the result of a still-running job maps this to
    HTTP 409/404 at the API layer).
    """


class StoreUnavailable(ServiceError):
    """The durable job store cannot accept writes right now (HTTP 503).

    Raised when a WAL append fails (ENOSPC, I/O error) *before* the job
    was acknowledged: the in-memory state is rolled back, the client gets
    a 503 with ``Retry-After``, and nothing claims durability it does not
    have.  Mirrors the disk cache's non-fatal ``put_errors`` philosophy —
    a full disk degrades the service, it does not crash it.
    """

    def __init__(self, message: str, retry_after_s: float = 5.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ClientError(ServiceError):
    """Base of the :mod:`repro.service.client` taxonomy.

    Everything the resilient client can raise after exhausting its own
    retry discipline is a subclass, so callers can ``except ClientError``
    for "the service interaction failed for good" while still branching on
    deadline vs breaker vs server-rejection below.
    """


class ClientDeadlineError(ClientError):
    """The client's overall deadline budget ran out mid-operation.

    Raised instead of silently hanging when the remaining budget cannot
    cover the next attempt (including a server ``Retry-After`` longer than
    what is left).  ``last_state`` carries the most recent job view (or
    error payload) the client managed to fetch, so a caller that timed out
    waiting still learns where the job stood; ``elapsed_s`` is how long the
    operation ran before giving up.
    """

    def __init__(
        self,
        message: str,
        last_state: object = None,
        elapsed_s: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.last_state = last_state
        self.elapsed_s = elapsed_s


class ClientCircuitOpen(ClientError):
    """The client-side circuit breaker is open; the call was not attempted.

    After ``breaker_threshold`` consecutive transport-level failures the
    client stops hammering a dead or dying endpoint for a cooldown period,
    mirroring the server's admission breaker.  ``retry_after_s`` is the
    remaining cooldown.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServerRejected(ClientError):
    """The server answered with a non-retryable error status (4xx).

    Carries the decoded error payload so callers see the server's own
    taxonomy (``error_type`` is the server-side exception class name, e.g.
    ``"SpecError"`` for a 400 or ``"JobStateError"`` for a 404/409).
    """

    def __init__(
        self,
        message: str,
        status: int,
        error_type: str = "",
        payload: object = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.payload = payload


class VerificationError(ReproError):
    """Base of the :mod:`repro.verify` taxonomy.

    Every failure the independent hardware-verification layer can detect is
    a subclass, so a release gate can branch on *which* audit tripped
    (structure vs fixed-point vs equivalence vs the mutation gate) while a
    plain ``except VerificationError`` still catches the whole family.
    """


class StructureViolation(VerificationError, NetlistError):
    """A netlist failed the structural invariant audit.

    Dual-inherits :class:`NetlistError` so callers of the historical
    ``validate()`` contract keep catching structural corruption without
    knowing about the verification layer.
    """


class AcyclicityViolation(StructureViolation):
    """A node references itself, a later node, or a nonexistent node."""


class FundamentalViolation(StructureViolation):
    """The odd-fundamental table disagrees with the nodes it indexes."""


class DepthViolation(StructureViolation):
    """The audited adder depth exceeds the declared depth bound."""


class AdderCountMismatch(StructureViolation):
    """The reported adder count differs from the audited count."""


class DanglingRefViolation(StructureViolation):
    """An output or operand reference points outside the DAG, or a
    required tap output was never marked."""


class OverflowViolation(VerificationError, SimulationError):
    """Finite-wordlength evaluation overflowed at a specific site.

    Dual-inherits :class:`SimulationError`: an overflow is a simulation
    inconsistency first, so pre-existing ``except SimulationError`` paths
    (e.g. the robust cascade's quarantine logic) treat it correctly.
    """

    def __init__(self, message: str, site: str = "", cycle: int = -1) -> None:
        super().__init__(message)
        self.site = site
        self.cycle = cycle


class WidthContractViolation(VerificationError):
    """The RTL export declares a narrower width than the model requires."""


class EquivalenceViolation(VerificationError, SimulationError):
    """The netlist's response diverged from the golden reference."""


class MutationGateError(VerificationError):
    """The mutation campaign's kill rate fell below the release threshold.

    ``escaped`` carries the mutant descriptions that survived every audit,
    for triage of the verifier's blind spot.
    """

    def __init__(self, message: str, escaped: tuple = ()) -> None:
        super().__init__(message)
        self.escaped = tuple(escaped)


class DegradationError(SynthesisError):
    """Every tier of the robust synthesis cascade failed.

    ``attempts`` holds the full :class:`~repro.robust.AttemptRecord` history
    (tier, perturbed options, failing stage, error) for post-mortem triage.
    """

    def __init__(self, message: str, attempts: tuple = ()) -> None:
        super().__init__(message)
        self.attempts = tuple(attempts)
