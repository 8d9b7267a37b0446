"""Cooperative solver budgets: wall-clock deadlines plus node/iteration caps.

Every NP-hard search in the flow (exact branch-and-bound cover, greedy cover
over huge instances, MSD enumeration, coefficient local search) accepts an
optional :class:`SolverBudget` and calls :meth:`SolverBudget.spend` at its
inner-loop checkpoints.  When the budget is exhausted the checkpoint raises a
typed :class:`~repro.errors.BudgetExceeded`, so a runaway instance fails
loudly — and promptly — instead of hanging the whole synthesis pipeline.

The clock is injectable for deterministic tests, and :meth:`exhaust` lets the
chaos harness force deadline exhaustion at an exact point in the pipeline.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import BudgetExceeded, ReproError
from ..obs import event as obs_event
from ..obs import metrics as obs_metrics

__all__ = ["HEARTBEAT_NODES", "SolverBudget"]

#: Heartbeat cadence: one observability checkpoint per this many nodes.  The
#: heartbeat keeps the hot :meth:`SolverBudget.spend` path at a single
#: integer comparison while still surfacing long solver runs as trace events
#: and a live metrics counter.
HEARTBEAT_NODES = 4096


class SolverBudget:
    """A spendable budget of wall-clock seconds and solver nodes/iterations.

    ``deadline_s`` bounds elapsed time from the first checkpoint (or an
    explicit :meth:`start`); ``max_nodes`` bounds the total units passed to
    :meth:`spend`.  Either may be ``None`` (unbounded).  A budget with both
    ``None`` never raises and costs almost nothing to consult.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        max_nodes: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ReproError(f"deadline_s must be >= 0, got {deadline_s}")
        if max_nodes is not None and max_nodes < 0:
            raise ReproError(f"max_nodes must be >= 0, got {max_nodes}")
        self.deadline_s = deadline_s
        self.max_nodes = max_nodes
        self._clock = clock
        self._started_at: Optional[float] = None
        self._nodes = 0
        self._forced_reason: Optional[str] = None
        self._next_heartbeat = HEARTBEAT_NODES

    def start(self) -> "SolverBudget":
        """Anchor the deadline now (idempotent); returns ``self`` for chaining."""
        if self._started_at is None:
            self._started_at = self._clock()
        return self

    @property
    def nodes_used(self) -> int:
        """Total units spent so far."""
        return self._nodes

    @property
    def elapsed_s(self) -> float:
        """Seconds since the budget started (0.0 before the first checkpoint)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    @property
    def remaining_s(self) -> Optional[float]:
        """Seconds left before the deadline, or ``None`` when unbounded."""
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed_s)

    @property
    def remaining_nodes(self) -> Optional[int]:
        """Nodes left before the cap, or ``None`` when unbounded."""
        if self.max_nodes is None:
            return None
        return max(0, self.max_nodes - self._nodes)

    @property
    def exhausted(self) -> bool:
        """True when any limit has been reached (never raises)."""
        if self._forced_reason is not None:
            return True
        if self.max_nodes is not None and self._nodes > self.max_nodes:
            return True
        if self.deadline_s is not None and self._started_at is not None:
            return self.elapsed_s > self.deadline_s
        return False

    def exhaust(self, reason: str = "forced exhaustion") -> None:
        """Force the budget into the exhausted state (used by chaos injection)."""
        self._forced_reason = reason

    def spend(self, nodes: int = 1, partial: object = None) -> None:
        """Charge ``nodes`` units and checkpoint; raises on exhaustion."""
        self._nodes += nodes
        if self._nodes >= self._next_heartbeat:
            self._heartbeat()
        self.checkpoint(partial)

    def spend_units(self, units: int) -> None:
        """Charge ``units`` nodes exactly as ``units`` calls of ``spend()`` would.

        The same heartbeats fire, and an exhausted budget raises at the
        first unit past the cap, with the same node count in its message.
        It takes one :meth:`spend` per heartbeat interval, not per unit, so
        replaying the cost of work done earlier (a reused graph, a memoized
        solve) is cheap.  Only the deadline is consulted less often.
        """
        while units > 0:
            step = min(units, max(1, self._next_heartbeat - self._nodes))
            if self.max_nodes is not None:
                step = min(step, max(1, self.max_nodes + 1 - self._nodes))
            self.spend(step)
            units -= step

    def _heartbeat(self) -> None:
        """Periodic observability checkpoint (every :data:`HEARTBEAT_NODES`)."""
        self._next_heartbeat = self._nodes + HEARTBEAT_NODES
        obs_metrics.counter("repro_budget_heartbeats_total").inc()
        obs_event(
            "budget.heartbeat",
            nodes=self._nodes,
            elapsed_s=round(self.elapsed_s, 6),
            deadline_s=self.deadline_s,
            max_nodes=self.max_nodes,
        )

    def checkpoint(self, partial: object = None) -> None:
        """Raise :class:`BudgetExceeded` if any limit has been reached.

        The deadline is anchored lazily at the first checkpoint, so a budget
        built ahead of time does not charge for setup work.  ``partial`` is
        attached to the raised exception for incumbent reuse.
        """
        self.start()
        if self._forced_reason is not None:
            self._expired("forced")
            raise BudgetExceeded(
                f"solver budget exhausted: {self._forced_reason}", partial=partial
            )
        if self.max_nodes is not None and self._nodes > self.max_nodes:
            self._expired("nodes")
            raise BudgetExceeded(
                f"solver exceeded its node budget "
                f"({self._nodes} > {self.max_nodes})",
                partial=partial,
            )
        if self.deadline_s is not None:
            elapsed = self.elapsed_s
            if elapsed > self.deadline_s:
                self._expired("deadline")
                raise BudgetExceeded(
                    f"solver exceeded its deadline "
                    f"({elapsed:.3f}s > {self.deadline_s:.3f}s)",
                    partial=partial,
                )

    def _expired(self, reason: str) -> None:
        obs_metrics.counter(
            "repro_budget_expirations_total", reason=reason
        ).inc()
        obs_event(
            "budget.expired", reason=reason, nodes=self._nodes,
            elapsed_s=round(self.elapsed_s, 6),
        )

    def __repr__(self) -> str:
        return (
            f"SolverBudget(deadline_s={self.deadline_s}, "
            f"max_nodes={self.max_nodes}, nodes_used={self._nodes})"
        )
