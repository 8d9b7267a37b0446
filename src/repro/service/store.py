"""Durable, crash-safe job store keyed by sweep signature.

The store is the single source of truth for job lifecycle; the queue holds
only ids and the HTTP layer holds nothing.  Design points:

* **Identity is content.**  A job's id is derived from
  :func:`~repro.eval.supervisor.sweep_signature` of its canonical spec, so
  submitting the same spec twice *is* the same job — resubmission returns
  the existing record (completed jobs serve their cached result
  immediately; queued/running jobs are simply observed; failed, cancelled,
  or expired jobs are requeued).  Tenant and budgets are deliberately
  excluded from identity: they describe *how* to run the job, not *what*
  the job computes.

* **Every state change is a WAL append** on a
  :class:`~repro.eval.wal.ChecksumLog` (fsync'd, checksummed,
  torn-tail-truncating), so an accepted job survives any crash of the
  server process.  Recovery folds the log last-record-wins, flips jobs
  caught ``running`` back to ``queued`` with ``resumed`` set (their sweep
  journal lets the supervisor skip completed tasks), and compacts the log
  to one record per job so it cannot grow without bound across restarts.
  Compaction itself is crash-atomic: the compacted log is written beside
  the live one and ``os.replace``'d into place (directory entry fsync'd),
  so a crash mid-compaction — including during the crash-recovery
  restarts this store exists for — leaves either the complete old log or
  the complete new one, never a truncated half-written file.

* **Results and artifacts live beside the log** under the store root,
  written atomically (tmp + ``os.replace``) so a torn result file can never
  be served.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import JobStateError, SpecError, StoreUnavailable
from ..eval.supervisor import sweep_signature
from ..eval.wal import ChecksumLog
from ..filters import TABLE1_SPECS
from ..robust.crashsim import fabric as iofabric

__all__ = ["JobRecord", "JobSpec", "JobState", "JobStore"]


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entries after a rename/create (fabric-routed)."""
    iofabric.active().fsync_dir(directory)

#: Bump when the WAL record schema changes incompatibly.
STORE_FORMAT_VERSION = 1

_RECORD_KIND = "job"


class JobState:
    """Job lifecycle states and the legal transitions between them."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"

    ALL = frozenset(
        {QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED, EXPIRED}
    )
    #: States a job never leaves on its own (``completed`` is terminal
    #: forever; the others can be *requeued* by an explicit resubmission).
    TERMINAL = frozenset({COMPLETED, FAILED, CANCELLED, EXPIRED})

    #: state -> states reachable from it.
    TRANSITIONS = {
        QUEUED: frozenset({RUNNING, CANCELLED, EXPIRED}),
        # running -> queued is the crash-recovery requeue path.
        RUNNING: frozenset(
            {COMPLETED, FAILED, CANCELLED, EXPIRED, QUEUED}
        ),
        COMPLETED: frozenset(),
        FAILED: frozenset({QUEUED}),
        CANCELLED: frozenset({QUEUED}),
        EXPIRED: frozenset({QUEUED}),
    }


@dataclass(frozen=True)
class JobSpec:
    """Canonical description of *what* a job computes.

    Mirrors the parameters of
    :func:`~repro.eval.parallel.run_sweep_parallel` that shape the task
    universe.  Everything else about a request (tenant, deadlines) lives on
    the :class:`JobRecord` because it does not change the answer.
    """

    experiments: Tuple[str, ...]
    filters: Optional[Tuple[int, ...]] = None
    wordlengths: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobSpec":
        """Validate and canonicalize a client-submitted spec dict.

        Raises :class:`~repro.errors.SpecError` for unknown keys, unknown
        experiments, out-of-range filters, and non-positive wordlengths.
        Duplicate filters/wordlengths are *rejected*, not deduplicated —
        ``filter_indices=[0, 0]`` means something different to the sweep
        (duplicate result rows), so silently collapsing it would make the
        service disagree with the CLI.
        """
        if not isinstance(payload, Mapping):
            raise SpecError(f"spec must be an object, got {type(payload).__name__}")
        allowed = {"experiments", "filters", "wordlengths"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise SpecError(
                f"unknown spec keys {unknown}; allowed: {sorted(allowed)}"
            )
        raw_experiments = payload.get("experiments")
        if raw_experiments is not None and (
            not isinstance(raw_experiments, (list, tuple))
            or not all(isinstance(e, str) for e in raw_experiments)
            or not raw_experiments
        ):
            raise SpecError("experiments must be a non-empty list of strings")
        from ..errors import ReproError
        from ..eval.parallel import _resolve_experiment_ids

        try:
            experiments = tuple(_resolve_experiment_ids(raw_experiments))
        except SpecError:
            raise
        except ReproError as exc:
            raise SpecError(str(exc)) from exc

        filters = cls._int_axis(
            payload.get("filters"), "filters",
            valid=range(len(TABLE1_SPECS)),
        )
        wordlengths = cls._int_axis(
            payload.get("wordlengths"), "wordlengths", minimum=2
        )
        return cls(
            experiments=experiments,
            filters=filters,
            wordlengths=wordlengths,
        )

    @staticmethod
    def _int_axis(
        raw: object,
        name: str,
        valid: Optional[range] = None,
        minimum: Optional[int] = None,
    ) -> Optional[Tuple[int, ...]]:
        if raw is None:
            return None
        if not isinstance(raw, (list, tuple)) or not raw:
            raise SpecError(f"{name} must be a non-empty list of integers")
        values: List[int] = []
        for item in raw:
            if isinstance(item, bool) or not isinstance(item, int):
                raise SpecError(f"{name} must contain integers, got {item!r}")
            if valid is not None and item not in valid:
                raise SpecError(
                    f"{name} index {item} out of range "
                    f"[{valid.start}, {valid.stop - 1}]"
                )
            if minimum is not None and item < minimum:
                raise SpecError(f"{name} value {item} must be >= {minimum}")
            values.append(item)
        if len(set(values)) != len(values):
            raise SpecError(
                f"{name} contains duplicates: {values}; duplicates change "
                f"the sweep's output shape, submit distinct values"
            )
        return tuple(values)

    def signature(self) -> str:
        """The sweep-signature content hash this job is keyed by."""
        return sweep_signature(
            list(self.experiments),
            list(self.filters) if self.filters is not None else None,
            list(self.wordlengths) if self.wordlengths is not None else None,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiments": list(self.experiments),
            "filters": list(self.filters) if self.filters else None,
            "wordlengths": (
                list(self.wordlengths) if self.wordlengths else None
            ),
        }


@dataclass
class JobRecord:
    """One job's full durable state (a WAL record is its ``as_dict``)."""

    job_id: str
    spec: JobSpec
    tenant: str
    state: str = JobState.QUEUED
    submitted_at: float = 0.0
    updated_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Times this job entered ``running`` (across requeues and restarts).
    attempts: int = 0
    #: True when a server restart requeued this job mid-run.
    resumed: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None
    task_deadline_s: float = 30.0
    deadline_s: float = 300.0
    #: Wall-clock time (``time.time()``) past which the reaper expires it;
    #: set at submit, so ``deadline_s`` covers queue wait plus run time.
    expires_at: Optional[float] = None
    #: True when a requested budget exceeded a server ceiling and was cut.
    clamped: bool = False
    quarantined: int = 0
    pool_rebuilds: int = 0
    retries: int = 0
    #: Distributed-trace identity adopted by every run of this job.  Set
    #: from the submitting request's context and persisted, so a restarted
    #: server resumes the job inside the *same* trace; ``trace_link`` is
    #: the submitting span as ``[pid, span_id]``.
    trace_id: Optional[str] = None
    trace_link: Optional[List[int]] = None
    #: Monotonic per-job change counter, bumped on every durable state
    #: change.  Serves as the ETag for the long-poll status endpoint: a
    #: client that saw revision N asks "wake me when revision != N".
    revision: int = 1

    def as_dict(self) -> Dict[str, object]:
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "spec"
        }
        payload["spec"] = self.spec.as_dict()
        payload["kind"] = _RECORD_KIND
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobRecord":
        data = {k: v for k, v in payload.items() if k != "kind"}
        data["spec"] = JobSpec.from_dict(data["spec"])
        return cls(**data)

    def public_view(self) -> Dict[str, object]:
        """The JSON shape returned by the status endpoint."""
        view = self.as_dict()
        del view["kind"]
        return view


class JobStore:
    """WAL-backed job table plus atomic result/artifact storage."""

    def __init__(
        self,
        root: os.PathLike,
        clock: Callable[[], float] = time.time,
        fault_injector: Optional[object] = None,
    ) -> None:
        self.root = Path(root)
        iofabric.active().makedirs_durable(self.root)
        self._clock = clock
        self._lock = threading.RLock()
        #: Signalled on every durable state change; the long-poll endpoint
        #: waits on it instead of hot-polling the table.
        self._changed = threading.Condition(self._lock)
        #: Chaos hook (``StoreFaultInjector``): consulted before each WAL
        #: append so tests can fail writes deterministically.
        self.fault_injector = fault_injector
        #: WAL appends that failed and were rolled back (never acknowledged).
        self.append_errors = 0
        self._jobs: Dict[str, JobRecord] = {}
        self._log = self._recover()

    # -- recovery -------------------------------------------------------------

    @property
    def log_path(self) -> Path:
        return self.root / "jobs.wal"

    @staticmethod
    def _header() -> Dict[str, object]:
        return {"format": STORE_FORMAT_VERSION, "store": "jobs"}

    def _reap_stale_tmp(self) -> int:
        """Remove temp-file debris a crash left beside durable data.

        Covers mid-flight result/artifact writes (``.{job_id}.*.tmp``,
        ``.tmp-*``) — their ``os.replace`` never happened, so they are
        invisible to every reader and safe to delete.  The compaction temp
        (``jobs.wal.compact``) is *not* reaped here: compaction recreates
        and atomically renames it as part of this same recovery.
        """
        fab = iofabric.active()
        reaped = 0
        for directory in (self.results_dir, self.artifacts_dir):
            if not directory.is_dir():
                continue
            for pattern in (".*.tmp", ".tmp-*"):
                for stale in sorted(directory.glob(pattern)):
                    try:
                        fab.unlink(stale)
                        reaped += 1
                    except OSError:
                        pass
        return reaped

    def _recover(self) -> ChecksumLog:
        """Replay the WAL, requeue interrupted jobs, compact, reopen."""
        self._reap_stale_tmp()
        log, records = ChecksumLog.resume(self.log_path, self._header())
        for raw in records:
            if raw.get("kind") != _RECORD_KIND:
                continue
            record = JobRecord.from_dict(raw)
            self._jobs[record.job_id] = record  # last record wins
        log.close()

        requeued = 0
        now = self._clock()
        for record in self._jobs.values():
            if record.state == JobState.RUNNING:
                # The previous server died mid-job.  The sweep journal holds
                # every task outcome that reached disk, so requeue and let
                # the supervisor's --resume path skip the finished work.
                record.state = JobState.QUEUED
                record.resumed = True
                record.updated_at = now
                record.revision += 1
                requeued += 1
            if record.state == JobState.QUEUED:
                # The deadline clock restarts with the server: a surviving
                # job must not be instantly expired for downtime it could
                # do nothing about.
                record.expires_at = now + record.deadline_s
                record.updated_at = now

        # Compact: one record per job bounds WAL growth across restarts.
        # Never truncate the live log in place — a crash mid-compaction
        # would lose every job.  Write the compacted log beside it (every
        # append fsync'd) and atomically rename it over the old one.
        fab = iofabric.active()
        tmp_path = self.log_path.with_name(self.log_path.name + ".compact")
        try:
            compacted = ChecksumLog.create(tmp_path, self._header())
            try:
                for job_id in sorted(self._jobs):
                    compacted.append(self._jobs[job_id].as_dict())
            finally:
                compacted.close()
            fab.replace(tmp_path, self.log_path)
            _fsync_dir(self.log_path.parent)
        except OSError:
            # ENOSPC (or any IO failure) mid-compaction must not take the
            # store down: the live log is untouched until the atomic
            # rename, so drop the half-written temp and keep serving —
            # compaction simply retries on the next restart.
            try:
                fab.unlink(tmp_path)
            except OSError:
                pass
            from ..obs import metrics as obs_metrics

            obs_metrics.counter(
                "repro_service_compaction_errors_total"
            ).inc()
        log, _ = ChecksumLog.resume(self.log_path, self._header())
        if requeued:
            from ..obs import metrics as obs_metrics

            obs_metrics.counter("repro_service_jobs_resumed_total").inc(
                requeued
            )
        return log

    # -- submission and lifecycle ---------------------------------------------

    def _append_locked(self, record: JobRecord) -> None:
        """One WAL append, chaos hook included; raises ``OSError`` raw.

        Callers are responsible for rolling the in-memory table back when
        this raises — a record that never reached the WAL must never be
        visible, or a crash would silently lose an "accepted" job.
        """
        injector = self.fault_injector
        if injector is not None:
            fault = injector.draw_append(record.job_id)
            if fault == "enospc":
                raise injector.enospc_error(record.job_id)
        self._log.append(record.as_dict())

    def _rollback_append_error(
        self, job_id: str, previous: Optional[JobRecord], exc: OSError
    ) -> StoreUnavailable:
        """Undo an in-memory update whose WAL append failed; build the 503."""
        if previous is None:
            self._jobs.pop(job_id, None)
        else:
            self._jobs[job_id] = previous
        self.append_errors += 1
        from ..obs import metrics as obs_metrics

        obs_metrics.counter("repro_service_wal_errors_total").inc()
        return StoreUnavailable(
            f"job store cannot persist {job_id}: {exc}", retry_after_s=5.0
        )

    def submit(
        self,
        spec: JobSpec,
        tenant: str,
        task_deadline_s: float,
        deadline_s: float,
        clamped: bool = False,
        trace_id: Optional[str] = None,
        trace_link: Optional[List[int]] = None,
    ) -> Tuple[JobRecord, bool]:
        """Idempotently register a job; returns ``(record, needs_enqueue)``.

        Same spec → same job id.  A job already queued, running, or
        completed is returned as-is (``needs_enqueue=False``); a job in a
        retryable terminal state (failed/cancelled/expired) is requeued
        with fresh budgets.  ``expires_at`` starts ticking *here*: the job
        deadline covers queue wait plus run time, so a job stuck behind a
        long backlog is expired by the reaper rather than waiting forever
        (recovery restarts the clock — see :meth:`_recover`).

        ``trace_id``/``trace_link`` stamp the submitting request's trace
        context onto the record (fresh on a terminal-state resubmission,
        untouched on an idempotent hit — the live run keeps its trace).
        """
        signature = spec.signature()
        job_id = f"job-{signature[:16]}"
        now = self._clock()
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.state in (
                    JobState.QUEUED,
                    JobState.RUNNING,
                    JobState.COMPLETED,
                ):
                    return existing, False
                # failed / cancelled / expired: explicit resubmission is
                # the retry mechanism.
                return (
                    self._transition_locked(
                        job_id,
                        JobState.QUEUED,
                        tenant=tenant,
                        task_deadline_s=task_deadline_s,
                        deadline_s=deadline_s,
                        clamped=clamped,
                        error=None,
                        error_type=None,
                        started_at=None,
                        finished_at=None,
                        expires_at=now + deadline_s,
                        resumed=False,
                        trace_id=trace_id,
                        trace_link=trace_link,
                    ),
                    True,
                )
            record = JobRecord(
                job_id=job_id,
                spec=spec,
                tenant=tenant,
                state=JobState.QUEUED,
                submitted_at=now,
                updated_at=now,
                task_deadline_s=task_deadline_s,
                deadline_s=deadline_s,
                expires_at=now + deadline_s,
                clamped=clamped,
                trace_id=trace_id,
                trace_link=trace_link,
            )
            self._jobs[job_id] = record
            try:
                self._append_locked(record)
            except OSError as exc:
                # ENOSPC hardening: the job was never acknowledged, so it
                # must not survive in memory either — a client retry after
                # the 503 resubmits from scratch, exactly once.
                raise self._rollback_append_error(job_id, None, exc) from exc
            self._changed.notify_all()
            return record, True

    def transition(self, job_id: str, state: str, **updates) -> JobRecord:
        """Durably move a job to ``state``; raises on illegal transitions."""
        with self._lock:
            return self._transition_locked(job_id, state, **updates)

    def _transition_locked(
        self, job_id: str, state: str, **updates
    ) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobStateError(f"unknown job {job_id!r}")
        if state not in JobState.ALL:
            raise JobStateError(f"unknown state {state!r}")
        if state not in JobState.TRANSITIONS[record.state]:
            raise JobStateError(
                f"job {job_id} cannot go {record.state} -> {state}"
            )
        updated = replace(
            record, state=state, updated_at=self._clock(),
            revision=record.revision + 1, **updates,
        )
        self._jobs[job_id] = updated
        try:
            self._append_locked(updated)
        except OSError as exc:
            raise self._rollback_append_error(job_id, record, exc) from exc
        self._changed.notify_all()
        return updated

    # -- queries --------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobStateError(f"unknown job {job_id!r}")
            return record

    def wait_for_change(
        self,
        job_id: str,
        etag: Optional[int],
        timeout_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> JobRecord:
        """Block until ``job_id``'s revision differs from ``etag``.

        The long-poll primitive: returns the current record immediately
        when the caller's ``etag`` is stale (or ``None``), otherwise waits
        on the store's change condition up to ``timeout_s`` and returns
        whatever the record is then — the caller compares revisions to
        distinguish "changed" from "timed out unchanged".  Unknown jobs
        raise :class:`~repro.errors.JobStateError` up front, so a client
        never long-polls a job that does not exist.
        """
        deadline = clock() + max(0.0, timeout_s)
        with self._changed:
            while True:
                record = self._jobs.get(job_id)
                if record is None:
                    raise JobStateError(f"unknown job {job_id!r}")
                if etag is None or record.revision != etag:
                    return record
                remaining = deadline - clock()
                if remaining <= 0.0:
                    return record
                self._changed.wait(timeout=remaining)

    def list_jobs(self) -> List[JobRecord]:
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs)]

    def jobs_in(self, *states: str) -> List[JobRecord]:
        wanted = frozenset(states)
        with self._lock:
            return [
                self._jobs[k]
                for k in sorted(self._jobs)
                if self._jobs[k].state in wanted
            ]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            result = {state: 0 for state in sorted(JobState.ALL)}
            for record in self._jobs.values():
                result[record.state] += 1
            return result

    # -- results and artifacts ------------------------------------------------

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def write_result(self, job_id: str, text: str) -> Path:
        """Atomically persist a job's result document (tmp + rename).

        Durable end to end: the temp file's bytes are fsync'd, the rename
        is made durable by fsyncing the results *directory* — without that
        last step the new entry lives only in the directory's page cache
        and a power loss can leave a ``completed`` job with no result file.
        """
        fab = iofabric.active()
        target = self._result_path(job_id)
        fab.makedirs_durable(target.parent)
        fh, tmp_name = fab.mkstemp(
            target.parent, prefix=f".{job_id}.", suffix=".tmp"
        )
        try:
            with fh:
                fh.write(text)
                fab.fsync(fh)
            fab.replace(tmp_name, target)
            _fsync_dir(target.parent)
        except BaseException:
            try:
                fab.unlink(tmp_name)
            except OSError:
                pass
            raise
        fab.ack("store.result", path=str(target), job_id=job_id)
        return target

    def read_result(self, job_id: str) -> str:
        """The stored result text; raises for jobs without one."""
        record = self.get(job_id)
        if record.state != JobState.COMPLETED:
            raise JobStateError(
                f"job {job_id} is {record.state}, not completed; "
                f"no result is available"
            )
        path = self._result_path(job_id)
        if not path.exists():
            raise JobStateError(
                f"job {job_id} is completed but its result file is missing"
            )
        return path.read_text(encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            self._log.close()
