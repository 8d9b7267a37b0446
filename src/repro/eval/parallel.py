"""The sweep engine: parallel, journaled precompute with serial-byte output.

:func:`run_sweep_parallel` is the one entry point every sweep goes through —
the CLI, the job service and the benchmarks.  It splits
:func:`repro.eval.run_sweep` into two phases:

1. **Precompute** — every (filter, wordlength, scaling, representation,
   method, depth-limit) design point needed by the requested experiments is
   enumerated (deterministically, deduplicated), and the points not already
   in a cache layer are computed, in worker processes when
   :func:`pool_decision` says a pool can win and in-process otherwise.  Each
   point goes through the very same
   :func:`~repro.eval.experiments._method_result` code path as a serial run,
   under an optional per-task :class:`~repro.robust.SolverBudget` so one
   pathological instance fails fast, and is persisted to the shared disk
   cache (:mod:`repro.eval.cache`).

2. **Replay** — the experiments then run serially in the parent over the
   warm caches.  Because the replay *is* the serial code path (synthesis is
   fully deterministic, and any point precompute failed to produce is
   simply recomputed inline), output is byte-identical to a serial run by
   construction — there is no merge step that could reorder or reformat
   anything.

Precompute survives the failures that long sweeps meet:

* **Journaling** — with ``journal_dir`` every terminal :class:`TaskOutcome`
  is appended to a per-sweep write-ahead log
  (:class:`~repro.eval.supervisor.SweepJournal`) before it counts as
  durable; ``resume=True`` replays the journal, hydrates the in-memory
  cache from completed points, and schedules only what is left.

* **Worker-loss recovery** — pool tasks are submitted individually in
  waves; when a worker dies (the OOM killer, any SIGKILL) the pool is
  rebuilt after a :func:`~repro.eval.supervisor.decorrelated_backoff`
  delay and the lost tasks are re-probed one at a time.  A task that keeps
  killing workers is **quarantined** after ``max_retries`` strikes instead
  of being retried forever or aborting the sweep.

* **Chaos validation** — a :class:`~repro.robust.ProcessFaultPlan` threads
  deterministic process-level faults (real worker SIGKILLs, straggler
  sleeps, cache-write corruption/ENOSPC) through the workers, so recovery
  is tested under replayable fault sequences.
"""

from __future__ import annotations

import os
import random
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ReproError, SupervisorError, SweepAborted
from ..fastpath import msdtables as fast_tables
from ..filters import TABLE1_SPECS
from ..numrep import Representation
from ..obs import metrics as obs_metrics
from ..obs import span as obs_span
from ..quantize import ScalingScheme
from ..robust.chaos import ProcessFaultPlan
from . import cache as disk_cache
from . import experiments
from .experiments import WORDLENGTHS
from .supervisor import (
    SweepJournal,
    _NullJournal,
    decorrelated_backoff,
    sweep_signature,
    task_key,
)

__all__ = [
    "ParallelSweepReport",
    "SweepTask",
    "TaskOutcome",
    "plan_tasks",
    "pool_decision",
    "run_sweep_parallel",
    "run_sweep_supervised",
]

#: Pool-rebuild delays after worker loss: the first delay, the growth
#: factor of the :func:`~repro.eval.supervisor.decorrelated_backoff`
#: envelope, and its cap (seconds).
BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 2.0


@dataclass(frozen=True, order=True)
class SweepTask:
    """One design point of a sweep — the unit of parallel work."""

    filter_index: int
    wordlength: int
    scaling: str
    representation: str
    method: str
    depth_limit: Optional[int] = None


@dataclass(frozen=True)
class TaskOutcome:
    """How one precompute task ended (picklable, JSON-friendly payload).

    ``traceback`` carries the full worker-side traceback string for failed
    tasks — ``repr(exc)`` alone is useless when the exception crossed a
    process boundary and the frames are gone.  ``attempts`` counts how many
    times the engine scheduled the task; ``quarantined`` marks a task the
    engine gave up on after it repeatedly killed workers.
    """

    task: SweepTask
    payload: Optional[Dict[str, object]]
    error_type: Optional[str]
    error: Optional[str]
    elapsed_s: float
    traceback: Optional[str] = None
    attempts: int = 1
    quarantined: bool = False
    #: Wall time as measured by the tracer's ``sweep.task`` span (monotonic
    #: fallback when tracing is off).  ``elapsed_s`` predates the tracer and
    #: is kept for backward compatibility; the two agree up to granularity.
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the worker produced a result for this design point."""
        return self.payload is not None


# Which (scaling, methods) each figure experiment needs; table1/summary are
# handled explicitly in plan_tasks.
_FIGURE_TASKS: Dict[str, Tuple[ScalingScheme, Tuple[str, ...]]] = {
    "fig6": (ScalingScheme.UNIFORM, ("simple", "mrpf")),
    "fig7": (ScalingScheme.MAXIMAL, ("simple", "mrpf")),
    "fig8a": (ScalingScheme.UNIFORM, ("simple", "cse", "mrpf_cse")),
    "fig8b": (ScalingScheme.MAXIMAL, ("simple", "cse", "mrpf_cse")),
}


def plan_tasks(
    experiment_ids: Sequence[str],
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
) -> Tuple[SweepTask, ...]:
    """Enumerate the deduplicated design points the experiments will visit.

    The order is deterministic (sorted), so sharding is reproducible run to
    run regardless of dict iteration or completion order.
    """
    indices = (
        list(filter_indices) if filter_indices is not None
        else list(range(len(TABLE1_SPECS)))
    )
    widths = list(wordlengths) if wordlengths is not None else list(WORDLENGTHS)
    tasks = set()
    for experiment_id in experiment_ids:
        figure_ids = (
            list(_FIGURE_TASKS) if experiment_id == "summary"
            else [experiment_id]
        )
        for figure_id in figure_ids:
            if figure_id == "table1":
                continue
            if figure_id not in _FIGURE_TASKS:
                raise ReproError(
                    f"cannot plan tasks for unknown experiment {figure_id!r}"
                )
            scaling, methods = _FIGURE_TASKS[figure_id]
            for index in indices:
                for wordlength in widths:
                    for method in methods:
                        tasks.add(SweepTask(
                            filter_index=index,
                            wordlength=wordlength,
                            scaling=scaling.value,
                            representation=Representation.CSD.value,
                            method=method,
                        ))
        if experiment_id == "table1":
            for index in indices:
                for representation in (Representation.CSD, Representation.SM):
                    tasks.add(SweepTask(
                        filter_index=index,
                        wordlength=16,
                        scaling=ScalingScheme.MAXIMAL.value,
                        representation=representation.value,
                        method="mrpf",
                        depth_limit=3,
                    ))
    return tuple(sorted(tasks, key=_task_order))


def _task_order(task: SweepTask) -> Tuple:
    """Field order of :class:`SweepTask`, with ``depth_limit=None`` before ints.

    Sorting the tasks themselves compares ``None`` with an int whenever two
    tasks differ only in their depth limit (fig7 and table1 at W=16).
    """
    return (task.filter_index, task.wordlength, task.scaling,
            task.representation, task.method,
            task.depth_limit is not None, task.depth_limit or 0)


def _memory_key(task: SweepTask) -> Tuple:
    """The experiments._CACHE key for a task (same shape as _method_result)."""
    return (task.filter_index, task.wordlength, task.scaling,
            task.representation, task.method, task.depth_limit)


def _compute_task(
    task: SweepTask, deadline_s: Optional[float]
) -> TaskOutcome:
    """Compute one design point through the serial code path."""
    from ..filters import benchmark_filter
    from ..robust.budget import SolverBudget

    started = time.monotonic()
    with obs_span(
        "sweep.task",
        filter_index=task.filter_index,
        wordlength=task.wordlength,
        scaling=task.scaling,
        representation=task.representation,
        method=task.method,
    ) as sp:
        try:
            budget = (
                SolverBudget(deadline_s=deadline_s).start()
                if deadline_s is not None else None
            )
            designed = benchmark_filter(task.filter_index)
            result = experiments._method_result(
                designed,
                task.filter_index,
                task.wordlength,
                ScalingScheme(task.scaling),
                task.method,
                representation=Representation(task.representation),
                depth_limit=task.depth_limit,
                budget=budget,
            )
        except Exception as exc:  # noqa: BLE001 — shard must survive any instance
            sp.set_tag("outcome", "failed")
            return TaskOutcome(
                task=task,
                payload=None,
                error_type=type(exc).__name__,
                error=str(exc),
                elapsed_s=time.monotonic() - started,
                traceback=_traceback.format_exc(),
                duration_s=sp.elapsed() or (time.monotonic() - started),
            )
        sp.set_tag("outcome", "ok")
        return TaskOutcome(
            task=task,
            payload=disk_cache.encode_method_result(result),
            error_type=None,
            error=None,
            elapsed_s=time.monotonic() - started,
            duration_s=sp.elapsed() or (time.monotonic() - started),
        )


def pool_decision(
    pending: int, jobs: int, journaled: bool = False
) -> Tuple[bool, Optional[str]]:
    """Whether precompute runs in worker processes, and why not if not.

    Pool spin-up costs several hundred milliseconds per worker (interpreter
    boot + package import); BENCH_sweep measured cold parallel at 0.52x of
    serial when that overhead was paid for a handful of fast tasks.  The
    heuristic falls back to in-process execution (byte-identical results by
    construction) when the pool cannot plausibly amortize:

    * ``jobs <= 1`` — caller asked for no pool;
    * a single-CPU host — workers only add overhead, never concurrency;
    * fewer pending tasks than ``max(4, 2 * effective_workers)``.

    A ``journaled`` sweep with ``jobs > 1`` always gets the pool: journaled
    sweeps are the long-lived ones (the job service, ``--journal-dir``), and
    only a worker process keeps a task that kills its process from taking
    the sweep down with it.
    """
    if jobs <= 1:
        return False, "jobs <= 1"
    if journaled:
        return True, None
    effective = min(jobs, os.cpu_count() or 1)
    if effective <= 1:
        return False, "single-CPU host"
    threshold = max(4, 2 * effective)
    if pending < threshold:
        return False, (
            f"{pending} pending tasks below pool threshold {threshold}"
        )
    return True, None


def _worker_init(
    cache_dir: Optional[str],
    chaos: Optional[ProcessFaultPlan],
    obs_args: Optional[Tuple[str, bool]] = None,
    msd_snapshot: Optional[Tuple] = None,
) -> None:
    """Pool initializer: disk cache, chaos arming, obs, warm MSD tables.

    ``msd_snapshot`` hands the parent's memoized MSD digit tables to the
    worker — a no-op under the fork start method (the tables are inherited),
    load-bearing under spawn, and harmless either way because restoring is
    purely additive.
    """
    disk_cache.configure(cache_dir)
    obs.worker_configure(obs_args)
    fast_tables.restore_tables(msd_snapshot)
    if chaos is not None:
        injector = chaos.cache_injector()
        if injector is not None:
            disk_cache.install_fault_injector(injector)


def _effective_deadline(
    deadline_s: Optional[float], deadline_at: Optional[float]
) -> Optional[float]:
    """Per-task budget recomputed at task start from the job-level clock.

    The whole-sweep ``deadline_at`` (wall-clock epoch, comparable across
    processes) caps each task's deadline at the job's *remaining* time, so
    late tasks get smaller budgets and an N-task sweep cannot run
    ``N x deadline_s`` past its job deadline.  The floor keeps an
    already-over-deadline task failing fast instead of dividing by zero.
    """
    if deadline_at is None:
        return deadline_s
    remaining = deadline_at - time.time()
    if deadline_s is not None:
        remaining = min(deadline_s, remaining)
    return max(0.05, remaining)


def _worker_run(
    args: Tuple[
        SweepTask, Optional[float], int, Optional[ProcessFaultPlan],
        Optional[float],
    ],
) -> TaskOutcome:
    task, deadline_s, attempt, chaos, deadline_at = args
    if chaos is not None:
        chaos.apply_worker_faults(task_key(task), attempt)
    outcome = _compute_task(task, _effective_deadline(deadline_s, deadline_at))
    obs.worker_checkpoint()
    return outcome


def _quarantine_outcome(task: SweepTask, attempts: int) -> TaskOutcome:
    return TaskOutcome(
        task=task,
        payload=None,
        error_type="WorkerLost",
        error=(
            f"task {task_key(task)} was in flight for {attempts} broken "
            f"pools; quarantined as a suspected worker killer"
        ),
        elapsed_s=0.0,
        attempts=attempts,
        quarantined=True,
    )


def _precompute_in_process(
    pending: Sequence[SweepTask],
    deadline_s: Optional[float],
    journal,
    chaos: Optional[ProcessFaultPlan],
    deadline_at: Optional[float] = None,
    check_abort: Optional[Callable[[], Optional[str]]] = None,
) -> List[TaskOutcome]:
    """No-pool path: nothing to lose to a worker, but journaling applies.

    Worker-kill faults are *not* fired here — they would SIGKILL the parent
    itself, which is the scenario the journal (not the pool loop) protects
    against; slow and cache-write faults still fire.
    """
    injector = chaos.cache_injector() if chaos is not None else None
    previous = (
        disk_cache.install_fault_injector(injector)
        if injector is not None else None
    )
    results: List[TaskOutcome] = []
    try:
        for task in pending:
            if check_abort is not None:
                reason = check_abort()
                if reason is not None:
                    raise SweepAborted(reason)
            if chaos is not None:
                delay = chaos.slow_delay(task_key(task))
                if delay > 0.0:
                    time.sleep(delay)
            outcome = _compute_task(
                task, _effective_deadline(deadline_s, deadline_at)
            )
            journal.append(outcome)
            results.append(outcome)
    finally:
        if injector is not None:
            disk_cache.install_fault_injector(previous)
    return results


def _run_wave(
    batch: Sequence[SweepTask],
    workers: int,
    worker_dir: Optional[str],
    deadline_s: Optional[float],
    attempts: Dict[SweepTask, int],
    chaos: Optional[ProcessFaultPlan],
    journal,
    results: List[TaskOutcome],
    deadline_at: Optional[float] = None,
    check_abort: Optional[Callable[[], Optional[str]]] = None,
) -> List[SweepTask]:
    """Submit one batch to a fresh pool; returns the tasks lost to a break.

    Completed outcomes (including worker-side failures, which arrive as
    error-carrying :class:`TaskOutcome`\\ s, and submission-side errors such
    as unpicklable arguments) are journaled and appended to ``results``
    as they complete; only tasks whose future died with
    :class:`BrokenProcessPool` are returned for the caller to triage.

    ``check_abort`` is polled between completions; a non-``None`` reason
    raises :class:`~repro.errors.SweepAborted` after cancelling every
    not-yet-started future (in-flight tasks still finish inside their own
    per-task deadline, so the overshoot past an abort is bounded by one
    task budget, not the whole remaining batch).
    """
    lost: List[SweepTask] = []
    abort_reason: Optional[str] = None
    # The wave span is open when worker_args() snapshots the trace context
    # below, so every worker's sweep.task spans link to *this* wave.
    with obs_span(
        "sweep.wave", workers=workers, batch=len(batch)
    ) as wave_span:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                worker_dir, chaos, obs.worker_args(),
                fast_tables.table_snapshot(),
            ),
        )
        future_map = {
            executor.submit(
                _worker_run,
                (task, deadline_s, attempts[task], chaos, deadline_at),
            ): task
            for task in batch
        }
        try:
            outstanding = set(future_map)
            while outstanding:
                if check_abort is not None:
                    abort_reason = check_abort()
                    if abort_reason is not None:
                        break
                done, outstanding = _futures_wait(
                    outstanding,
                    timeout=0.25 if check_abort is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = future_map[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        lost.append(task)
                    except Exception as exc:  # noqa: BLE001 — e.g. pickling
                        outcome = TaskOutcome(
                            task=task,
                            payload=None,
                            error_type=type(exc).__name__,
                            error=str(exc),
                            elapsed_s=0.0,
                            attempts=attempts[task] + 1,
                        )
                        journal.append(outcome)
                        results.append(outcome)
                    else:
                        outcome = replace(
                            outcome, attempts=attempts[task] + 1
                        )
                        journal.append(outcome)
                        results.append(outcome)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        wave_span.set_tag("lost", len(lost))
    if abort_reason is not None:
        raise SweepAborted(abort_reason)
    return lost


def _precompute_pool(
    pending: Sequence[SweepTask],
    jobs: int,
    deadline_s: Optional[float],
    journal,
    chaos: Optional[ProcessFaultPlan],
    max_retries: int,
    deadline_at: Optional[float] = None,
    check_abort: Optional[Callable[[], Optional[str]]] = None,
) -> Tuple[List[TaskOutcome], int, int]:
    """Pool execution with worker-loss recovery and poison attribution.

    Returns ``(results, retries, pool_rebuilds)``.  Fresh tasks run in
    one shared wave at full width.  A broken pool fails *every* in-flight
    future, so a shared-wave loss cannot tell the poison task from innocent
    bystanders; lost tasks are therefore re-probed in **isolation** — one
    task, one worker, one pool — where a second break implicates exactly
    that task.  Each loss adds a strike to the task's ledger; a task
    exceeding ``max_retries`` strikes is quarantined.  Innocents collect at
    most the one shared-wave strike, so with ``max_retries >= 1`` only a
    repeatedly-killing task can be quarantined.  Executor rebuilds are
    spaced by :func:`~repro.eval.supervisor.decorrelated_backoff` to ride
    out transient resource pressure (the OOM-killer case) without
    recovering sweeps restarting in lockstep.
    """
    active = disk_cache.active_cache()
    worker_dir = str(active.root) if active is not None else None
    attempts: Dict[SweepTask, int] = {task: 0 for task in pending}
    suspects: deque = deque()
    results: List[TaskOutcome] = []
    retries = 0
    pool_rebuilds = 0
    rng = random.Random()
    previous_delay = BACKOFF_S

    def strike(task: SweepTask) -> None:
        nonlocal retries
        attempts[task] += 1
        if attempts[task] > max_retries:
            outcome = _quarantine_outcome(task, attempts[task])
            journal.append(outcome)
            results.append(outcome)
        else:
            retries += 1
            suspects.append(task)

    def backoff() -> None:
        nonlocal previous_delay
        previous_delay = decorrelated_backoff(
            previous_delay, BACKOFF_S, BACKOFF_FACTOR, MAX_BACKOFF_S, rng
        )
        if previous_delay > 0.0:
            time.sleep(previous_delay)

    # One full-width wave (pending is in plan order), then isolation probes
    # until every suspect has settled.
    lost = _run_wave(
        pending, min(jobs, len(pending)), worker_dir, deadline_s,
        attempts, chaos, journal, results, deadline_at, check_abort,
    )
    if lost:
        pool_rebuilds += 1
        with obs_span(
            "supervisor.recover", kind="wave", lost=len(lost),
            rebuilds=pool_rebuilds,
        ):
            for task in sorted(lost, key=_task_order):
                strike(task)
            backoff()
    while suspects:
        task = suspects.popleft()
        lost = _run_wave(
            [task], 1, worker_dir, deadline_s, attempts, chaos,
            journal, results, deadline_at, check_abort,
        )
        if lost:
            pool_rebuilds += 1
            with obs_span(
                "supervisor.recover", kind="isolation", lost=1,
                rebuilds=pool_rebuilds,
            ):
                strike(task)
                backoff()
    return results, retries, pool_rebuilds


@dataclass(frozen=True)
class ParallelSweepReport:
    """Everything a sweep did: results, sharding story, timings.

    The recovery counters are ``retries`` (task re-executions after worker
    loss), ``pool_rebuilds`` (executors replaced after a
    ``BrokenProcessPool``), ``tasks_resumed`` (outcomes replayed from the
    journal instead of recomputed), and ``journal_path``.
    """

    outcomes: Tuple  # SweepOutcome per experiment ('' replay skipped → empty)
    tasks: Tuple[TaskOutcome, ...]
    jobs: int
    tasks_planned: int
    tasks_precached: int
    precompute_s: float
    replay_s: float
    total_s: float
    stage_timings: Dict[str, float]
    cache: Dict[str, object]
    retries: int = 0
    pool_rebuilds: int = 0
    tasks_resumed: int = 0
    journal_path: Optional[str] = None
    #: Whether precompute actually used a process pool and — when it ran
    #: in-process — the :func:`pool_decision` reason.
    pool_used: bool = False
    fallback_reason: Optional[str] = None

    @property
    def failed_tasks(self) -> Tuple[TaskOutcome, ...]:
        """Precompute tasks that errored (replay recomputes them inline)."""
        return tuple(t for t in self.tasks if not t.ok)

    @property
    def quarantined_tasks(self) -> Tuple[TaskOutcome, ...]:
        """Tasks the engine gave up on after repeated worker kills."""
        return tuple(t for t in self.tasks if t.quarantined)

    def stats(self) -> Dict[str, object]:
        """JSON-friendly summary (used by the benchmark gate and the CLI).

        ``cache_put_errors`` and ``cache_quarantined`` surface the uniform
        failure counters of :func:`repro.eval.experiments.cache_info` at the
        top level, so every report exposes them the same way regardless of
        which cache layers were active.
        """
        return {
            "jobs": self.jobs,
            "tasks_planned": self.tasks_planned,
            "tasks_precached": self.tasks_precached,
            "tasks_computed": len(self.tasks),
            "tasks_failed": len(self.failed_tasks),
            "tasks_quarantined": len(self.quarantined_tasks),
            "tasks_resumed": self.tasks_resumed,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "journal_path": self.journal_path,
            "pool_used": self.pool_used,
            "fallback_reason": self.fallback_reason,
            "precompute_s": self.precompute_s,
            "replay_s": self.replay_s,
            "total_s": self.total_s,
            "stage_timings": dict(self.stage_timings),
            "cache": dict(self.cache),
            "cache_put_errors": int(self.cache.get("put_errors", 0)),
            "cache_quarantined": int(self.cache.get("quarantined", 0)),
        }


def _resolve_experiment_ids(
    experiment_ids: Optional[Sequence[str]],
) -> List[str]:
    """Validate and canonicalize (sort) the requested experiment ids."""
    from .harness import EXPERIMENTS

    ids = (
        sorted(experiment_ids) if experiment_ids is not None
        else sorted(EXPERIMENTS)
    )
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiments {unknown!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return ids


def _partition_tasks(
    tasks: Sequence[SweepTask],
) -> Tuple[List[SweepTask], int]:
    """Split planned tasks into (pending, already-cached count).

    The disk-cache probe both counts warm points and promotes them to the
    in-memory layer, so the replay phase touches no files for them.
    """
    pending: List[SweepTask] = []
    precached = 0
    active = disk_cache.active_cache()
    for task in tasks:
        if _memory_key(task) in experiments._CACHE:
            precached += 1
            continue
        if active is not None:
            payload = active.get(experiments._content_key(
                _task_integers(task), task.wordlength, task.method,
                Representation(task.representation), task.depth_limit, 16,
            ))
            if payload is not None:
                experiments._store_memory(
                    _memory_key(task), disk_cache.decode_method_result(payload)
                )
                precached += 1
                continue
        pending.append(task)
    return pending, precached


def _fold_results(results: Sequence[TaskOutcome]) -> None:
    """Hydrate the parent's in-memory cache from worker or journal payloads.

    Disk writes already happened worker-side when a cache is active; here we
    only fill the in-memory layer (results computed in-process already did).
    The first payload per design point wins.
    """
    for outcome in results:
        if outcome.payload is not None:
            key = _memory_key(outcome.task)
            if key not in experiments._CACHE:
                experiments._store_memory(
                    key, disk_cache.decode_method_result(outcome.payload)
                )


def _record_sweep_metrics(report: "ParallelSweepReport") -> None:
    """Fold a finished report's totals into the metrics registry.

    Counters are recorded *from the report* (not incrementally along the
    way), so the merged metrics snapshot equals ``report.stats()`` by
    construction — the acceptance contract between the two observability
    surfaces.  Called once per report; sweeps in one process accumulate.
    """
    quarantined = len(report.quarantined_tasks)
    failed = len(report.failed_tasks) - quarantined
    ok = len(report.tasks) - len(report.failed_tasks)
    for status, count in (
        ("ok", ok), ("failed", failed), ("quarantined", quarantined),
    ):
        if count:
            obs_metrics.counter(
                "repro_tasks_total", status=status
            ).inc(count)
    for name, count in (
        ("repro_task_retries_total", report.retries),
        ("repro_pool_rebuilds_total", report.pool_rebuilds),
        ("repro_tasks_resumed_total", report.tasks_resumed),
        ("repro_tasks_precached_total", report.tasks_precached),
    ):
        if count:
            obs_metrics.counter(name).inc(count)
    obs_metrics.gauge("repro_sweep_jobs").set(report.jobs)


def _stage_timings(results: Sequence[TaskOutcome]) -> Dict[str, float]:
    """Aggregate worker-side elapsed time per synthesis method."""
    timings: Dict[str, float] = {}
    for outcome in results:
        stage = outcome.task.method
        timings[stage] = timings.get(stage, 0.0) + outcome.elapsed_s
    return timings


def run_sweep_parallel(
    experiment_ids: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    robust: bool = True,
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
    task_deadline_s: Optional[float] = None,
    replay: bool = True,
    journal_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    max_retries: int = 2,
    chaos: Optional[ProcessFaultPlan] = None,
    deadline_at: Optional[float] = None,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
) -> ParallelSweepReport:
    """Run a sweep: plan, partition, precompute, fold, replay, report.

    ``jobs`` defaults to the host CPU count.  :func:`pool_decision` picks
    worker processes or in-process precompute; both run the identical code
    path, so only timing changes.  ``cache_dir`` installs a persistent
    :class:`~repro.eval.cache.DiskCache` shared by parent and workers for
    the duration of the call (and left installed afterwards, so subsequent
    serial runs stay warm).  ``task_deadline_s`` bounds each design point
    with a :class:`~repro.robust.SolverBudget`; a point that exhausts its
    budget is recorded in ``report.tasks`` and recomputed — unbudgeted,
    exactly as a serial run would — during replay.  With ``replay=False``
    only the precompute phase runs (``report.outcomes`` is empty); use this
    to warm caches before driving experiments through other entry points.

    ``journal_dir`` journals every finished task and ``resume`` replays a
    previous journal of the same sweep; ``max_retries`` bounds how often a
    task lost with its worker is re-run before it is quarantined; ``chaos``
    injects process-level faults.  The returned
    :class:`ParallelSweepReport` carries the recovery counters and any
    quarantined tasks.

    ``deadline_at`` is a whole-sweep wall-clock bound (``time.time()``
    epoch): each task's effective deadline is recomputed at task start as
    ``min(task_deadline_s, deadline_at - now)``, and the parent re-checks
    the clock between task completions, raising
    :class:`~repro.errors.SweepAborted` once it passes.  ``should_stop``
    is polled at the same checkpoints and aborts with its returned reason
    when non-``None`` (e.g. a job service observing a cancelled job).
    Aborting never loses journaled outcomes — a resumed run skips them.
    """
    from .harness import run_sweep

    ids = _resolve_experiment_ids(experiment_ids)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if max_retries < 0:
        raise SupervisorError(f"max_retries must be >= 0, got {max_retries}")
    if resume and journal_dir is None:
        raise SupervisorError("resume=True requires journal_dir")

    check_abort: Optional[Callable[[], Optional[str]]] = None
    if deadline_at is not None or should_stop is not None:
        def check_abort() -> Optional[str]:
            if deadline_at is not None and time.time() >= deadline_at:
                return (
                    f"sweep deadline passed "
                    f"({time.time() - deadline_at:.1f}s over)"
                )
            if should_stop is not None:
                return should_stop()
            return None

    started = time.monotonic()
    if cache_dir is not None:
        disk_cache.configure(cache_dir)

    tasks = plan_tasks(ids, filter_indices, wordlengths)

    journal = _NullJournal()
    resumed_outcomes: List[TaskOutcome] = []
    if journal_dir is not None:
        signature = sweep_signature(ids, filter_indices, wordlengths)
        if resume:
            journal, resumed_outcomes = SweepJournal.resume(
                journal_dir, signature
            )
        else:
            journal = SweepJournal.create(journal_dir, signature)

    # Hydrate the in-memory cache from journaled completions, then let the
    # ordinary partition count them as precached.  Failed or quarantined
    # journal records are *not* replayed — a crash environment is exactly
    # when transient failures happen, so those points get a fresh chance.
    task_set = set(tasks)
    replayed = [o for o in resumed_outcomes if o.ok and o.task in task_set]
    _fold_results(replayed)
    tasks_resumed = len({o.task for o in replayed})
    if resume:
        obs.event(
            "journal.resume",
            journal=str(journal.path),
            replayed=len(resumed_outcomes),
            resumed=tasks_resumed,
        )

    pending, precached = _partition_tasks(tasks)

    precompute_started = time.monotonic()
    results: List[TaskOutcome] = []
    retries = 0
    pool_rebuilds = 0
    pool_used = False
    fallback_reason: Optional[str] = None
    try:
        if pending:
            pool_used, fallback_reason = pool_decision(
                len(pending), jobs, journaled=journal_dir is not None
            )
            with obs_span(
                "sweep.precompute", jobs=jobs, pending=len(pending),
                pool=pool_used, fallback=fallback_reason,
            ):
                if pool_used:
                    results, retries, pool_rebuilds = _precompute_pool(
                        pending, jobs, task_deadline_s, journal, chaos,
                        max_retries, deadline_at, check_abort,
                    )
                else:
                    results = _precompute_in_process(
                        pending, task_deadline_s, journal, chaos,
                        deadline_at, check_abort,
                    )
            if pool_used:
                obs.drain_spill()
    finally:
        journal.close()
    precompute_s = time.monotonic() - precompute_started

    _fold_results(results)
    stage_timings = _stage_timings(results)

    # Last checkpoint before the (undeadlined, serial) replay phase: an
    # abort that fired while the final tasks drained must not be absorbed
    # into a full replay over cold points.
    if check_abort is not None:
        reason = check_abort()
        if reason is not None:
            raise SweepAborted(reason)

    replay_started = time.monotonic()
    outcomes: Tuple = ()
    if replay:
        with obs_span("sweep.replay", experiments=len(ids)):
            outcomes = run_sweep(
                ids, robust=robust, filter_indices=filter_indices,
                wordlengths=wordlengths,
            )
    replay_s = time.monotonic() - replay_started

    report = ParallelSweepReport(
        outcomes=outcomes,
        tasks=tuple(results),
        jobs=jobs,
        tasks_planned=len(tasks),
        tasks_precached=precached,
        precompute_s=precompute_s,
        replay_s=replay_s,
        total_s=time.monotonic() - started,
        stage_timings=stage_timings,
        cache=experiments.cache_info(),
        retries=retries,
        pool_rebuilds=pool_rebuilds,
        tasks_resumed=tasks_resumed,
        journal_path=str(journal.path) if journal.path is not None else None,
        pool_used=pool_used,
        fallback_reason=fallback_reason,
    )
    _record_sweep_metrics(report)
    return report


#: The job service's historical name for the engine.
run_sweep_supervised = run_sweep_parallel


def _task_integers(task: SweepTask) -> Tuple[int, ...]:
    """The quantized integer coefficients a task's content key hashes."""
    from ..filters import benchmark_filter
    from ..quantize import quantize

    designed = benchmark_filter(task.filter_index)
    return quantize(
        designed.folded, task.wordlength, ScalingScheme(task.scaling)
    ).integers
