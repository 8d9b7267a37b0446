"""Process-pool sweep execution with byte-identical serial semantics.

The sweep engine splits :func:`repro.eval.run_sweep` into two phases:

1. **Precompute** — every (filter, wordlength, scaling, representation,
   method, depth-limit) design point needed by the requested experiments is
   enumerated (deterministically, deduplicated), and the points not already
   in a cache layer are scattered across a
   :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker computes
   the point through the very same :func:`~repro.eval.experiments._method_result`
   code path as a serial run, under an optional per-task
   :class:`~repro.robust.SolverBudget` so one pathological instance fails
   fast instead of stalling its shard, and persists the result to the shared
   disk cache (:mod:`repro.eval.cache`).

2. **Replay** — the experiments then run serially in the parent over the
   warm caches.  Because the replay *is* the serial code path (synthesis is
   fully deterministic, and any point a worker failed to produce is simply
   recomputed inline), parallel output is byte-identical to a serial run by
   construction — there is no merge step that could reorder or reformat
   anything.

On a single-core host the pool degenerates gracefully: the engine still
works, the disk cache still eliminates recomputation across runs, and
``jobs=1`` runs the same two phases without a pool (useful for
apples-to-apples benchmarking of the engine overhead).
"""

from __future__ import annotations

import math
import os
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ReproError
from ..fastpath import msdtables as fast_tables
from ..filters import TABLE1_SPECS
from ..numrep import Representation
from ..obs import metrics as obs_metrics
from ..obs import span as obs_span
from ..quantize import ScalingScheme
from . import cache as disk_cache
from . import experiments
from .experiments import WORDLENGTHS

__all__ = [
    "ParallelSweepReport",
    "SweepTask",
    "TaskOutcome",
    "auto_chunk_size",
    "plan_tasks",
    "pool_decision",
    "run_sweep_parallel",
]

#: Target number of map() chunks handed to each worker over a sweep: one
#: chunk per worker amortizes IPC best but stragglers idle the pool at the
#: tail, so the auto size aims for a few waves per worker.
CHUNKS_PER_WORKER = 4

#: Env override for the serial-fallback threshold (tasks); mirrors the
#: ``min_parallel_tasks`` parameter for deployments that cannot touch code.
MIN_POOL_TASKS_ENV = "REPRO_MIN_POOL_TASKS"


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
    times the supervisor scheduled the task (1 for unsupervised runs);
    ``quarantined`` marks a task the supervisor gave up on after it
    repeatedly killed workers.
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


def auto_chunk_size(pending: int, workers: int) -> int:
    """Map() chunk size amortizing pool IPC over ``pending`` tasks.

    Aims for :data:`CHUNKS_PER_WORKER` chunks per worker — large enough that
    per-task pickling/dispatch overhead stops dominating sub-100ms tasks,
    small enough that a straggler chunk cannot idle the rest of the pool for
    long.
    """
    if pending <= 0 or workers <= 0:
        return 1
    return max(1, math.ceil(pending / (workers * CHUNKS_PER_WORKER)))


def pool_decision(
    pending: int,
    jobs: int,
    min_parallel_tasks: Optional[int] = None,
) -> Tuple[bool, Optional[str]]:
    """Whether a process pool can win for this sweep, and why not if not.

    Pool spin-up costs several hundred milliseconds per worker (interpreter
    boot + package import); BENCH_sweep measured cold parallel at 0.52x of
    serial when that overhead was paid for a handful of fast tasks.  The
    heuristic falls back to in-process execution (byte-identical results by
    construction) when the pool cannot plausibly amortize:

    * ``jobs <= 1`` — caller asked for no pool;
    * a single-CPU host — workers only add overhead, never concurrency;
    * fewer pending tasks than ``min_parallel_tasks`` (default
      ``max(4, 2 * effective_workers)``, overridable via the
      ``REPRO_MIN_POOL_TASKS`` env var).
    """
    if jobs <= 1:
        return False, "jobs <= 1"
    effective = min(jobs, os.cpu_count() or 1)
    if effective <= 1:
        return False, "single-CPU host"
    if min_parallel_tasks is None:
        raw = os.environ.get(MIN_POOL_TASKS_ENV, "")
        min_parallel_tasks = (
            int(raw) if raw.strip().isdigit() else max(4, 2 * effective)
        )
    if pending < min_parallel_tasks:
        return False, (
            f"{pending} pending tasks below pool threshold "
            f"{min_parallel_tasks}"
        )
    return True, None


def _worker_init(
    cache_dir: Optional[str],
    obs_args: Optional[Tuple[str, bool]] = None,
    msd_snapshot: Optional[Tuple] = None,
) -> None:
    """Pool initializer: shared disk cache, observability, warm MSD tables.

    ``msd_snapshot`` hands the parent's memoized MSD digit tables to the
    worker — a no-op under the fork start method (the tables are inherited),
    load-bearing under spawn, and harmless either way because restoring is
    purely additive.
    """
    disk_cache.configure(cache_dir)
    obs.worker_configure(obs_args)
    fast_tables.restore_tables(msd_snapshot)


def _worker_run(args: Tuple[SweepTask, Optional[float]]) -> TaskOutcome:
    task, deadline_s = args
    outcome = _compute_task(task, deadline_s)
    obs.worker_checkpoint()
    return outcome


@dataclass(frozen=True)
class ParallelSweepReport:
    """Everything a parallel sweep did: results, sharding story, timings.

    The supervised layer (:mod:`repro.eval.supervisor`) reuses this shape
    and additionally fills the recovery counters: ``retries`` (task
    re-executions after worker loss), ``pool_rebuilds`` (executors replaced
    after a ``BrokenProcessPool``), ``tasks_resumed`` (outcomes replayed
    from the journal instead of recomputed), and ``journal_path``.
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
    #: Whether precompute actually used a process pool, the map() chunk size
    #: it used (0 without a pool), and — when it fell back to in-process
    #: execution despite ``jobs > 1`` — the :func:`pool_decision` reason.
    pool_used: bool = False
    chunk_size: int = 0
    fallback_reason: Optional[str] = None

    @property
    def failed_tasks(self) -> Tuple[TaskOutcome, ...]:
        """Precompute tasks that errored (replay recomputes them inline)."""
        return tuple(t for t in self.tasks if not t.ok)

    @property
    def quarantined_tasks(self) -> Tuple[TaskOutcome, ...]:
        """Tasks the supervisor gave up on after repeated worker kills."""
        return tuple(t for t in self.tasks if t.quarantined)

    def stats(self) -> Dict[str, object]:
        """JSON-friendly summary (used by the benchmark gate and the CLI).

        ``cache_put_errors`` and ``cache_quarantined`` surface the uniform
        failure counters of :func:`repro.eval.experiments.cache_info` at the
        top level, so supervised and unsupervised reports expose them the
        same way regardless of which cache layers were active.
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
            "chunk_size": self.chunk_size,
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
    in-memory layer, so the replay phase touches no files for them.  Shared
    by the plain parallel engine and the supervised layer.
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
                experiments._CACHE[_memory_key(task)] = (
                    disk_cache.decode_method_result(payload)
                )
                experiments._MEMORY_STATS.stores += 1
                precached += 1
                continue
        pending.append(task)
    return pending, precached


def _fold_results(results: Sequence[TaskOutcome]) -> None:
    """Hydrate the parent's in-memory cache from worker payloads.

    Disk writes already happened worker-side when a cache is active; here we
    only fill the in-memory layer (results computed in-process already did).
    """
    for outcome in results:
        if outcome.payload is not None:
            key = _memory_key(outcome.task)
            if key not in experiments._CACHE:
                experiments._CACHE[key] = (
                    disk_cache.decode_method_result(outcome.payload)
                )
                experiments._MEMORY_STATS.stores += 1


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
    chunk_size: Optional[int] = None,
    min_parallel_tasks: Optional[int] = None,
) -> ParallelSweepReport:
    """Run a sweep with parallel precompute; results match serial bytes.

    ``jobs`` defaults to the host CPU count; ``jobs <= 1`` precomputes
    in-process (no pool).  Even with ``jobs > 1`` the engine consults
    :func:`pool_decision` and silently precomputes in-process when a pool
    cannot win (single-CPU host, or fewer pending tasks than
    ``min_parallel_tasks``) — the fallback runs the identical code path, so
    only timing changes.  ``chunk_size`` sets the number of tasks handed to
    a worker per dispatch (default: :func:`auto_chunk_size`).  ``cache_dir``
    installs a persistent :class:`~repro.eval.cache.DiskCache` shared by
    parent and workers for the duration of the call (and left installed
    afterwards, so subsequent serial runs stay warm).  ``task_deadline_s``
    bounds each design point with a :class:`~repro.robust.SolverBudget`; a
    point that exhausts its budget is recorded in ``report.tasks`` and
    recomputed — unbudgeted, exactly as a serial run would — during replay.
    With ``replay=False`` only the precompute phase runs
    (``report.outcomes`` is empty); use this to warm caches before driving
    experiments through other entry points.
    """
    from .harness import run_sweep

    ids = _resolve_experiment_ids(experiment_ids)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")

    started = time.monotonic()
    if cache_dir is not None:
        disk_cache.configure(cache_dir)

    tasks = plan_tasks(ids, filter_indices, wordlengths)
    pending, precached = _partition_tasks(tasks)

    precompute_started = time.monotonic()
    active = disk_cache.active_cache()
    results: List[TaskOutcome] = []
    pool_used = False
    used_chunk = 0
    fallback_reason: Optional[str] = None
    if pending:
        use_pool, fallback_reason = pool_decision(
            len(pending), jobs, min_parallel_tasks
        )
        if use_pool:
            workers = min(jobs, len(pending))
            used_chunk = (
                chunk_size if chunk_size and chunk_size > 0
                else auto_chunk_size(len(pending), workers)
            )
            worker_dir = str(active.root) if active is not None else None
            pool_used = True
            # worker_args() runs inside this span, so every worker's
            # sweep.task roots link to it and share this trace's id.
            with obs_span(
                "sweep.precompute", jobs=jobs, workers=workers,
                pending=len(pending), chunk_size=used_chunk,
            ):
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(
                        worker_dir,
                        obs.worker_args(),
                        fast_tables.table_snapshot(),
                    ),
                ) as pool:
                    results = list(pool.map(
                        _worker_run,
                        [(task, task_deadline_s) for task in pending],
                        chunksize=used_chunk,
                    ))
            obs.drain_spill()
        else:
            with obs_span(
                "sweep.precompute", jobs=1, pending=len(pending),
                fallback=fallback_reason,
            ):
                results = [
                    _compute_task(t, task_deadline_s) for t in pending
                ]
    precompute_s = time.monotonic() - precompute_started

    _fold_results(results)
    stage_timings = _stage_timings(results)

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
        pool_used=pool_used,
        chunk_size=used_chunk,
        fallback_reason=fallback_reason,
    )
    _record_sweep_metrics(report)
    return report


def _task_integers(task: SweepTask) -> Tuple[int, ...]:
    """The quantized integer coefficients a task's content key hashes."""
    from ..filters import benchmark_filter
    from ..quantize import quantize

    designed = benchmark_filter(task.filter_index)
    return quantize(
        designed.folded, task.wordlength, ScalingScheme(task.scaling)
    ).integers
