"""Dependency-free observability: tracing, metrics, and trace reporting.

Three pieces, all optional at runtime and free when idle:

* :mod:`repro.obs.trace` — hierarchical phase spans with a JSONL exporter.
  Disabled by default: :func:`span` returns a shared no-op context until
  :func:`configure` installs a tracer, so instrumented code pays one
  ``None`` check on the disabled path and behavior never changes.
* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms with
  Prometheus text exposition and snapshot *merging*, so parallel sweeps
  aggregate worker-process metrics into the parent's report.
* :mod:`repro.obs.report` — trace validation and the per-phase time
  breakdown behind the ``stats`` CLI subcommand.

Cross-process protocol: the parent passes :func:`worker_args` to each pool
initializer; workers call :func:`worker_configure`, which discards the
inherited (forked) parent sink, resets the inherited registry, and starts
spilling per-worker trace lines and metric snapshots into a shared spill
directory.  After the pool drains, the parent calls :func:`drain_spill` to
fold worker files back into its own trace and registry.  Spill files are
rewritten atomically at every task boundary, so a SIGKILL'd worker loses at
most its in-flight task's telemetry — mirroring the sweep journal's
durability story.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from . import metrics
from .metrics import DEFAULT_REGISTRY, counter, gauge, histogram
from .report import (
    format_breakdown,
    load_trace,
    load_traces,
    phase_breakdown,
    validate_trace,
)
from .trace import (
    NULL_SPAN_CONTEXT,
    TRACE_FORMAT_VERSION,
    JsonlSink,
    TraceContext,
    Tracer,
    format_traceparent,
    make_trace_id,
    parse_traceparent,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "JsonlSink",
    "TraceContext",
    "Tracer",
    "configure",
    "counter",
    "current_context",
    "current_traceparent",
    "drain_spill",
    "enable_profile",
    "enabled",
    "event",
    "finalize",
    "flush",
    "format_breakdown",
    "format_traceparent",
    "gauge",
    "histogram",
    "load_trace",
    "load_traces",
    "make_trace_id",
    "metrics",
    "parse_traceparent",
    "phase_breakdown",
    "predeclare_metrics",
    "reset",
    "setup_logging",
    "span",
    "trace_context",
    "tracing_enabled",
    "validate_trace",
    "worker_args",
    "worker_configure",
    "worker_checkpoint",
]

_TRACER: Optional[Tracer] = None
_METRICS_PATH: Optional[Path] = None
_SPILL_DIR: Optional[Path] = None
_WORKER_METRICS_PATH: Optional[Path] = None
_PROFILER = None  # Optional[repro.obs.profile.SpanProfiler]

#: Counter series pre-registered at configure() time so the exposition file
#: always carries the full vocabulary (a scraper can rely on a series
#: existing at 0 rather than appearing only once the first increment lands).
_PREDECLARED_COUNTERS = (
    ("repro_tasks_total", {"status": "ok"}),
    ("repro_tasks_total", {"status": "failed"}),
    ("repro_tasks_total", {"status": "quarantined"}),
    ("repro_task_retries_total", {}),
    ("repro_pool_rebuilds_total", {}),
    ("repro_tasks_resumed_total", {}),
    ("repro_tasks_precached_total", {}),
    ("repro_cache_hits_total", {"layer": "memory"}),
    ("repro_cache_hits_total", {"layer": "disk"}),
    ("repro_cache_misses_total", {"layer": "memory"}),
    ("repro_cache_misses_total", {"layer": "disk"}),
    ("repro_cache_stores_total", {"layer": "memory"}),
    ("repro_cache_stores_total", {"layer": "disk"}),
    ("repro_cache_put_errors_total", {}),
    ("repro_cache_quarantined_total", {}),
    ("repro_budget_heartbeats_total", {}),
    ("repro_budget_expirations_total", {"reason": "deadline"}),
    ("repro_budget_expirations_total", {"reason": "nodes"}),
    ("repro_budget_expirations_total", {"reason": "forced"}),
    ("repro_verify_checks_total", {"check": "structure", "outcome": "passed"}),
    ("repro_verify_checks_total", {"check": "structure", "outcome": "failed"}),
    ("repro_verify_checks_total", {"check": "fixedpoint", "outcome": "passed"}),
    ("repro_verify_checks_total", {"check": "fixedpoint", "outcome": "failed"}),
    ("repro_verify_checks_total", {"check": "equivalence", "outcome": "passed"}),
    ("repro_verify_checks_total", {"check": "equivalence", "outcome": "failed"}),
    ("repro_verify_mutants_total", {"outcome": "killed"}),
    ("repro_verify_mutants_total", {"outcome": "escaped"}),
    ("repro_service_admitted_total", {}),
    ("repro_service_rejected_total", {"reason": "queue_full"}),
    ("repro_service_rejected_total", {"reason": "tenant_full"}),
    ("repro_service_breaker_trips_total", {}),
    ("repro_service_jobs_total", {"status": "completed"}),
    ("repro_service_jobs_total", {"status": "failed"}),
    ("repro_service_jobs_total", {"status": "discarded"}),
    ("repro_service_jobs_total", {"status": "aborted"}),
    ("repro_service_jobs_expired_total", {}),
    ("repro_service_jobs_resumed_total", {}),
    ("repro_service_wal_errors_total", {}),
    ("repro_service_compaction_errors_total", {}),
    ("repro_client_retries_total", {}),
    ("repro_client_breaker_trips_total", {}),
    ("repro_client_deadlines_total", {}),
    ("repro_service_tenant_admitted_total", {"tenant": "default"}),
    ("repro_service_tenant_rejected_total",
     {"tenant": "default", "reason": "queue_full"}),
    ("repro_service_tenant_rejected_total",
     {"tenant": "default", "reason": "tenant_full"}),
)

#: Histogram series pre-registered alongside the counters.  Zero-observation
#: histograms render a full bucket ladder in the exposition, so declaring a
#: route here means a scraper sees its latency series from the first scrape.
_PREDECLARED_HISTOGRAMS = (
    ("repro_service_queue_wait_seconds", {}),
    ("repro_service_run_seconds", {}),
    ("repro_http_request_seconds", {"route": "/v1/jobs", "method": "POST"}),
    ("repro_http_request_seconds", {"route": "/v1/jobs", "method": "GET"}),
    ("repro_http_request_seconds", {"route": "/v1/jobs/{id}", "method": "GET"}),
    ("repro_http_request_seconds",
     {"route": "/v1/jobs/{id}", "method": "DELETE"}),
    ("repro_http_request_seconds",
     {"route": "/v1/jobs/{id}/result", "method": "GET"}),
    ("repro_http_request_seconds", {"route": "/v1/artifacts", "method": "GET"}),
    ("repro_http_request_seconds",
     {"route": "/v1/artifacts/{kind}", "method": "GET"}),
    ("repro_http_request_seconds", {"route": "/metrics", "method": "GET"}),
    ("repro_http_request_seconds", {"route": "/healthz", "method": "GET"}),
    ("repro_http_request_seconds", {"route": "/readyz", "method": "GET"}),
)


def predeclare_metrics() -> None:
    """Register the full metric vocabulary at 0 in the default registry.

    Called from :func:`configure` and from the job service's startup, so a
    scraper (or the ``/metrics`` endpoint) can rely on every known series
    being present rather than appearing only after its first increment.
    """
    for name, labels in _PREDECLARED_COUNTERS:
        DEFAULT_REGISTRY.counter(name, **labels)
    for name, labels in _PREDECLARED_HISTOGRAMS:
        DEFAULT_REGISTRY.histogram(name, **labels)


def _observe_span(name: str, wall_s: float) -> None:
    DEFAULT_REGISTRY.histogram("repro_span_seconds", span=name).observe(wall_s)


# -- parent-side configuration ------------------------------------------------


def configure(
    trace_path: Optional[os.PathLike] = None,
    metrics_path: Optional[os.PathLike] = None,
) -> None:
    """Enable observability for this process.

    ``trace_path`` installs a JSONL-exporting tracer; ``metrics_path``
    records where :func:`finalize` should write the Prometheus exposition.
    Either may be given alone.  Calling with both ``None`` is a no-op —
    the disabled default stays disabled.
    """
    global _TRACER, _METRICS_PATH
    if trace_path is not None:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = Tracer(JsonlSink(trace_path), on_span=_observe_span)
        _TRACER.profiler = _PROFILER
    if metrics_path is not None:
        _METRICS_PATH = Path(metrics_path)
    if trace_path is not None or metrics_path is not None:
        predeclare_metrics()


def enabled() -> bool:
    """True when tracing or metrics export is configured in this process."""
    return _TRACER is not None or _METRICS_PATH is not None


def tracing_enabled() -> bool:
    """True when a tracer is installed (spans are being recorded)."""
    return _TRACER is not None


def span(name: str, **tags: Any):
    """Open a phase span, or the shared no-op context when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN_CONTEXT
    return tracer.span(name, **tags)


def event(name: str, **tags: Any) -> None:
    """Emit a point event into the trace (no-op when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **tags)


def flush() -> None:
    """Flush the trace sink to disk (no-op when tracing is off).

    The service calls this per request so a SIGKILL loses at most the
    in-flight request's spans — the durability cross-restart trace links
    depend on.
    """
    tracer = _TRACER
    if tracer is not None:
        tracer.flush()


# -- distributed trace context -------------------------------------------------


def trace_context(ctx):
    """Scope making ``ctx`` the root-span context for this thread.

    ``ctx`` may be a :class:`TraceContext`, a raw ``(trace_id, link)``
    pair as persisted on a :class:`~repro.service.store.JobRecord`
    (``link`` a ``[pid, id]`` list or ``None``), or ``None`` to reset to
    the process default.  Returns the shared no-op context when tracing
    is off, so callers never branch.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN_CONTEXT
    if ctx is not None and not isinstance(ctx, TraceContext):
        trace_id, link = ctx
        if trace_id is None:
            ctx = None
        else:
            ctx = TraceContext(
                trace_id, tuple(link) if link else None
            )
    return tracer.adopt(ctx)


def current_context() -> Optional[TraceContext]:
    """The context a downstream process should continue from, if tracing."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current_context()


def current_traceparent() -> Optional[str]:
    """Wire-format header value for the current context (None when off)."""
    tracer = _TRACER
    if tracer is None:
        return None
    return format_traceparent(tracer.current_context())


def enable_profile(span_name: str, out_dir: os.PathLike, every: int = 1):
    """Attach a sampled ``cProfile`` hook to spans named ``span_name``.

    Effective in this process only — deliberately not shipped through
    :func:`worker_args` (a profiler in every pool worker would serialize
    the sweep it is measuring).  Survives re-:func:`configure`; cleared
    by :func:`reset`.  Returns the installed profiler.
    """
    global _PROFILER
    from .profile import SpanProfiler

    _PROFILER = SpanProfiler(span_name, out_dir, every=every)
    if _TRACER is not None:
        _TRACER.profiler = _PROFILER
    return _PROFILER


def _ensure_spill_dir() -> Optional[Path]:
    """The shared spill directory for worker telemetry (created lazily)."""
    global _SPILL_DIR
    if not enabled():
        return None
    if _SPILL_DIR is None:
        anchor = (
            _TRACER.sink.path if _TRACER is not None else _METRICS_PATH
        )
        if anchor is not None:
            spill = Path(f"{anchor}.spill.d")
            spill.mkdir(parents=True, exist_ok=True)
        else:  # pragma: no cover - enabled() implies an anchor exists
            spill = Path(tempfile.mkdtemp(prefix="repro-obs-spill-"))
        _SPILL_DIR = spill
    return _SPILL_DIR


def worker_args() -> Optional[Tuple[str, bool, Optional[Tuple]]]:
    """Picklable obs setup for a pool initializer (None when disabled).

    The third element carries the coordinator's current trace context as
    ``(trace_id, [pid, id] | None)``; called inside the ``sweep.precompute``
    span, it makes every worker's root spans (``sweep.task``) link back to
    that span and share the job's trace id.
    """
    spill = _ensure_spill_dir()
    if spill is None:
        return None
    ctx = None
    if _TRACER is not None:
        cur = _TRACER.current_context()
        ctx = (cur.trace_id, list(cur.link) if cur.link is not None else None)
    return str(spill), _TRACER is not None, ctx


def drain_spill() -> None:
    """Fold worker spill files back into this process's trace and registry.

    Only call once the pool has drained (worker files are rewritten at task
    boundaries; a live writer could be mid-rename).  Merged files are
    deleted so repeated drains never double-count.
    """
    spill = _SPILL_DIR
    if spill is None or not spill.is_dir():
        return
    for path in sorted(spill.glob("metrics-*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                DEFAULT_REGISTRY.merge(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            counter("repro_obs_spill_errors_total").inc()
            continue
        path.unlink(missing_ok=True)
    tracer = _TRACER
    for path in sorted(spill.glob("trace-*.jsonl")):
        if tracer is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    # One batch per file; a torn final line is dropped.
                    tracer.sink.write_lines(
                        [line for line in fh if line.endswith("\n")]
                    )
            except OSError:
                counter("repro_obs_spill_errors_total").inc()
                continue
        path.unlink(missing_ok=True)


def finalize() -> Dict[str, str]:
    """Drain spill, write the metrics exposition, close the tracer.

    Returns ``{"trace": path}`` / ``{"metrics": path}`` for whatever was
    actually written.  Leaves the process disabled (fresh :func:`configure`
    required), but keeps registry values readable for reports and tests.
    """
    global _TRACER, _METRICS_PATH, _SPILL_DIR
    written: Dict[str, str] = {}
    drain_spill()
    if _TRACER is not None:
        written["trace"] = str(_TRACER.sink.path)
        _TRACER.close()
        _TRACER = None
    if _METRICS_PATH is not None:
        _METRICS_PATH.parent.mkdir(parents=True, exist_ok=True)
        tmp = _METRICS_PATH.with_name(_METRICS_PATH.name + ".tmp")
        # The final exposition is the run's telemetry of record: fsync the
        # bytes and the rename's directory entry so a crash immediately
        # after finalize() cannot lose it.  (Plain ``os`` on purpose — obs
        # sits *below* the crashsim fabric in the import graph.)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(DEFAULT_REGISTRY.exposition())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, _METRICS_PATH)
        try:
            dir_fd = os.open(str(_METRICS_PATH.parent), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass
        written["metrics"] = str(_METRICS_PATH)
        _METRICS_PATH = None
    if _SPILL_DIR is not None:
        try:
            _SPILL_DIR.rmdir()
        except OSError:
            pass  # leftover files from a crashed worker stay for forensics
        _SPILL_DIR = None
    return written


def reset() -> None:
    """Tear down all obs state without exporting anything (test isolation)."""
    global _TRACER, _METRICS_PATH, _SPILL_DIR, _WORKER_METRICS_PATH, _PROFILER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None
    _METRICS_PATH = None
    _SPILL_DIR = None
    _WORKER_METRICS_PATH = None
    _PROFILER = None
    DEFAULT_REGISTRY.reset()


# -- worker-side protocol ------------------------------------------------------


def worker_configure(args: Optional[Tuple]) -> None:
    """Arm observability inside a pool worker (from the pool initializer).

    The forked child inherits the parent's open sink and populated registry;
    both must be discarded — writing through the inherited handle would
    interleave garbage into the parent's file, and spilling inherited
    counters would double-count the parent's pre-fork work after the merge.

    Accepts both the legacy ``(spill_dir, want_trace)`` pair and the
    current triple with a trailing ``(trace_id, link)`` context, so a
    worker never crashes on an args tuple from a different code vintage.
    """
    global _TRACER, _METRICS_PATH, _SPILL_DIR, _WORKER_METRICS_PATH
    if _TRACER is not None:
        _TRACER.sink.abandon()
        _TRACER = None
    _METRICS_PATH = None
    _SPILL_DIR = None
    _WORKER_METRICS_PATH = None
    DEFAULT_REGISTRY.reset()
    if args is None:
        return
    spill_dir, want_trace = args[0], args[1]
    ctx = args[2] if len(args) > 2 else None
    token = f"{os.getpid()}-{time.monotonic_ns()}"
    if want_trace:
        trace_id = None
        link = None
        if ctx is not None and ctx[0] is not None:
            trace_id = ctx[0]
            link = tuple(ctx[1]) if ctx[1] else None
        _TRACER = Tracer(
            JsonlSink(Path(spill_dir) / f"trace-{token}.jsonl"),
            on_span=_observe_span,
            trace_id=trace_id,
            default_link=link,
        )
    _WORKER_METRICS_PATH = Path(spill_dir) / f"metrics-{token}.json"
    atexit.register(_worker_shutdown)


def worker_checkpoint() -> None:
    """Persist this worker's telemetry at a task boundary (cheap when off).

    Flushes the trace sink and atomically rewrites the cumulative metrics
    snapshot, so a worker killed between tasks loses nothing already earned.

    Deliberately **best-effort** (no fsync): checkpoints happen at every
    task boundary, an fsync per task would serialize workers on the disk,
    and a snapshot lost to a power cut is superseded by the next one —
    the atomic rename alone guarantees the merge step never reads a torn
    file.  Consumers must tolerate a missing-after-crash snapshot
    (``scripts/check_trace.py --allow-missing-metrics``).
    """
    if _TRACER is not None:
        _TRACER.flush()
    path = _WORKER_METRICS_PATH
    if path is not None:
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(DEFAULT_REGISTRY.snapshot(), fh,
                          sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _worker_shutdown() -> None:
    global _TRACER
    worker_checkpoint()
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


# -- logging -------------------------------------------------------------------


def setup_logging(level: str = "warning") -> None:
    """Route the ``repro`` logger hierarchy to stderr at ``level``."""
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    logger = logging.getLogger("repro")
    logger.setLevel(numeric)
    if not any(
        isinstance(h, logging.StreamHandler) for h in logger.handlers
    ):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"
        ))
        logger.addHandler(handler)
