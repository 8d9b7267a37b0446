"""The synthesis job service: engine, dispatcher, and stdlib HTTP front end.

Layering (each piece is independently testable):

* :class:`SynthesisService` — the engine.  Owns the durable
  :class:`~repro.service.store.JobStore`, the
  :class:`~repro.service.queue.FairQueue`, the
  :class:`~repro.service.admission.AdmissionController`, the deadline
  :class:`~repro.service.budgets.Reaper`, and the dispatcher threads that
  run accepted jobs through
  :func:`~repro.eval.parallel.run_sweep_parallel`.  It knows nothing
  about HTTP.

* :class:`ServiceHTTPHandler` on a ``ThreadingHTTPServer`` — a thin
  translation layer: JSON in/out, exception type → status code,
  ``Retry-After`` from :class:`~repro.errors.AdmissionRejected`.

Crash safety is inherited, not reimplemented: job lifecycle lives in the
store's WAL, per-task progress lives in the sweep engine's journal, and
the dispatcher always runs with ``resume=True`` — so a job interrupted by
``SIGKILL`` of the whole server is requeued on restart and only recomputes
the tasks whose outcomes never reached disk.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import obs
from ..errors import (
    AdmissionRejected,
    CircuitOpen,
    JobStateError,
    ReproError,
    ServiceError,
    SpecError,
    StoreUnavailable,
    SweepAborted,
)
from ..eval import cache as disk_cache
from ..eval.export import sweep_to_json
from ..eval.parallel import run_sweep_supervised
from ..numrep import Representation
from ..obs import metrics as obs_metrics
from ..quantize import ScalingScheme
from .admission import AdmissionController, CircuitBreaker
from .artifacts import (
    ARTIFACT_KINDS,
    ARTIFACT_MEDIA_TYPES,
    artifact_catalog_entries,
    fetch_artifact,
)
from .budgets import BudgetPolicy, Reaper
from .queue import FairQueue, QueueFull
from .store import JobSpec, JobState, JobStore

__all__ = [
    "ServiceConfig",
    "ServiceHTTPHandler",
    "SynthesisService",
    "make_server",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of one service instance, in one place."""

    data_dir: Path
    cache_dir: Optional[Path] = None
    host: str = "127.0.0.1"
    port: int = 8177
    #: Worker processes per running sweep (the sweep engine's ``jobs``).
    sweep_jobs: int = 2
    #: Concurrently *running* jobs (dispatcher threads).
    max_inflight: int = 1
    max_queue_depth: int = 16
    max_queue_depth_per_tenant: Optional[int] = 8
    budgets: BudgetPolicy = field(default_factory=BudgetPolicy)
    breaker_threshold: int = 3
    breaker_window_s: float = 60.0
    breaker_cooldown_s: float = 30.0
    reaper_interval_s: float = 0.5
    #: Seconds a SIGTERM drain waits for running jobs before giving up.
    drain_grace_s: float = 30.0
    #: Supervisor retry budget per job.
    max_retries: int = 2
    #: Ceiling on the ``wait=`` a long-poll status request may ask for.
    long_poll_max_s: float = 30.0
    #: Page size served when a paginated listing names no ``limit``, and
    #: the ceiling a requested ``limit`` is clamped to.
    page_limit_default: int = 100
    page_limit_max: int = 500
    #: Optional process-level fault plan threaded into every sweep
    #: (chaos tests only; never set in production configs).
    chaos: Optional[object] = None
    #: Optional :class:`~repro.robust.chaos.StoreFaultInjector` failing
    #: WAL appends (chaos tests only).
    store_chaos: Optional[object] = None

    @property
    def journal_dir(self) -> Path:
        return Path(self.data_dir) / "journals"

    @property
    def store_dir(self) -> Path:
        return Path(self.data_dir) / "jobs"


class SynthesisService:
    """The HTTP-agnostic job engine (store + queue + dispatchers + reaper)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # /metrics must carry the full series vocabulary from the first
        # scrape (the CI gate asserts series exist at 0, not only after
        # their first increment).
        obs.predeclare_metrics()
        if config.cache_dir is not None:
            # Configure the process-wide cache exactly once, here, and pass
            # cache_dir=None to every sweep: per-job reconfiguration would
            # race between concurrent dispatcher threads.
            disk_cache.configure(config.cache_dir)
        self.store = JobStore(
            config.store_dir, fault_injector=config.store_chaos
        )
        self.queue = FairQueue(
            config.max_queue_depth, config.max_queue_depth_per_tenant
        )
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            window_s=config.breaker_window_s,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.admission = AdmissionController(
            self.queue, self.breaker, max_inflight=config.max_inflight
        )
        self.reaper = Reaper(
            sweep=lambda: self.store.jobs_in(
                JobState.QUEUED, JobState.RUNNING
            ),
            expire=lambda job_id: self.store.transition(
                job_id, JobState.EXPIRED,
                error="job deadline exceeded", error_type="Expired",
                finished_at=time.time(),
            ),
            interval_s=config.reaper_interval_s,
        )
        self._dispatchers: List[threading.Thread] = []
        self._draining = threading.Event()
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Re-enqueue surviving jobs and start worker threads."""
        if self._started:
            return
        self._started = True
        # Jobs the store recovered as queued (including running jobs the
        # last process left behind) re-enter the queue before we accept
        # new traffic — no accepted job is ever lost to a restart.
        for record in self.store.jobs_in(JobState.QUEUED):
            try:
                self.queue.push(record.tenant, record.job_id)
            except QueueFull:
                # More surviving jobs than queue slots: the rest stay
                # durably queued and are picked up as slots free (the
                # dispatcher re-enqueues from the store when it idles).
                break
        self.reaper.start()
        for index in range(self.config.max_inflight):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-service-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)

    def drain(self, grace_s: Optional[float] = None) -> bool:
        """Stop accepting work, wait for running jobs; True when clean.

        Queued jobs stay durably queued for the next start; running jobs
        get ``grace_s`` to finish.  Returns ``False`` when the grace period
        expired with jobs still running (the caller maps that to the
        partial-result exit code).
        """
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        self._draining.set()
        self.queue.close()
        deadline = time.monotonic() + grace
        for thread in self._dispatchers:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                thread.join(timeout=remaining)
        clean = not any(t.is_alive() for t in self._dispatchers)
        self.reaper.stop()
        self.store.close()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- request operations ----------------------------------------------------

    def submit(self, payload: Dict[str, object]) -> Tuple[Dict[str, object], bool]:
        """Admit and durably register a job; returns ``(view, created)``.

        Idempotent: an identical spec maps to the same job id, and a job
        already queued/running/completed is returned without re-admission
        (observing an existing job must never be shed by a full queue).
        """
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        tenant = payload.pop("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise SpecError("tenant must be a non-empty string")
        requested_task = payload.pop("task_deadline_s", None)
        requested_job = payload.pop("deadline_s", None)
        spec = JobSpec.from_dict(payload)
        task_deadline, job_deadline, clamped = self.config.budgets.resolve(
            _number_or_none(requested_task, "task_deadline_s"),
            _number_or_none(requested_job, "deadline_s"),
        )

        # Peek before admission: re-observing an existing live or completed
        # job is free and must not be load-shed.
        signature = spec.signature()
        job_id = f"job-{signature[:16]}"
        try:
            existing = self.store.get(job_id)
        except JobStateError:
            existing = None
        if existing is not None and existing.state in (
            JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED
        ):
            return existing.public_view(), False

        self.admission.admit(tenant)
        # The submitting request's trace context becomes the job's durable
        # identity: every later run — on this server or a restarted one —
        # adopts it, so the whole job stays one trace.
        ctx = obs.current_context()
        record, needs_enqueue = self.store.submit(
            spec, tenant, task_deadline, job_deadline, clamped=clamped,
            trace_id=ctx.trace_id if ctx is not None else None,
            trace_link=(
                list(ctx.link) if ctx is not None and ctx.link else None
            ),
        )
        if needs_enqueue:
            try:
                self.queue.push(record.tenant, record.job_id)
            except QueueFull as exc:
                # Lost the race with concurrent admits.  The job stays
                # durably queued; it will be re-enqueued by an idle
                # dispatcher or the next restart, so tell the client it
                # was accepted rather than shedding an already-durable job.
                obs.event(
                    "service.enqueue_race", job_id=record.job_id,
                    scope=exc.scope,
                )
        obs_metrics.counter("repro_service_admitted_total").inc()
        obs_metrics.counter(
            "repro_service_tenant_admitted_total", tenant=tenant
        ).inc()
        return record.public_view(), needs_enqueue

    def status(
        self,
        job_id: str,
        wait_s: Optional[float] = None,
        etag: Optional[int] = None,
    ) -> Dict[str, object]:
        """One job's view; with ``wait_s`` + ``etag``, long-poll for change.

        A client that saw revision ``etag`` blocks up to ``wait_s``
        (clamped to the server's ceiling) until the job's revision moves,
        then gets the fresh view — or the unchanged one after the timeout,
        which the client detects by comparing ``revision``.  Either way the
        response is a complete view, so a dropped long-poll costs nothing:
        the revision in hand is the resume token for the next one.
        """
        if wait_s is None:
            return self.store.get(job_id).public_view()
        wait = min(max(0.0, wait_s), self.config.long_poll_max_s)
        return self.store.wait_for_change(job_id, etag, wait).public_view()

    def _clamp_limit(self, limit: Optional[int]) -> int:
        if limit is None:
            return self.config.page_limit_default
        if limit < 1:
            raise SpecError(f"limit must be >= 1, got {limit}")
        return min(limit, self.config.page_limit_max)

    def jobs_overview(
        self,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Dict[str, object]:
        """Counts plus one stable-ordered page of job views.

        Jobs are ordered by id (the order ``list_jobs`` guarantees), the
        cursor is the last id of the previous page, and ``next_cursor`` is
        ``None`` on the final page — insertion or completion of other jobs
        between pages can never skip or duplicate an id the client already
        walked past.
        """
        page_size = self._clamp_limit(limit)
        records = self.store.list_jobs()
        if cursor:
            records = [r for r in records if r.job_id > cursor]
        page = records[:page_size]
        next_cursor = (
            page[-1].job_id if len(records) > page_size and page else None
        )
        return {
            "counts": self.store.counts(),
            "queue_depth": self.queue.depth(),
            "inflight": self.admission.inflight,
            "jobs": [r.public_view() for r in page],
            "next_cursor": next_cursor,
        }

    def artifact_catalog(
        self,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Dict[str, object]:
        """A stable-ordered page of the addressable artifact space.

        Enumerates every ``kind × filter × wordlength`` combination the
        artifact endpoint can serve (the Table-1 filters at the standard
        sweep wordlengths), so population-scale clients discover artifacts
        by walking pages instead of guessing query strings.  Cursor
        semantics mirror :meth:`jobs_overview`.
        """
        page_size = self._clamp_limit(limit)
        entries = artifact_catalog_entries()
        if cursor:
            entries = [e for e in entries if e["id"] > cursor]
        page = entries[:page_size]
        next_cursor = (
            page[-1]["id"] if len(entries) > page_size and page else None
        )
        return {"artifacts": page, "next_cursor": next_cursor}

    def result(self, job_id: str) -> str:
        return self.store.read_result(job_id)

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a queued or running job (the supervisor's should-stop
        poll aborts a running sweep within about one task budget; the
        dispatcher's completion loses to this transition and is
        discarded)."""
        record = self.store.transition(
            job_id, JobState.CANCELLED,
            error="cancelled by client", error_type="Cancelled",
            finished_at=time.time(),
        )
        return record.public_view()

    def artifact(
        self,
        kind: str,
        filter_index: int,
        wordlength: int,
        scaling: str = "maximal",
        representation: str = "csd",
    ) -> Tuple[str, str]:
        """Generate (or serve from cache) one artifact; (text, media type)."""
        try:
            scheme = ScalingScheme(scaling)
        except ValueError:
            raise SpecError(
                f"unknown scaling {scaling!r}; choose from "
                f"{[s.value for s in ScalingScheme]}"
            )
        try:
            rep = Representation(representation)
        except ValueError:
            raise SpecError(
                f"unknown representation {representation!r}; choose from "
                f"{[r.value for r in Representation]}"
            )
        text = fetch_artifact(
            filter_index, wordlength, kind, scaling=scheme,
            representation=rep,
        )
        return text, ARTIFACT_MEDIA_TYPES[kind]

    def ready(self) -> bool:
        return (
            self._started
            and not self.draining
            and self.breaker.state != "open"
        )

    # -- the dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._draining.is_set():
            job_id = self.queue.pop(timeout=0.25)
            if job_id is None:
                if self.queue.closed:
                    return
                self._refill_queue()
                continue
            self._run_job(job_id)
        # Drain: stop pulling; anything still queued persists in the store.

    def _refill_queue(self) -> None:
        """Re-enqueue durably-queued jobs that missed a queue slot.

        Covers the two paths where a job is queued in the store but absent
        from the in-memory queue: an enqueue race at submit time, and a
        restart that recovered more queued jobs than the queue holds.
        """
        if self.queue.depth() > 0:
            return
        for record in self.store.jobs_in(JobState.QUEUED):
            try:
                self.queue.push(record.tenant, record.job_id)
            except QueueFull:
                break

    def _run_job(self, job_id: str) -> None:
        # Revalidate against the durable truth: the job may have been
        # cancelled or expired while queued.
        try:
            record = self.store.get(job_id)
        except JobStateError:
            return
        if record.state != JobState.QUEUED:
            return
        # updated_at was stamped when the job entered QUEUED (submit or
        # recovery requeue), so now-minus-then is the queue wait.
        queue_wait = max(0.0, time.time() - record.updated_at)
        # expires_at was set at submit time (the deadline covers queue
        # wait + run), so the transition only stamps the start.
        try:
            record = self.store.transition(
                job_id, JobState.RUNNING,
                started_at=time.time(),
                attempts=record.attempts + 1,
            )
        except JobStateError:
            return  # lost the race to cancel/expire
        self.admission.job_started()
        obs_metrics.histogram(
            "repro_service_queue_wait_seconds"
        ).observe(queue_wait)
        started = time.monotonic()
        rebuilds = 0
        try:
            # Adopt the job's durable trace context: on a restarted server
            # this is what stitches the resumed run into the submit-time
            # trace (the link resolves to the original request's span once
            # the per-process files are merged).
            with obs.trace_context(
                (record.trace_id, record.trace_link)
                if record.trace_id else None
            ), obs.span(
                "service.job", job_id=job_id, tenant=record.tenant,
                attempt=record.attempts, resumed=record.resumed,
                queue_wait_s=round(queue_wait, 6),
            ):
                report, result_text = self._execute(record)
            rebuilds = report.pool_rebuilds
            self.store.write_result(job_id, result_text)
            self.store.transition(
                job_id, JobState.COMPLETED,
                finished_at=time.time(),
                quarantined=len(report.quarantined_tasks),
                pool_rebuilds=report.pool_rebuilds,
                retries=report.retries,
            )
            obs_metrics.counter(
                "repro_service_jobs_total", status="completed"
            ).inc()
        except JobStateError:
            # The reaper or a cancel won the terminal transition while the
            # sweep was running; its result is simply discarded.
            obs_metrics.counter(
                "repro_service_jobs_total", status="discarded"
            ).inc()
        except SweepAborted as exc:
            # The sweep stopped itself mid-run: the job deadline passed or
            # a cancel/expire landed in the store while it ran.  If the
            # reaper has not already moved the job, record the expiry here;
            # either way the partial work is journaled, so a resubmission
            # resumes instead of recomputing.
            try:
                self.store.transition(
                    job_id, JobState.EXPIRED,
                    error=str(exc), error_type="Expired",
                    finished_at=time.time(),
                )
            except JobStateError:
                pass
            obs_metrics.counter(
                "repro_service_jobs_total", status="aborted"
            ).inc()
        except ReproError as exc:
            self._fail_job(job_id, exc)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._fail_job(job_id, exc)
        finally:
            elapsed = time.monotonic() - started
            obs_metrics.histogram(
                "repro_service_run_seconds"
            ).observe(elapsed)
            self.admission.job_finished(elapsed, rebuilds)

    def _fail_job(self, job_id: str, exc: BaseException) -> None:
        try:
            self.store.transition(
                job_id, JobState.FAILED,
                error=str(exc), error_type=type(exc).__name__,
                finished_at=time.time(),
            )
        except JobStateError:
            return
        obs_metrics.counter(
            "repro_service_jobs_total", status="failed"
        ).inc()

    def _execute(self, record) -> Tuple[object, str]:
        """Run one job's sweep under supervision; returns (report, json)."""
        spec = record.spec
        job_id = record.job_id

        def should_stop() -> Optional[str]:
            # Polled by the supervisor between task completions, so a
            # cancel or reaper expiry stops a *running* multi-task sweep
            # within one task budget instead of letting it occupy the
            # dispatcher for N_tasks x task_deadline_s.
            try:
                current = self.store.get(job_id)
            except JobStateError:
                return f"job {job_id} record disappeared"
            if current.state in (JobState.CANCELLED, JobState.EXPIRED):
                return f"job {job_id} was {current.state} while running"
            return None

        report = run_sweep_supervised(
            experiment_ids=list(spec.experiments),
            jobs=self.config.sweep_jobs,
            cache_dir=None,  # configured process-wide in __init__
            filter_indices=(
                list(spec.filters) if spec.filters is not None else None
            ),
            wordlengths=(
                list(spec.wordlengths)
                if spec.wordlengths is not None else None
            ),
            task_deadline_s=record.task_deadline_s,
            journal_dir=self.config.journal_dir,
            resume=True,
            max_retries=self.config.max_retries,
            chaos=self.config.chaos,
            # The job-level deadline caps every task's budget at the
            # remaining wall-clock time and aborts the sweep once passed.
            deadline_at=record.expires_at,
            should_stop=should_stop,
        )
        return report, sweep_to_json(report.outcomes)


def _number_or_none(value: object, name: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {value!r}")
    return float(value)


def _route_pattern(route: str) -> str:
    """Collapse a concrete path to its route template for metric labels.

    Label cardinality must stay bounded: every job id or artifact kind as
    its own series would grow the registry without limit, and an arbitrary
    unmatched path (scanners probe anything) must not mint series at all.
    """
    parts = [p for p in route.split("/") if p]
    if route in ("/healthz", "/readyz", "/metrics"):
        return route
    if parts[:2] == ["v1", "jobs"]:
        if len(parts) == 2:
            return "/v1/jobs"
        if len(parts) == 3:
            return "/v1/jobs/{id}"
        if len(parts) == 4 and parts[3] == "result":
            return "/v1/jobs/{id}/result"
    if parts[:2] == ["v1", "artifacts"]:
        if len(parts) == 2:
            return "/v1/artifacts"
        if len(parts) == 3:
            return "/v1/artifacts/{kind}"
    return "other"


# -- stdlib HTTP front end -----------------------------------------------------


class ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Routes requests to the engine; maps exception types to statuses."""

    service: SynthesisService  # installed by make_server
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib naming
        pass  # request logging goes through obs spans, not stderr

    def _send(
        self,
        status: int,
        body: str,
        content_type: str = "application/json",
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._send(
            status, json.dumps(payload, sort_keys=True), headers=headers
        )

    def _send_error_payload(self, status: int, exc: BaseException) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        retry_after = getattr(exc, "retry_after_s", None)
        if retry_after is not None:
            headers = (("Retry-After", str(int(retry_after))),)
        self._send_json(
            status,
            {"error": type(exc).__name__, "message": str(exc)},
            headers=headers,
        )

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("request body must be a JSON object")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        status = 500
        started = time.monotonic()
        # Adopt the caller's trace context for exactly this request.
        # Adopting (possibly None) every time matters: HTTP/1.1 keep-alive
        # reuses this handler thread, so a leftover context from the
        # previous request must never leak into the next one.
        ctx = obs.parse_traceparent(self.headers.get("traceparent"))
        try:
            with obs.trace_context(ctx), obs.span(
                "service.request", route=route, method=method
            ):
                status = self._route(method, route, parse_qs(parsed.query))
        except SpecError as exc:
            status = 400
            self._send_error_payload(status, exc)
        except CircuitOpen as exc:
            status = 503
            self._send_error_payload(status, exc)
        except AdmissionRejected as exc:
            status = 429
            self._send_error_payload(status, exc)
        except StoreUnavailable as exc:
            # A failed WAL append: the job was never acknowledged.  503 +
            # Retry-After tells a resilient client to back off and replay
            # the (idempotent) submission once the disk recovers.
            status = 503
            self._send_error_payload(status, exc)
        except JobStateError as exc:
            status = 404 if "unknown job" in str(exc) else 409
            self._send_error_payload(status, exc)
        except ServiceError as exc:
            status = 400
            self._send_error_payload(status, exc)
        except BrokenPipeError:
            return  # client went away mid-response; nothing to send
        except Exception as exc:  # noqa: BLE001 - HTTP isolation boundary
            status = 500
            try:
                self._send_error_payload(status, exc)
            except OSError:
                pass
        finally:
            obs_metrics.counter(
                "repro_service_requests_total",
                method=method, status=str(status),
            ).inc()
            obs_metrics.histogram(
                "repro_http_request_seconds",
                route=_route_pattern(route), method=method,
            ).observe(time.monotonic() - started)
            # Per-request durability: a SIGKILL between requests then loses
            # no finished request span, so cross-restart trace links (the
            # job record points at the submitting request's span) resolve.
            obs.flush()

    # -- routing --------------------------------------------------------------

    def _route(self, method: str, route: str, query) -> int:
        service = self.service
        parts = [p for p in route.split("/") if p]

        if method == "GET" and route == "/healthz":
            self._send(200, "ok\n", content_type="text/plain")
            return 200
        if method == "GET" and route == "/readyz":
            if service.ready():
                self._send(200, "ready\n", content_type="text/plain")
                return 200
            self._send(503, "not ready\n", content_type="text/plain")
            return 503
        if method == "GET" and route == "/metrics":
            self._send(
                200,
                obs_metrics.DEFAULT_REGISTRY.exposition(),
                content_type="text/plain; version=0.0.4",
            )
            return 200

        if method == "POST" and route == "/v1/jobs":
            view, created = service.submit(self._read_body())
            self._send_json(201 if created else 200, view)
            return 201 if created else 200
        if method == "GET" and route == "/v1/jobs":
            self._send_json(200, service.jobs_overview(
                limit=_query_opt_int(query, "limit"),
                cursor=_query_str(query, "cursor", None),
            ))
            return 200
        if method == "GET" and route == "/v1/artifacts":
            self._send_json(200, service.artifact_catalog(
                limit=_query_opt_int(query, "limit"),
                cursor=_query_str(query, "cursor", None),
            ))
            return 200
        if parts[:2] == ["v1", "jobs"] and len(parts) >= 3:
            job_id = parts[2]
            if method == "GET" and len(parts) == 3:
                view = service.status(
                    job_id,
                    wait_s=_query_opt_float(query, "wait"),
                    etag=_query_opt_int(query, "etag"),
                )
                self._send_json(
                    200, view,
                    headers=(("ETag", str(view["revision"])),),
                )
                return 200
            if method == "DELETE" and len(parts) == 3:
                self._send_json(200, service.cancel(job_id))
                return 200
            if method == "GET" and len(parts) == 4 and parts[3] == "result":
                self._send(200, service.result(job_id))
                return 200
        if (
            method == "GET"
            and parts[:2] == ["v1", "artifacts"]
            and len(parts) == 3
        ):
            kind = parts[2]
            if kind not in ARTIFACT_KINDS:
                raise SpecError(
                    f"unknown artifact kind {kind!r}; choose from "
                    f"{ARTIFACT_KINDS}"
                )
            text, media_type = service.artifact(
                kind,
                _query_int(query, "filter"),
                _query_int(query, "wordlength"),
                scaling=_query_str(query, "scaling", "maximal"),
                representation=_query_str(query, "representation", "csd"),
            )
            self._send(200, text, content_type=media_type)
            return 200

        self._send_json(
            404, {"error": "NotFound", "message": f"no route {route}"}
        )
        return 404

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")


def _query_int(query: Dict[str, List[str]], name: str) -> int:
    values = query.get(name)
    if not values:
        raise SpecError(f"missing required query parameter {name!r}")
    try:
        return int(values[0])
    except ValueError as exc:
        raise SpecError(
            f"query parameter {name!r} must be an integer, got {values[0]!r}"
        ) from exc


def _query_str(query: Dict[str, List[str]], name: str, default):
    values = query.get(name)
    return values[0] if values else default


def _query_opt_int(
    query: Dict[str, List[str]], name: str
) -> Optional[int]:
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError as exc:
        raise SpecError(
            f"query parameter {name!r} must be an integer, got {values[0]!r}"
        ) from exc


def _query_opt_float(
    query: Dict[str, List[str]], name: str
) -> Optional[float]:
    values = query.get(name)
    if not values:
        return None
    try:
        return float(values[0])
    except ValueError as exc:
        raise SpecError(
            f"query parameter {name!r} must be a number, got {values[0]!r}"
        ) from exc


def make_server(
    config: ServiceConfig,
) -> Tuple[ThreadingHTTPServer, SynthesisService]:
    """Build (but do not start serving) the engine plus its HTTP server."""
    service = SynthesisService(config)
    service.start()

    class _Handler(ServiceHTTPHandler):
        pass

    _Handler.service = service
    server = ThreadingHTTPServer((config.host, config.port), _Handler)
    server.daemon_threads = True
    return server, service
