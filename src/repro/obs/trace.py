"""Hierarchical phase spans with a deterministic JSONL exporter.

A :class:`Tracer` produces *spans* — named, nested intervals covering one
phase of the synthesis pipeline (``graph.build``, ``cover.exact``,
``sweep.task``, …) — and *events* — zero-duration markers attached to the
enclosing span (``budget.heartbeat``, ``journal.resume``).  Every finished
record is written as one JSON line, so a trace can be streamed, grepped,
truncated, and concatenated without a reader that understands framing.

Spans still open when the sink flushes get a ``start`` record (the span's
identity, parent, tags and start time, but no duration) written ahead of
the flushed batch.  A process killed mid-span therefore never leaves a
record on disk whose parent cannot be resolved: the parent either closed
(its ``span`` record is in the file) or was announced open.  Readers show
a ``start`` without its ``span`` as open-ended.  A span that opens and
closes between two flushes — the common case — writes no ``start`` record.

Determinism: span ids are a per-tracer counter (not random), records are
serialized with sorted keys, and each record carries the producing ``pid``
so per-worker trace files can be concatenated into one trace while keeping
``(pid, id)`` unique and parent references resolvable.  Wall-clock
timestamps (``t``) are present for humans; every derived quantity
(``wall_s``, ``cpu_s``) comes from monotonic/CPU clocks, both injectable
for tests.

The module-level :data:`NULL_SPAN_CONTEXT` is the disabled-path currency:
entering it returns a shared, stateless :class:`_NullSpan`, so code can be
instrumented unconditionally (``with span("cover.exact"): ...``) and pay
only one ``None`` check when tracing is off.

Distributed context: every tracer owns a ``trace_id`` (minted at
construction unless injected) stamped into each record's ``trace`` field,
and root spans may carry a ``link`` — a remote parent as ``[pid, id]`` —
so traces from several processes (client, server before and after a
restart, pool workers) concatenate into one forest whose edges resolve
across process boundaries.  :func:`format_traceparent` /
:func:`parse_traceparent` carry a :class:`TraceContext` over HTTP in a
``traceparent``-style header (``r1-<trace_id>[-<pid>-<span_id>]``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "JsonlSink",
    "NULL_SPAN_CONTEXT",
    "Span",
    "TraceContext",
    "Tracer",
    "format_traceparent",
    "make_trace_id",
    "parse_traceparent",
]

#: Bump when the record schema changes meaning; written into every record's
#: ``v`` field so readers can reject traces from a different format.
#: The ``trace``/``link`` context fields are additive (readers that ignore
#: them still parse every record), so they did not bump the version.
TRACE_FORMAT_VERSION = 1

#: Header prefix for the wire form of a :class:`TraceContext`.
_TRACEPARENT_PREFIX = "r1"


class TraceContext(NamedTuple):
    """A trace identity plus an optional remote parent to hang spans from.

    ``link`` is ``(pid, span_id)`` of a span in *another* process (or a
    crashed incarnation of this one); a root span opened under this
    context records it so cross-process parent edges stay resolvable
    after trace files are concatenated.
    """

    trace_id: str
    link: Optional[Tuple[int, int]] = None


def make_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id.

    Randomness is fine here: trace ids only need to be distinct, never
    ordered — determinism lives in span ids, which stay counter-based.
    """
    return os.urandom(8).hex()


def format_traceparent(ctx: TraceContext) -> str:
    """Wire form: ``r1-<trace_id>`` or ``r1-<trace_id>-<pid>-<span_id>``."""
    if ctx.link is None:
        return f"{_TRACEPARENT_PREFIX}-{ctx.trace_id}"
    pid, span_id = ctx.link
    return f"{_TRACEPARENT_PREFIX}-{ctx.trace_id}-{pid}-{span_id}"


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse the wire form; ``None`` on anything malformed.

    A bad header from an arbitrary HTTP client must degrade to "no
    context", never to a server error.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if parts[0] != _TRACEPARENT_PREFIX:
        return None
    if len(parts) == 2 and parts[1]:
        return TraceContext(parts[1])
    if len(parts) == 4 and parts[1] and parts[2].isdigit() and parts[3].isdigit():
        return TraceContext(parts[1], (int(parts[2]), int(parts[3])))
    return None


class _NullSpan:
    """Stateless stand-in returned when tracing is disabled.

    ``elapsed()`` returns 0.0 so callers can write
    ``span.elapsed() or fallback`` and get a real measurement either way.
    """

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> "_NullSpan":
        return self

    def elapsed(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager — one shared instance, zero allocation."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_SPAN_CONTEXT = _NullSpanContext()


#: Serializes sink file I/O against ``fork()``.  A pool worker forked while
#: another thread (an HTTP handler flushing per request, say) sits inside
#: the file object's buffered write inherits that object's *held* internal
#: lock — and then deadlocks in ``abandon()``'s close.  Holding this lock
#: across every sink write and acquiring it in an at-fork ``before`` hook
#: guarantees no fork ever lands mid-write.  An RLock because ``write``
#: flushes re-entrantly at the FLUSH_EVERY boundary.
_SINK_FORK_LOCK = threading.RLock()


def _release_sink_fork_lock() -> None:
    try:
        _SINK_FORK_LOCK.release()
    except RuntimeError:
        pass  # not held (registered hooks fire for every fork in the process)


if hasattr(os, "register_at_fork"):  # absent on Windows; spawn start there
    os.register_at_fork(
        before=_SINK_FORK_LOCK.acquire,
        after_in_parent=_release_sink_fork_lock,
        after_in_child=_release_sink_fork_lock,
    )


class JsonlSink:
    """Buffered one-record-per-line JSON writer.

    Flushes every :data:`FLUSH_EVERY` records and on :meth:`flush`/
    :meth:`close`, trading a bounded tail loss on SIGKILL for not paying a
    syscall per span in span-dense phases (MSD enumeration emits thousands).
    Records wait in memory, not in the file object's buffer, so the file
    changes only at a flush — the one point where ``before_flush`` (set by
    the :class:`Tracer`) can put the batch's open parents ahead of it.
    """

    FLUSH_EVERY = 64

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lines: List[str] = []
        #: Called at each flush of a non-empty batch; the records it
        #: returns are written ahead of the batch.
        self.before_flush: Optional[Callable[[], List[Dict[str, Any]]]] = None

    @staticmethod
    def _line(record: Dict[str, Any]) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def write(self, record: Dict[str, Any]) -> None:
        """Serialize one record (sorted keys, compact separators)."""
        self.write_lines((self._line(record),))

    def write_lines(self, lines: Sequence[str]) -> None:
        """Append already-serialized record lines, each ending in a newline.

        The lines land in one batch, never split by a flush.  Merging a
        worker's spill file relies on it: the file lists children before
        their parents (exit order), so a split could leave children on disk
        and their parents in a killed process's memory.
        """
        with _SINK_FORK_LOCK:
            if self._fh is None:
                return
            self._lines.extend(lines)
            if len(self._lines) >= self.FLUSH_EVERY:
                self.flush()

    def flush(self) -> None:
        with _SINK_FORK_LOCK:
            if self._fh is None:
                return
            lines, self._lines = self._lines, []
            if lines and self.before_flush is not None:
                lines[:0] = [self._line(r) for r in self.before_flush()]
            self._fh.write("".join(lines))
            self._fh.flush()

    def close(self) -> None:
        with _SINK_FORK_LOCK:
            if self._fh is not None:
                self.flush()
                self._fh.close()
                self._fh = None

    def abandon(self) -> None:
        """Discard the inherited handle without writing (post-fork child).

        A forked worker inherits the parent's open sink, including any
        records still sitting in the userspace buffer.  Merely dropping the
        reference is not enough: the file object's destructor flushes that
        inherited buffer into the parent's file, duplicating every
        not-yet-flushed record once per worker.  Point the child's
        descriptor at ``/dev/null`` first (``dup2`` only rewrites this
        process's descriptor table entry), then close, so the stale buffer
        drains harmlessly.
        """
        with _SINK_FORK_LOCK:
            fh = self._fh
            self._fh = None
            self._lines = []
        if fh is None:
            return
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fh.fileno())
            finally:
                os.close(devnull)
            fh.close()
        except (OSError, ValueError):
            pass  # raw inherited handle in a weird state; losing it is fine


class Span:
    """One live phase interval; also its own context manager.

    Exiting the span computes wall/CPU time, marks ``status`` (``"error"``
    when an exception passed through), and emits the record.  Exceptions are
    never swallowed.
    """

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "tags",
        "trace_id", "link", "_t0", "_cpu0", "start_ts", "_prof",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        tags: Dict[str, Any],
        trace_id: str,
        link: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.tags = tags
        self.trace_id = trace_id
        self.link = link
        self._prof = None
        self.start_ts = time.time()
        self._t0 = tracer._clock()
        self._cpu0 = tracer._cpu_clock()

    def set_tag(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one tag; chainable."""
        self.tags[key] = value
        return self

    def elapsed(self) -> float:
        """Seconds since the span opened (monotonic)."""
        return self.tracer._clock() - self._t0

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        profiler = self.tracer.profiler
        if profiler is not None:
            self._prof = profiler.maybe_start(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._prof is not None:
            profiler = self.tracer.profiler
            if profiler is not None:
                profiler.finish(
                    self._prof, self.name, self.tracer.pid, self.span_id
                )
            self._prof = None
        self.tracer._pop(self)
        status = "ok" if exc_type is None else "error"
        error = None if exc is None else f"{exc_type.__name__}: {exc}"
        self.tracer._emit_span(self, status, error)
        return False


class Tracer:
    """Produces nested spans and point events, emitting JSONL records.

    ``on_span`` (optional) is called with ``(name, wall_s)`` for every
    finished span — the hook the metrics layer uses to feed its latency
    histograms without the tracer importing metrics.

    ``trace_id`` is minted when not injected, so a whole process shares
    one trace by default; ``default_link`` is the remote parent given to
    root spans when no per-thread context is adopted (how pool workers
    hang their ``sweep.task`` spans under the coordinator's span).
    ``profiler`` (assignable) is an optional
    :class:`repro.obs.profile.SpanProfiler` consulted on span entry.
    """

    def __init__(
        self,
        sink: JsonlSink,
        clock: Callable[[], float] = time.monotonic,
        cpu_clock: Callable[[], float] = time.process_time,
        on_span: Optional[Callable[[str, float], None]] = None,
        trace_id: Optional[str] = None,
        default_link: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.sink = sink
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._on_span = on_span
        self._next_id = 1
        self._local = threading.local()
        self.pid = os.getpid()
        self.trace_id = trace_id if trace_id is not None else make_trace_id()
        self.default_link = default_link
        self.profiler = None
        #: Entered spans, every thread's, not yet announced by a ``start``
        #: record nor closed.  Single dict operations only (atomic under
        #: the GIL), so span entry takes no lock.
        self._unannounced: Dict[int, Span] = {}
        sink.before_flush = self._start_records

    # -- span stack ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        self._unannounced[span.span_id] = span

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits, never corrupt
            stack.remove(span)

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # -- distributed context -------------------------------------------------

    def current_context(self) -> TraceContext:
        """The context a downstream process should continue from.

        Innermost open span wins (its id becomes the link), then the
        thread's adopted context, then the tracer default.
        """
        stack = self._stack()
        if stack:
            top = stack[-1]
            return TraceContext(top.trace_id, (self.pid, top.span_id))
        adopted = getattr(self._local, "context", None)
        if adopted is not None:
            return adopted
        return TraceContext(self.trace_id, self.default_link)

    def adopt(self, ctx: Optional[TraceContext]) -> "_AdoptScope":
        """Scope that makes ``ctx`` this thread's root-span context.

        Adopting ``None`` resets to the tracer default — the per-request
        discipline a thread-reusing server needs (a keep-alive thread
        must never leak the previous request's context into the next).
        """
        return _AdoptScope(self, ctx)

    # -- record production ---------------------------------------------------

    def span(self, name: str, **tags: Any) -> Span:
        """Open a span nested under the current one (context manager)."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack()
        if stack:
            top = stack[-1]
            return Span(self, name, span_id, top.span_id, tags, top.trace_id)
        ctx = getattr(self._local, "context", None)
        if ctx is None:
            ctx = TraceContext(self.trace_id, self.default_link)
        return Span(self, name, span_id, None, tags, ctx.trace_id, ctx.link)

    def event(self, name: str, **tags: Any) -> None:
        """Emit a zero-duration marker attached to the enclosing span."""
        stack = self._stack()
        if stack:
            parent, trace_id = stack[-1].span_id, stack[-1].trace_id
        else:
            ctx = getattr(self._local, "context", None)
            parent = None
            trace_id = ctx.trace_id if ctx is not None else self.trace_id
        self.sink.write({
            "v": TRACE_FORMAT_VERSION,
            "kind": "event",
            "name": name,
            "pid": self.pid,
            "parent": parent,
            "t": time.time(),
            "trace": trace_id,
            "tags": _json_safe_tags(tags),
        })

    def _span_record(self, span: Span, kind: str) -> Dict[str, Any]:
        """The fields a ``span`` record and a ``start`` record share."""
        record: Dict[str, Any] = {
            "v": TRACE_FORMAT_VERSION,
            "kind": kind,
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "pid": self.pid,
            "t": span.start_ts,
            "trace": span.trace_id,
            "tags": _json_safe_tags(span.tags),
        }
        if span.parent_id is None and span.link is not None:
            record["link"] = [span.link[0], span.link[1]]
        return record

    def _emit_span(self, span: Span, status: str, error: Optional[str]) -> None:
        wall_s = max(0.0, self._clock() - span._t0)
        record = self._span_record(span, "span")
        record["wall_s"] = wall_s
        record["cpu_s"] = max(0.0, self._cpu_clock() - span._cpu0)
        record["status"] = status
        if error is not None:
            record["error"] = error
        with _SINK_FORK_LOCK:
            # Retire and write in one step: a flush from another thread in
            # between would write neither a start nor a span record for it.
            self._unannounced.pop(span.span_id, None)
            self.sink.write(record)
        if self._on_span is not None:
            self._on_span(span.name, wall_s)

    def _start_records(self) -> List[Dict[str, Any]]:
        """``start`` records for every open span not yet announced.

        Runs under the sink lock (from :meth:`JsonlSink.flush`), the lock
        :meth:`_emit_span` retires spans under, so only :meth:`_push` can
        touch the dict meanwhile, and it only adds.
        """
        spans = [
            self._unannounced.popitem()[1]
            for _ in range(len(self._unannounced))
        ]
        spans.sort(key=lambda sp: sp.span_id)
        return [self._span_record(sp, "start") for sp in spans]

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


class _AdoptScope:
    """Sets a thread's adopted context on entry, restores it on exit."""

    __slots__ = ("_tracer", "_ctx", "_prev")

    def __init__(self, tracer: Tracer, ctx: Optional[TraceContext]) -> None:
        self._tracer = tracer
        self._ctx = ctx
        self._prev = None

    def __enter__(self) -> "_AdoptScope":
        local = self._tracer._local
        self._prev = getattr(local, "context", None)
        local.context = self._ctx
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._local.context = self._prev
        return False


def _json_safe_tags(tags: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce tag values to JSON-serializable scalars (repr as last resort)."""
    safe: Dict[str, Any] = {}
    for key, value in tags.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe
