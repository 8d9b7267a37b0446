"""In-memory spans recorded around calls into the program's layers.

The benchmark wraps the public functions of each layer at the name its
callers look up (for example ``repro.core.mrp.greedy_weighted_set_cover``),
records one span per call in memory, and writes the spans out once the
traced run ends.  Nothing inside ``src/`` is modified.

A span's *self time* is its duration minus the part covered by its child
spans.  :func:`attribute` splits the traced wall time between layers so
that the per-layer self times plus the unattributed remainder add up to the
wall time exactly, also when spans of several threads overlap.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One recorded call: which layer, when, and which span caused it."""

    id: int
    parent: Optional[int]
    layer: str
    start: float
    end: float
    thread: int
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerMissing(RuntimeError):
    """A wrapper target no longer exists under the name callers look up."""


class Recorder:
    """Collects spans from every thread; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer`` and return its result."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    span_id, parent, layer, start, end,
                    threading.get_ident(), error,
                ))

    def wrap(
        self,
        target: object,
        name: str,
        layer: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``target.name`` by a span-recording wrapper.

        ``on_result(args, kwargs, result)`` runs after the span closes, so
        checks it performs are not charged to the layer.  Raises
        :class:`LayerMissing` when the name does not exist, so a refactor
        that moves a function fails the traced run instead of silently
        recording nothing.
        """
        original = getattr(target, name, None)
        if original is None:
            raise LayerMissing(f"{getattr(target, '__name__', target)}.{name}")
        recorder = self

        def wrapper(*args, **kwargs):
            result = recorder.call(layer, original, *args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(target, name, wrapper)
        self._patches.append((target, name, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "layer": sp.layer,
                    "start_s": sp.start - origin, "end_s": sp.end - origin,
                    "thread": sp.thread, "error": sp.error,
                }) + "\n")


def _subtract(
    interval: Tuple[float, float], holes: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """``interval`` minus the union of ``holes``, as disjoint pieces."""
    start, end = interval
    pieces = []
    cursor = start
    for h_start, h_end in sorted(holes):
        h_start, h_end = max(h_start, start), min(h_end, end)
        if h_end <= cursor:
            continue
        if h_start > cursor:
            pieces.append((cursor, h_start))
        cursor = max(cursor, h_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_intervals(spans: Sequence[Span]) -> Dict[int, List[Tuple[float, float]]]:
    """Each span's interval minus the intervals of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {
        sp.id: _subtract((sp.start, sp.end), children.get(sp.id, ()))
        for sp in spans
    }


def attribute(
    spans: Sequence[Span], wall_start: float, wall_end: float
) -> Tuple[Dict[str, float], float]:
    """Split ``[wall_start, wall_end]`` between layers by self time.

    Every instant covered by at least one span's self interval is shared
    equally among the spans active at that instant (one span when the run
    is single-threaded, so this is the plain self time).  Returns
    ``(self_s per layer, unattributed_s)``; the values add up to the wall
    time by construction.
    """
    layer_of = {sp.id: sp.layer for sp in spans}
    events: List[Tuple[float, int, int]] = []
    for span_id, pieces in self_intervals(spans).items():
        for start, end in pieces:
            start, end = max(start, wall_start), min(end, wall_end)
            if end > start:
                events.append((start, 1, span_id))
                events.append((end, -1, span_id))
    events.sort(key=lambda e: (e[0], e[1]))
    self_s: Dict[str, float] = defaultdict(float)
    active: Dict[int, None] = {}
    covered = 0.0
    previous = wall_start
    for moment, kind, span_id in events:
        if active and moment > previous:
            share = (moment - previous) / len(active)
            covered += moment - previous
            for active_id in active:
                self_s[layer_of[active_id]] += share
        previous = moment
        if kind == 1:
            active[span_id] = None
        else:
            active.pop(span_id, None)
    wall = wall_end - wall_start
    return dict(self_s), wall - covered


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, busy seconds and calls that raised.

    Busy time counts a span only when no ancestor belongs to the same
    layer, so a recursive layer is not counted twice.
    """
    by_id = {sp.id: sp for sp in spans}
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "errors": 0}
    )
    for sp in spans:
        entry = totals[sp.layer]
        entry["calls"] += 1
        if sp.error is not None:
            entry["errors"] += 1
        ancestor = by_id.get(sp.parent) if sp.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.layer == sp.layer:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent else None
        if not nested:
            entry["busy_s"] += sp.duration
    return dict(totals)
