"""Read, validate, and analyze JSONL traces.

Consumed by the ``stats``/``timeline``/``critical-path``/``export-chrome``
CLI subcommands and by ``scripts/check_trace.py`` (the CI schema gate).
Kept dependency-free and read-only: everything operates on the list of
plain-dict records :func:`load_trace` returns.

Multi-process traces: JSONL concatenates, so the files written by a
client, several server incarnations, and their pool workers merge with
``load_traces`` (or plain ``cat``) into one record list.  ``(pid, id)``
keys spans, in-process edges use ``parent``, and cross-process edges use
a root span's ``link`` (``[pid, id]`` of the remote parent) — together
they reconstruct one forest per ``trace`` id, which the timeline and
critical-path analyses below walk.

Open-ended spans: a ``start`` record announces a span that was still open
when its process flushed.  It resolves parent and link references like a
finished span; when no ``span`` record with the same ``(pid, id)``
follows (the process died first), the timeline, critical path and Chrome
export show the span as open-ended, and the per-phase stats, which need a
duration, leave it out.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import TRACE_FORMAT_VERSION

__all__ = [
    "PhaseStats",
    "build_timeline",
    "critical_path",
    "filter_trace",
    "format_breakdown",
    "format_critical_path",
    "format_timeline",
    "job_trace_continuity",
    "load_trace",
    "load_traces",
    "phase_breakdown",
    "to_chrome_trace",
    "trace_id_for_job",
    "validate_trace",
]

_REQUIRED_FIELDS = {
    "span": ("name", "id", "pid", "wall_s", "cpu_s", "status", "tags"),
    "start": ("name", "id", "pid", "tags"),
    "event": ("name", "pid", "tags"),
}


def load_trace(
    path: os.PathLike, allow_torn_tail: bool = False
) -> List[Dict[str, Any]]:
    """Parse a JSONL trace into its records.

    Raises ``ValueError`` on an unparseable line — a trace that cannot be
    read end-to-end should fail loudly, not be half-summarized.  The one
    expected exception is a torn *final* line from a SIGKILL'd process:
    with ``allow_torn_tail=True`` exactly one unparseable line is
    tolerated, and only if nothing follows it — a second bad line, or a
    bad line with good records after it, is corruption either way and
    still raises.  The CI gate's default mode stays strict.
    """
    records: List[Dict[str, Any]] = []
    pending_error: Optional[ValueError] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if pending_error is not None:
                raise pending_error  # the torn line was not the last line
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                error = ValueError(f"{path}:{lineno}: unparseable line: {exc}")
                if not allow_torn_tail:
                    raise error
                pending_error = error
                continue
            records.append(record)
    return records


def load_traces(
    paths: Iterable[os.PathLike], allow_torn_tail: bool = False
) -> List[Dict[str, Any]]:
    """Concatenate several trace files into one record list.

    ``allow_torn_tail`` applies per file: each killed process may have
    torn its own final line.
    """
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(load_trace(path, allow_torn_tail=allow_torn_tail))
    return records


def validate_trace(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema-check a trace; returns a list of problems (empty when valid).

    Checks: every record is a span, start or event of the current format
    version with its required fields, ``(pid, id)`` is unique across spans
    (and across starts), durations are non-negative, every parent
    reference points at a span that exists (or was announced open) in the
    same process, and the optional ``trace``/``link``
    context fields are well-formed.  A ``link`` must resolve only when
    its target pid has spans in this record set at all — a single-process
    file legitimately links into a process whose file was not merged in
    (or that died before closing the span).
    """
    problems: List[str] = []
    seen: Dict[str, set] = {"span": set(), "start": set()}
    for i, record in enumerate(records):
        kind = record.get("kind")
        if kind not in _REQUIRED_FIELDS:
            problems.append(f"record {i}: unknown kind {kind!r}")
            continue
        if record.get("v") != TRACE_FORMAT_VERSION:
            problems.append(
                f"record {i}: format version {record.get('v')!r} != "
                f"{TRACE_FORMAT_VERSION}"
            )
        missing = [f for f in _REQUIRED_FIELDS[kind] if f not in record]
        if missing:
            problems.append(f"record {i}: missing fields {missing}")
            continue
        if "trace" in record and not (
            record["trace"] is None or isinstance(record["trace"], str)
        ):
            problems.append(f"record {i}: trace id is not a string")
        if kind in seen:
            key = (record["pid"], record["id"])
            if key in seen[kind]:
                problems.append(f"record {i}: duplicate {kind} id {key}")
            seen[kind].add(key)
            if kind == "span":
                if record["wall_s"] < 0 or record["cpu_s"] < 0:
                    problems.append(f"record {i}: negative duration")
                if record["status"] not in ("ok", "error"):
                    problems.append(
                        f"record {i}: bad status {record['status']!r}"
                    )
            if not isinstance(record["tags"], dict):
                problems.append(f"record {i}: tags is not an object")
            link = record.get("link")
            if link is not None:
                if (
                    not isinstance(link, (list, tuple))
                    or len(link) != 2
                    or not all(isinstance(x, int) for x in link)
                ):
                    problems.append(f"record {i}: malformed link {link!r}")
                elif record.get("parent") is not None:
                    problems.append(
                        f"record {i}: link on a non-root span (parent "
                        f"{record['parent']})"
                    )
    # Parent resolution is a second pass: children are emitted before their
    # parents (exit order), so the referenced span may appear later.
    span_ids = seen["span"] | seen["start"]
    span_pids = {pid for pid, _ in span_ids}
    for i, record in enumerate(records):
        if record.get("kind") not in _REQUIRED_FIELDS:
            continue
        parent = record.get("parent")
        if parent is not None:
            if (record.get("pid"), parent) not in span_ids:
                problems.append(
                    f"record {i}: parent {parent} not found in pid "
                    f"{record.get('pid')}"
                )
        link = record.get("link")
        if (
            isinstance(link, (list, tuple))
            and len(link) == 2
            and all(isinstance(x, int) for x in link)
            and link[0] in span_pids
            and (link[0], link[1]) not in span_ids
        ):
            problems.append(
                f"record {i}: link {tuple(link)} not found although pid "
                f"{link[0]} is present"
            )
    return problems


class PhaseStats:
    """Aggregate of every span sharing one name."""

    __slots__ = ("name", "count", "errors", "wall_s", "self_s", "cpu_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.errors = 0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.cpu_s = 0.0
        self.max_s = 0.0

    @property
    def mean_s(self) -> float:
        return self.wall_s / self.count if self.count else 0.0


def phase_breakdown(
    records: Sequence[Dict[str, Any]],
) -> List[PhaseStats]:
    """Per-phase totals, sorted by *self* time (wall minus child wall) desc.

    Self time is what makes the table additive: nested spans double-count
    wall time, but each second of execution belongs to exactly one phase's
    self time, so the ``self_s`` column sums to the traced total.
    """
    spans = [r for r in records if r.get("kind") == "span"]
    child_wall: Dict[Tuple[Any, Any], float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            key = (record["pid"], parent)
            child_wall[key] = child_wall.get(key, 0.0) + record["wall_s"]
    phases: Dict[str, PhaseStats] = {}
    for record in spans:
        stats = phases.get(record["name"])
        if stats is None:
            stats = phases[record["name"]] = PhaseStats(record["name"])
        wall = record["wall_s"]
        stats.count += 1
        stats.wall_s += wall
        stats.cpu_s += record["cpu_s"]
        stats.max_s = max(stats.max_s, wall)
        stats.self_s += max(
            0.0, wall - child_wall.get((record["pid"], record["id"]), 0.0)
        )
        if record.get("status") == "error":
            stats.errors += 1
    return sorted(
        phases.values(), key=lambda s: (-s.self_s, -s.wall_s, s.name)
    )


def format_breakdown(phases: Sequence[PhaseStats]) -> str:
    """Render the per-phase breakdown as an aligned text table."""
    total_self = sum(p.self_s for p in phases) or 1.0
    header = (
        f"{'phase':<22} {'count':>7} {'errors':>6} {'wall_s':>10} "
        f"{'self_s':>10} {'cpu_s':>10} {'mean_s':>10} {'max_s':>10} {'self%':>6}"
    )
    lines = [header, "-" * len(header)]
    for p in phases:
        lines.append(
            f"{p.name:<22} {p.count:>7} {p.errors:>6} {p.wall_s:>10.4f} "
            f"{p.self_s:>10.4f} {p.cpu_s:>10.4f} {p.mean_s:>10.4f} "
            f"{p.max_s:>10.4f} {100.0 * p.self_s / total_self:>5.1f}%"
        )
    if not phases:
        lines.append("(no spans)")
    return "\n".join(lines)


# -- per-job trace selection ---------------------------------------------------


def trace_id_for_job(
    records: Sequence[Dict[str, Any]], job_id: str
) -> Optional[str]:
    """The trace id of ``job_id``'s ``service.job`` span, if recorded."""
    for record in records:
        if (
            record.get("kind") == "span"
            and record.get("name") == "service.job"
            and record.get("tags", {}).get("job_id") == job_id
            and record.get("trace")
        ):
            return record["trace"]
    return None


def filter_trace(
    records: Sequence[Dict[str, Any]], trace_id: str
) -> List[Dict[str, Any]]:
    """Only the records stamped with ``trace_id``."""
    return [r for r in records if r.get("trace") == trace_id]


def job_trace_continuity(
    records: Sequence[Dict[str, Any]],
    job_id: str,
    require: Sequence[str] = (
        "client.request", "service.request", "service.job", "sweep.task",
    ),
) -> List[str]:
    """Certify that one logical job left a single connected trace.

    Returns problems (empty when the story holds): the job's
    ``service.job`` spans all carry one trace id, every required span
    name appears inside that trace, ``(pid, id)`` stays unique after the
    multi-process merge, and every parent/link edge resolves — to a
    finished span or one a killed process announced open (links under
    the same soft rule as :func:`validate_trace` — a link into a process
    with no spans at all means that file was not merged, not that the
    trace is broken).
    """
    problems: List[str] = []
    job_spans = [
        r for r in records
        if r.get("kind") == "span"
        and r.get("name") == "service.job"
        and r.get("tags", {}).get("job_id") == job_id
    ]
    if not job_spans:
        return [f"no service.job span tagged job_id={job_id!r}"]
    trace_ids = {r.get("trace") for r in job_spans} - {None}
    if not trace_ids:
        return [f"service.job spans for {job_id!r} carry no trace id"]
    if len(trace_ids) > 1:
        problems.append(
            f"job {job_id!r} spans multiple trace ids: {sorted(trace_ids)}"
        )
    trace_id = sorted(trace_ids)[0]
    trace = filter_trace(records, trace_id)
    seen: Dict[str, set] = {"span": set(), "start": set()}
    for record in trace:
        kind = record.get("kind")
        if kind not in seen:
            continue
        key = (record["pid"], record["id"])
        if key in seen[kind]:
            problems.append(f"duplicate {kind} id {key} in trace {trace_id}")
        seen[kind].add(key)
    span_keys = seen["span"] | seen["start"]
    span_pids = {pid for pid, _ in span_keys}
    names = {r["name"] for r in trace if r.get("kind") == "span"}
    for needed in require:
        if needed not in names:
            problems.append(
                f"trace {trace_id} is missing a {needed!r} span"
            )
    for record in trace:
        if record.get("kind") not in seen:
            continue
        parent = record.get("parent")
        if parent is not None and (record["pid"], parent) not in span_keys:
            problems.append(
                f"span ({record['pid']}, {record['id']}): parent {parent} "
                f"unresolved in trace {trace_id}"
            )
        link = record.get("link")
        if (
            isinstance(link, (list, tuple))
            and len(link) == 2
            and link[0] in span_pids
            and tuple(link) not in span_keys
        ):
            problems.append(
                f"span ({record['pid']}, {record['id']}): link "
                f"{tuple(link)} unresolved in trace {trace_id}"
            )
    return problems


# -- forest reconstruction -----------------------------------------------------


class _Node:
    """One span in the reconstructed cross-process forest.

    ``open`` marks a span known only from its ``start`` record; its ``end``
    is stretched to cover everything recorded under it.
    """

    __slots__ = ("rec", "children", "start", "end", "open")

    def __init__(self, rec: Dict[str, Any]) -> None:
        self.rec = rec
        self.children: List["_Node"] = []
        self.start = float(rec.get("t", 0.0))
        self.end = self.start + float(rec.get("wall_s", 0.0))
        self.open = rec.get("kind") == "start"


def _parent_key(rec: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    """The (pid, id) this span hangs from: in-process parent, else link."""
    parent = rec.get("parent")
    if parent is not None:
        return (rec["pid"], parent)
    link = rec.get("link")
    if isinstance(link, (list, tuple)) and len(link) == 2:
        return (link[0], link[1])
    return None


def _build_forest(
    records: Sequence[Dict[str, Any]],
) -> Tuple[Dict[Tuple[int, int], _Node], List[_Node]]:
    """Index spans by (pid, id) and wire parent/link edges into trees.

    A ``start`` record stands in for a span whose ``span`` record never
    came.  A span whose parent key is absent (file not merged, or the
    parent died before announcing itself) becomes a root — analysis
    degrades to a forest rather than failing.
    """
    nodes: Dict[Tuple[int, int], _Node] = {}
    for kind in ("span", "start"):
        for rec in records:
            if rec.get("kind") != kind:
                continue
            key = (rec["pid"], rec["id"])
            if key not in nodes:  # first writer wins on (illegal) duplicates
                nodes[key] = _Node(rec)
    roots: List[_Node] = []
    for key, node in nodes.items():
        pkey = _parent_key(node.rec)
        parent = nodes.get(pkey) if pkey is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.rec["pid"], n.rec["id"]))
    roots.sort(key=lambda n: (n.start, n.rec["pid"], n.rec["id"]))

    def stretch(node: _Node) -> None:
        for child in node.children:
            stretch(child)
        if node.open:
            node.end = max([node.end] + [c.end for c in node.children])

    for root in roots:
        stretch(root)
    return nodes, roots


# -- timeline ------------------------------------------------------------------


def build_timeline(
    records: Sequence[Dict[str, Any]],
    trace_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Flatten the (optionally trace-filtered) span forest to drawable rows.

    Rows come out in depth-first chronological order with ``depth``,
    ``offset_s`` (from the earliest span's start), ``wall_s``, and
    identity fields — the CLI renderer and tests both consume this rather
    than re-walking the forest.
    """
    if trace_id is not None:
        records = filter_trace(records, trace_id)
    _, roots = _build_forest(records)
    if not roots:
        return []
    t0 = min(node.start for node in roots)
    rows: List[Dict[str, Any]] = []

    def visit(node: _Node, depth: int) -> None:
        rec = node.rec
        rows.append({
            "depth": depth,
            "name": rec["name"],
            "pid": rec["pid"],
            "id": rec["id"],
            "offset_s": node.start - t0,
            "wall_s": float(rec.get("wall_s", node.end - node.start)),
            "status": "open" if node.open else rec.get("status", "ok"),
            "trace": rec.get("trace"),
            "tags": rec.get("tags", {}),
        })
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return rows


def format_timeline(rows: Sequence[Dict[str, Any]], width: int = 32) -> str:
    """Render timeline rows as an indented table with an ASCII gantt lane.

    The mark after the lane is ``!`` for a span that failed and ``>`` for
    one still open when its process stopped writing.
    """
    if not rows:
        return "(no spans)"
    window = max(r["offset_s"] + r["wall_s"] for r in rows) or 1.0
    label_w = max(
        24, min(48, max(2 * r["depth"] + len(r["name"]) for r in rows) + 2)
    )
    header = (
        f"{'span':<{label_w}} {'pid':>7} {'offset_s':>10} {'wall_s':>10} "
        f"{'lane':<{width}}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        label = "  " * r["depth"] + r["name"]
        if len(label) > label_w:
            label = label[: label_w - 1] + "…"
        left = int(round(width * r["offset_s"] / window))
        span_w = int(round(width * r["wall_s"] / window))
        left = min(left, width - 1)
        span_w = max(1, min(span_w, width - left))
        lane = " " * left + "█" * span_w
        mark = {"error": "!", "open": ">"}.get(r["status"], " ")
        lines.append(
            f"{label:<{label_w}} {r['pid']:>7} {r['offset_s']:>10.4f} "
            f"{r['wall_s']:>10.4f} {lane:<{width}}{mark}"
        )
    return "\n".join(lines)


# -- critical path -------------------------------------------------------------


def critical_path(
    records: Sequence[Dict[str, Any]],
    root: Optional[Tuple[int, int]] = None,
) -> Dict[str, Any]:
    """Which span intervals actually bound the root's wall-clock time.

    Walks backwards from the root's end: at every instant the *youngest
    still-open descendant* owns the clock, so each segment names the span
    whose work (not its children's) covered that stretch.  The returned
    ``segments`` — chronological ``{name, pid, id, start_s, end_s}`` with
    offsets relative to the root's start — partition the root's window
    exactly: overlapped work (other pool workers running in parallel)
    contributes nothing, which is precisely the point.

    ``root`` selects a specific ``(pid, id)``; the default prefers the
    longest ``service.job`` span (the per-job story), falling back to the
    longest root in the forest.  Returns ``{"root": record, "segments":
    [...], "phases": {name: seconds}}``; empty segments when no spans.
    """
    nodes, roots = _build_forest(records)
    root_node: Optional[_Node] = None
    if root is not None:
        root_node = nodes.get(tuple(root))
        if root_node is None:
            raise ValueError(f"no span with (pid, id) == {tuple(root)}")
    else:
        jobs = [
            n for n in nodes.values() if n.rec["name"] == "service.job"
        ]
        pool = jobs or roots
        if pool:
            root_node = max(pool, key=lambda n: n.end - n.start)
    if root_node is None:
        return {"root": None, "segments": [], "phases": {}}

    t0 = root_node.start
    segments: List[Dict[str, Any]] = []

    def emit(node: _Node, start: float, end: float) -> None:
        segments.append({
            "name": node.rec["name"],
            "pid": node.rec["pid"],
            "id": node.rec["id"],
            "start_s": start - t0,
            "end_s": end - t0,
        })

    def walk(node: _Node, cursor: float) -> None:
        # Backward sweep: children sorted by end desc; the gap between a
        # child's (clamped) end and the cursor is the parent's own time.
        for child in sorted(node.children, key=lambda n: -n.end):
            c_end = min(child.end, cursor)
            c_start = max(child.start, node.start)
            if c_end <= c_start:
                continue  # fully shadowed by a later sibling
            if cursor > c_end:
                emit(node, c_end, cursor)
            walk(child, c_end)
            cursor = c_start
        if cursor > node.start:
            emit(node, node.start, cursor)

    walk(root_node, root_node.end)
    segments.reverse()
    phases: Dict[str, float] = {}
    for seg in segments:
        phases[seg["name"]] = (
            phases.get(seg["name"], 0.0) + seg["end_s"] - seg["start_s"]
        )
    return {"root": dict(root_node.rec), "segments": segments, "phases": phases}


def format_critical_path(result: Dict[str, Any]) -> str:
    """Render a :func:`critical_path` result as text."""
    root = result["root"]
    segments = result["segments"]
    if root is None or not segments:
        return "(no spans)"
    total = segments[-1]["end_s"] - segments[0]["start_s"]
    lines = [
        f"critical path of {root['name']} "
        f"(pid {root['pid']}, id {root['id']}, "
        f"{root.get('wall_s', 0.0):.4f}s wall)",
        "",
        f"{'start_s':>10} {'end_s':>10} {'dur_s':>10}  segment",
        "-" * 56,
    ]
    for seg in segments:
        dur = seg["end_s"] - seg["start_s"]
        lines.append(
            f"{seg['start_s']:>10.4f} {seg['end_s']:>10.4f} {dur:>10.4f}  "
            f"{seg['name']} (pid {seg['pid']}, id {seg['id']})"
        )
    lines.append("")
    lines.append(f"{'phase':<28} {'critical_s':>11} {'share':>7}")
    lines.append("-" * 48)
    denom = total or 1.0
    for name, secs in sorted(
        result["phases"].items(), key=lambda kv: -kv[1]
    ):
        lines.append(
            f"{name:<28} {secs:>11.4f} {100.0 * secs / denom:>6.1f}%"
        )
    return "\n".join(lines)


# -- Chrome trace export -------------------------------------------------------


def to_chrome_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert records to the Chrome/Perfetto trace-event JSON object.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps relative to the earliest record, grouped per source pid;
    an open-ended span (a ``start`` with no ``span``) becomes a begin
    event with no end, which viewers draw to the end of the trace; point
    events become instants.  Identity (trace id, span/parent ids,
    link) rides along in ``args`` so the original graph stays recoverable
    inside the viewer.
    """
    timed = [r for r in records if isinstance(r.get("t"), (int, float))]
    t0 = min((r["t"] for r in timed), default=0.0)
    finished = {
        (r.get("pid"), r.get("id")) for r in records if r.get("kind") == "span"
    }
    out: List[Dict[str, Any]] = []
    for rec in records:
        kind = rec.get("kind")
        ts = (float(rec.get("t", t0)) - t0) * 1e6
        if kind == "start" and (rec.get("pid"), rec.get("id")) in finished:
            continue
        if kind in ("span", "start"):
            args: Dict[str, Any] = {
                "id": rec.get("id"),
                "parent": rec.get("parent"),
                "trace": rec.get("trace"),
                "status": rec.get("status"),
            }
            if rec.get("link") is not None:
                args["link"] = list(rec["link"])
            args.update(rec.get("tags", {}) or {})
            event = {
                "name": rec.get("name", "?"),
                "cat": "span",
                "ph": "X",
                "pid": rec.get("pid", 0),
                "tid": rec.get("pid", 0),
                "ts": ts,
                "dur": max(0.0, float(rec.get("wall_s", 0.0))) * 1e6,
                "args": args,
            }
            if kind == "start":
                event["ph"] = "B"
                del event["dur"]
            out.append(event)
        elif kind == "event":
            out.append({
                "name": rec.get("name", "?"),
                "cat": "event",
                "ph": "i",
                "s": "t",
                "pid": rec.get("pid", 0),
                "tid": rec.get("pid", 0),
                "ts": ts,
                "args": dict(rec.get("tags", {}) or {}),
            })
    out.sort(key=lambda e: (e["ts"], e["pid"]))
    return {"traceEvents": out, "displayTimeUnit": "ms"}
