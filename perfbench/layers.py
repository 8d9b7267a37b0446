"""Which program names the traced run wraps, and what it derives from them.

Each wrapper is patched at the name its callers look up.  The traced run
keeps every netlist it sees (from ``lower_plan``, the two baselines and the
robust releases) and checks them against ``numpy.convolve`` after the
traced phase, so the checks are not charged to any layer.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from . import checks
from .spans import Recorder, attribute, layer_totals

#: Per-layer metrics: name -> unit.  Every traced run prints all of them;
#: a layer that does not run on a workload reads 0 there.
PER_LAYER: Dict[str, str] = {
    "graph.build.calls": "count",
    "graph.build.busy_s": "s",
    "graph.cover.calls": "count",
    "graph.cover.busy_s": "s",
    "graph.cover.distinct_ratio": "ratio",
    "graph.exact.calls": "count",
    "graph.exact.busy_s": "s",
    "graph.exact.exhausted": "count",
    "graph.forest.calls": "count",
    "graph.forest.busy_s": "s",
    "core.lower.calls": "count",
    "core.lower.busy_s": "s",
    "core.lower.kept_ratio": "ratio",
    "baselines.calls": "count",
    "baselines.busy_s": "s",
    "fastpath.msd.hits": "count",
    "fastpath.msd.misses": "count",
    "verify.calls": "count",
    "verify.busy_s": "s",
    "robust.attempts_per_design": "ratio",
    "robust.quarantined": "count",
    "robust.trivial_releases": "count",
    "robust.degraded_share": "ratio",
    "eval.cache.get_calls": "count",
    "eval.cache.get_s": "s",
    "eval.cache.put_calls": "count",
    "eval.cache.put_s": "s",
    "eval.cache.disk_hit_ratio": "ratio",
    "eval.cache.memory_hit_ratio": "ratio",
    "eval.cache.put_errors": "count",
    "eval.parallel.tasks_planned": "count",
    "eval.parallel.tasks_computed": "count",
    "eval.parallel.precompute_s": "s",
    "eval.parallel.replay_s": "s",
    "eval.parallel.pool_used": "count",
    "eval.parallel.worker_util": "ratio",
    "eval.wal.appends": "count",
    "eval.wal.append_s": "s",
    "eval.supervisor.calls": "count",
    "eval.supervisor.busy_s": "s",
    "eval.supervisor.retries": "count",
    "service.store.ops": "count",
    "service.store.busy_s": "s",
    "service.queue.wait_p50_s": "s",
    "service.run_p50_s": "s",
    "service.client.requests": "count",
    "service.client.retries": "count",
    "service.client.submit_s": "s",
    "service.client.fetch_s": "s",
    "service.client.notify_lag_s": "s",
    "service.client.read_p50_s": "s",
    "probe.all_form_failed": "count",
    "checks.netlists": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "unattributed_s": "s",
    "unattributed_share": "ratio",
}

#: Layers that must record calls in each workload's traced run.  A layer
#: reading zero calls fails the run: its wrapper is bound to a name the
#: callers no longer use.
EXPECTED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "paper_sweep": (
        "eval.parallel", "graph.build", "graph.cover", "graph.forest",
        "core.lower", "baselines", "eval.cache.get", "eval.cache.put",
    ),
    "robust_synth": (
        "robust", "graph.build", "graph.cover", "graph.exact",
        "graph.forest", "core.lower", "verify",
    ),
    "service_jobs": (
        "service.client", "service.client.request", "service.client.attempt",
        "service.store", "eval.wal", "eval.supervisor",
    ),
}


class LayerCoverageError(RuntimeError):
    """An expected layer recorded no calls in the traced run."""


class TraceState:
    """Spans plus the facts the wrappers collect for the checks."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        #: (netlist, tap names, requested taps) for every netlist seen.
        self.netlists: List[Tuple[object, Tuple[str, ...], Tuple[int, ...]]] = []
        #: ids of the architectures lowered since the last best_mrpf return
        #: (only netlists are kept, so the plans and graphs can be freed).
        self._lowered_ids = set()
        self.best_calls = 0
        self.kept = 0
        self.supervisor_retries = 0
        #: design key -> (cover calls, distinct covers)
        self._covers: Dict[tuple, Tuple[int, set]] = {}

    # -- hooks run after the wrapped call returns ----------------------------

    def on_lower(self, args, kwargs, architecture) -> None:
        self._lowered_ids.add(id(architecture))
        self.netlists.append((
            architecture.netlist, tuple(architecture.tap_names),
            tuple(architecture.plan.coefficients),
        ))

    def on_baseline(self, args, kwargs, architecture) -> None:
        taps = args[0] if args else kwargs["coefficients"]
        self.netlists.append((
            architecture.netlist, tuple(architecture.tap_names),
            tuple(int(t) for t in taps),
        ))

    def on_best(self, args, kwargs, architecture) -> None:
        self.best_calls += 1
        if id(architecture) in self._lowered_ids:
            self.kept += 1
        self._lowered_ids.clear()

    def on_release(self, netlist, tap_names, taps: Sequence[int]) -> None:
        """A robust release: checked against the caller's taps."""
        self.kept += 1
        self.netlists.append(
            (netlist, tuple(tap_names), tuple(int(t) for t in taps)))

    def on_supervised(self, args, kwargs, report) -> None:
        self.supervisor_retries += report.retries

    def on_cover(self, args, kwargs, cover) -> None:
        universe, sets, costs = args[:3]
        key = (tuple(sorted(universe)), len(sets), round(sum(costs.values()), 6))
        calls, distinct = self._covers.get(key, (0, set()))
        distinct.add(tuple(sorted(cover.colors, key=repr)))
        self._covers[key] = (calls + 1, distinct)

    @property
    def distinct_ratio(self) -> float:
        calls = sum(c for c, _ in self._covers.values())
        distinct = sum(len(d) for _, d in self._covers.values())
        return distinct / calls if calls else 0.0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer at the names its callers look up."""
        import repro.core.mrp as mrp
        import repro.eval.cache as cache
        import repro.eval.experiments as experiments
        import repro.eval.wal as wal
        import repro.robust.degrade as degrade
        import repro.service.app as app
        import repro.service.client as client
        import repro.service.store as store
        import repro.verify as verify

        wrap = self.recorder.wrap
        wrap(mrp, "build_colored_graph", "graph.build")
        wrap(experiments, "build_colored_graph", "graph.build")
        wrap(mrp, "greedy_weighted_set_cover", "graph.cover",
             on_result=self.on_cover)
        wrap(degrade, "exact_weighted_set_cover", "graph.exact")
        wrap(mrp, "build_spanning_forest", "graph.forest")
        wrap(experiments, "optimize", "core.optimize")
        wrap(degrade, "optimize", "core.optimize")
        wrap(experiments, "lower_plan", "core.lower", on_result=self.on_lower)
        wrap(degrade, "lower_plan", "core.lower", on_result=self.on_lower)
        wrap(experiments, "best_mrpf", "eval.best_mrpf",
             on_result=self.on_best)
        wrap(experiments, "synthesize_simple", "baselines",
             on_result=self.on_baseline)
        wrap(experiments, "synthesize_cse_filter", "baselines",
             on_result=self.on_baseline)
        wrap(verify, "release_audit", "verify")
        wrap(degrade, "verify_against_convolution", "verify")
        wrap(cache.DiskCache, "get", "eval.cache.get")
        wrap(cache.DiskCache, "put", "eval.cache.put")
        wrap(wal.ChecksumLog, "append", "eval.wal")
        wrap(app, "run_sweep_supervised", "eval.supervisor",
             on_result=self.on_supervised)
        for method in ("submit", "transition", "write_result", "get"):
            wrap(store.JobStore, method, "service.store")
        # A logical request and each of its HTTP attempts (retries included).
        wrap(client.ServiceClient, "_request", "service.client.request")
        wrap(client.ServiceClient, "_attempt", "service.client.attempt")

    def uninstall(self) -> None:
        self.recorder.unwrap_all()

    # -- results ----------------------------------------------------------------

    def check_netlists(self, seed: int, mismatches: List[str]) -> int:
        """Check every netlist seen against numpy.convolve; returns count.

        Each netlist that does not match is appended to ``mismatches``.
        """
        x = checks.input_stream(seed)
        for netlist, names, taps in self.netlists:
            try:
                checks.check_netlist(netlist, names, taps, x)
            except checks.OutputMismatch as exc:
                mismatches.append(f"traced netlist for taps {taps}: {exc}")
        return len(self.netlists)

    def layer_metrics(
        self, workload: str, wall_start: float, wall_end: float
    ) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """Span-derived per-layer metrics, self times, unattributed time.

        Raises :class:`LayerCoverageError` when an expected layer of
        ``workload`` recorded no calls.
        """
        spans = self.recorder.spans
        totals = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "errors": 0},
            layer_totals(spans),
        )
        missing = [
            layer for layer in EXPECTED_LAYERS[workload]
            if totals[layer]["calls"] == 0
        ]
        if missing:
            raise LayerCoverageError(
                f"{workload}: no calls recorded for {', '.join(missing)}"
            )
        self_s, unattributed = attribute(spans, wall_start, wall_end)
        wall = wall_end - wall_start
        lower_calls = totals["core.lower"]["calls"]
        attempts = totals["service.client.attempt"]["calls"]
        metrics = {
            "graph.build.calls": totals["graph.build"]["calls"],
            "graph.build.busy_s": totals["graph.build"]["busy_s"],
            "graph.cover.calls": totals["graph.cover"]["calls"],
            "graph.cover.busy_s": totals["graph.cover"]["busy_s"],
            "graph.cover.distinct_ratio": self.distinct_ratio,
            "graph.exact.calls": totals["graph.exact"]["calls"],
            "graph.exact.busy_s": totals["graph.exact"]["busy_s"],
            "graph.exact.exhausted": totals["graph.exact"]["errors"],
            "graph.forest.calls": totals["graph.forest"]["calls"],
            "graph.forest.busy_s": totals["graph.forest"]["busy_s"],
            "core.lower.calls": lower_calls,
            "core.lower.busy_s": totals["core.lower"]["busy_s"],
            "core.lower.kept_ratio": (
                self.kept / lower_calls if lower_calls else 0.0
            ),
            "baselines.calls": totals["baselines"]["calls"],
            "baselines.busy_s": totals["baselines"]["busy_s"],
            "verify.calls": totals["verify"]["calls"],
            "verify.busy_s": totals["verify"]["busy_s"],
            "eval.cache.get_calls": totals["eval.cache.get"]["calls"],
            "eval.cache.get_s": totals["eval.cache.get"]["busy_s"],
            "eval.cache.put_calls": totals["eval.cache.put"]["calls"],
            "eval.cache.put_s": totals["eval.cache.put"]["busy_s"],
            "eval.wal.appends": totals["eval.wal"]["calls"],
            "eval.wal.append_s": totals["eval.wal"]["busy_s"],
            "eval.supervisor.calls": totals["eval.supervisor"]["calls"],
            "eval.supervisor.busy_s": totals["eval.supervisor"]["busy_s"],
            "eval.supervisor.retries": self.supervisor_retries,
            "service.store.ops": totals["service.store"]["calls"],
            "service.store.busy_s": totals["service.store"]["busy_s"],
            "service.client.requests": attempts,
            "service.client.retries": (
                attempts - totals["service.client.request"]["calls"]
            ),
            "trace.wall_s": wall,
            "unattributed_s": unattributed,
            "unattributed_share": unattributed / wall if wall > 0 else 0.0,
        }
        return metrics, self_s, unattributed


def reconciliation_lines(self_s: Dict[str, float], unattributed: float,
                         wall: float) -> List[str]:
    """Human-readable table: layer self times + unattributed = wall."""
    lines = [f"{'layer':<24} {'self_s':>10} {'share':>7}"]
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<24} {seconds:10.4f} {seconds / wall:7.1%}")
    lines.append(f"{'(unattributed)':<24} {unattributed:10.4f} "
                 f"{unattributed / wall:7.1%}")
    total = sum(self_s.values()) + unattributed
    lines.append(f"{'sum':<24} {total:10.4f}  wall {wall:.4f}")
    return lines
