"""The three workloads; each runs in a fresh interpreter started by run.py.

run.py starts it from the repository root, with ``src`` and the root on the
path, while a ``stats.HostMonitor`` writes the samples file it names::

    python3 -m perfbench.workloads --workload robust_synth --seed 1 \\
        --seconds 10 --trace 0 --workdir perfbench/work/run \\
        --host-log perfbench/work/run/host-speed.log

The process prints :data:`READY` once it could issue its first operation,
human-readable lines as it goes, and one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import checks, draws
from .layers import PER_LAYER, TraceState, reconciliation_lines
from .stats import (HostLog, calibrated, median, quiet_rounds, steal_share,
                    steal_ticks, tail)

READY = "PERFBENCH-READY"

#: Warm sweep passes made even when the time window is already used up.
MIN_WARM_PASSES = 5
#: Warm passes of the traced sweep (they exercise the cache gets).
TRACED_WARM_PASSES = 2
#: Overall client budget of one service operation.
OP_BUDGET_S = 60.0
#: Service rounds whose server starts on an empty disk cache: their warm-up
#: jobs are the cold samples.  Later rounds reuse the last cache they filled.
COLD_SERVICE_ROUNDS = 2
#: Most rounds whose new-job round trips give the timings: the least stolen
#: quiet ones (``stats.quiet_rounds``).
TIMED_SERVICE_ROUNDS = 3
#: A round is quiet when the hypervisor stole at most this share of the
#: machine's CPU time during its mix.
QUIET_STEAL = 0.01
#: No further round starts after this many seconds of rounds, quiet or not.
SERVICE_CAP_S = 50.0
#: Jobs that warm the service's disk cache before the request mix.
SERVICE_WARMUP = (
    {"experiments": ["summary"], "filters": list(draws.SERVICE_FILTERS),
     "wordlengths": list(draws.WORDLENGTHS)},
    {"experiments": ["table1"], "filters": list(draws.SERVICE_FILTERS)},
)
#: The design point of the robust-synthesis defect recorded at the seed.
DEFECT_POINT = (10, 16, "maximal")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    #: Samples of the run's host monitor, which scale timings of work spread
    #: over every vCPU (see ``stats.HostMonitor``); work in this thread is
    #: scaled with ``stats.calibrated``.
    host: HostLog
    jobs: int = field(default_factory=lambda: os.cpu_count() or 1)


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    mismatches: List[str]
    layer: Dict[str, float] = field(default_factory=dict)
    setup_samples: List[float] = field(default_factory=list)


def say(line: str) -> None:
    print(line, flush=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def as_measured(**values: float) -> None:
    """Print timings before they are scaled to the reference host speed."""
    say("as measured: " + ", ".join(
        f"{name} {value:.6f}" for name, value in values.items()))


def op_metrics(times: List[float], window_s: float, label: str) -> Dict[str, float]:
    value, percentile, n = tail(times)
    say(f"{label}: p50 {median(times):.6f} s, tail p{percentile:g} "
        f"{value:.6f} s (n={n})")
    return {
        "op_p50_s": median(times),
        "op_tail_s": value,
        "ops_per_s": len(times) / window_s,
    }


def settle_disk() -> None:
    """Untimed: write back every dirty page before a timed phase.

    The service fsyncs its journal and results; an fsync also waits for
    dirty data other writers left behind (earlier rounds, the warm-up's
    cache files), so without this a phase's round trips would pay for the
    write-back of the phase before it.
    """
    os.sync()


def settle_heap() -> None:
    """Untimed: collect garbage, then exempt every live object from collection.

    The benchmark keeps its imports and earlier results alive; without the
    freeze the collector's full passes over them would land in whichever
    timed operation happened to trigger one.
    """
    gc.collect()
    gc.freeze()


def fresh_memo_tables() -> None:
    """Drop the process-wide digit tables the synthesis code memoizes into.

    Both grow for the life of the process; a design point synthesized after
    many others runs measurably slower than in a fresh process, so without
    this the time per design point would depend on the seeded order.
    """
    from repro.fastpath import msdtables
    from repro.numrep import msd

    msdtables.clear_tables()
    msd.minimal_nonzero_count.cache_clear()


def fresh_program_state() -> None:
    """Drop the program's in-process caches so the next pass is cold."""
    from repro.eval import cache as disk_cache
    from repro.eval import experiments

    experiments.clear_cache()
    fresh_memo_tables()
    disk_cache.configure(None)


def msd_counts() -> Tuple[int, int]:
    from repro.fastpath import msdtables

    table = msdtables.table_stats()
    return table["hits"], table["misses"]


def finish_trace(ctx: Context, state: TraceState, start: float, end: float,
                 layer: Dict[str, float], mismatches: List[str]) -> None:
    """Coverage guard, reconciliation, netlist checks, span file."""
    metrics, self_s, unattributed = state.layer_metrics(ctx.workload, start, end)
    layer.update(metrics)
    wall = end - start
    for line in reconciliation_lines(self_s, unattributed, wall):
        say(f"  {line}")
    layer["checks.netlists"] = state.check_netlists(ctx.seed, mismatches)
    say(f"checked {layer['checks.netlists']:.0f} netlists against "
        "numpy.convolve")
    spans_path = ctx.workdir.parent / f"spans-{ctx.workload}-{ctx.seed}.jsonl"
    state.recorder.write(spans_path, start)
    say(f"spans written to {spans_path}")


# -- paper_sweep ----------------------------------------------------------------


def paper_sweep(ctx: Context) -> Outcome:
    from repro.eval import experiments, parallel, sweep_to_json
    from repro.eval.harness import EXPERIMENTS

    experiment_ids = sorted(EXPERIMENTS)
    filters = list(draws.sweep_filters(ctx.seed))
    widths = list(draws.WORDLENGTHS)
    say(f"draw: filters {filters} (unique taps "
        f"{[draws.UNIQUE_TAPS[i] for i in filters]}) at W={widths}")

    def sweep_pass(cache_dir, jobs, state=None):
        outcomes, reports = [], []
        for experiment_id in experiment_ids:
            def call(experiment_id=experiment_id):
                return parallel.run_sweep_parallel(
                    [experiment_id], jobs=jobs, cache_dir=cache_dir,
                    filter_indices=filters, wordlengths=widths,
                )
            report = (
                state.recorder.call("eval.parallel", call) if state else call()
            )
            reports.append(report)
            outcomes.extend(report.outcomes)
        failed = sum(not o.ok for o in outcomes)
        return sweep_to_json(outcomes), reports, failed

    mismatches: List[str] = []
    fresh_program_state()
    cache_dir = ctx.workdir / "cache"
    settle_disk()
    settle_heap()
    ticks = steal_ticks()
    start = time.perf_counter()
    cold_export, cold_reports, failed = sweep_pass(cache_dir, ctx.jobs)
    cold_s = time.perf_counter() - start
    say(f"cold pass: {steal_share(ticks, steal_ticks()):.2%} stolen")
    attempted = len(experiment_ids)
    quality = checks.SweepQuality()
    try:
        checks.check_sweep_export(cold_export, quality)
    except checks.OutputMismatch as exc:
        mismatches.append(f"cold export: {exc}")
    for report in cold_reports:
        say(f"cold {report.outcomes[0].experiment_id}: pool_used="
            f"{report.pool_used} fallback_reason={report.fallback_reason!r} "
            f"tasks={len(report.tasks)} precompute={report.precompute_s:.3f}s")

    all_form_failed = all_form_probe(ctx, cache_dir, filters, widths)

    warm: List[Tuple[float, float]] = []  # (seconds, host factor) per pass
    settle_disk()
    ticks = steal_ticks()
    warm_start = time.perf_counter()
    # Warm passes are short (tens of ms); they fill the whole window so their
    # median spans many swings of the host's speed.
    deadline = warm_start + ctx.seconds
    while len(warm) < MIN_WARM_PASSES or (
        not ctx.trace and time.perf_counter() < deadline
    ):
        experiments.clear_cache()  # memory layer only; the disk cache stays
        settle_heap()
        (export, _, warm_failed), _, seconds, factor = calibrated(
            lambda: sweep_pass(cache_dir, ctx.jobs))
        warm.append((seconds, factor))
        attempted += len(experiment_ids)
        failed += warm_failed
        if export != cold_export:
            mismatches.append(f"warm pass {len(warm)} export differs from cold")

    say(f"warm passes: {steal_share(ticks, steal_ticks()):.2%} stolen")
    raw_warm = [seconds for seconds, _ in warm]
    as_measured(cold_s=cold_s, op_p50_s=median(raw_warm),
                op_tail_s=tail(raw_warm)[0],
                ops_per_s=len(raw_warm) / sum(raw_warm))
    # The cold pass's pool runs on every vCPU, the warm passes in this thread.
    warm_s = [seconds / factor for seconds, factor in warm]
    metrics = {"setup_s": 0.0,
               "cold_s": ctx.host.refresh().scale(start, cold_s)}
    metrics.update(op_metrics(warm_s, sum(warm_s), "warm pass"))
    metrics.update(quality.metrics())
    say("paper means: reduction vs simple "
        f"{1 - metrics['adders_vs_simple']:.4f}, reduction vs CSE "
        f"{1 - metrics['adders_vs_cse']:.4f}")
    layer = parallel_layer(cold_reports)
    layer["probe.all_form_failed"] = float(all_form_failed)

    if ctx.trace:
        say("traced run: jobs=1 and fresh caches, so its shape differs from "
            "the untraced run (pool precompute); the wall-time difference is "
            "not tracing overhead")
        state = TraceState()
        state.install()
        try:
            fresh_program_state()
            hits0, misses0 = msd_counts()
            traced_cache = ctx.workdir / "cache-traced"
            t0 = time.perf_counter()
            export, reports, _ = sweep_pass(traced_cache, 1, state)
            passes = [reports]
            exports = [export]
            for _ in range(TRACED_WARM_PASSES):
                experiments.clear_cache()
                export, reports, _ = sweep_pass(traced_cache, 1, state)
                passes.append(reports)
                exports.append(export)
            t1 = time.perf_counter()
        finally:
            state.uninstall()
        hits1, misses1 = msd_counts()
        for index, export in enumerate(exports):
            if export != cold_export:
                mismatches.append(f"traced pass {index} export differs")
        layer["fastpath.msd.hits"] = hits1 - hits0
        layer["fastpath.msd.misses"] = misses1 - misses0
        layer.update(cache_ratios(passes))
        finish_trace(ctx, state, t0, t1, layer, mismatches)
    return Outcome(metrics, attempted, failed, mismatches, layer)


def all_form_probe(ctx, cache_dir, filters, widths) -> bool:
    """Run the CLI's ``all`` form for the same draw; True when it failed."""
    command = [
        sys.executable, "-m", "repro.eval", "all", "--jobs", str(ctx.jobs),
        "--cache-dir", str(cache_dir),
        "--filters", *map(str, filters), "--wordlengths", *map(str, widths),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=150,
    )
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    say(f"defect probe: `python -m repro.eval all --jobs {ctx.jobs} "
        f"--cache-dir D` exited {proc.returncode}"
        + (f": {last}" if proc.returncode else ""))
    return proc.returncode != 0


def parallel_layer(reports) -> Dict[str, float]:
    """eval.parallel metrics from the untraced cold pass's reports."""
    pooled = [r for r in reports if r.pool_used]
    layer = {
        "eval.parallel.tasks_planned": sum(r.tasks_planned for r in reports),
        "eval.parallel.tasks_computed": sum(len(r.tasks) for r in reports),
        "eval.parallel.precompute_s": sum(r.precompute_s for r in reports),
        "eval.parallel.replay_s": sum(r.replay_s for r in reports),
        "eval.parallel.pool_used": len(pooled),
        "eval.parallel.worker_util": 0.0,
    }
    if pooled:
        busy = sum(t.duration_s for r in pooled for t in r.tasks)
        capacity = sum(
            r.precompute_s * min(r.jobs, len(r.tasks)) for r in pooled
        )
        layer["eval.parallel.worker_util"] = busy / capacity
    else:
        say("worker_util not reported: the process pool never ran "
            f"({sorted({r.fallback_reason for r in reports})})")
    return layer


def cache_ratios(passes) -> Dict[str, float]:
    """Hit ratios of both cache layers over the traced sweep passes.

    Every ``run_sweep_parallel`` call installs a fresh ``DiskCache`` (its
    counters start at zero), while the memory counters run for a whole
    pass, so disk counts are summed per call and memory counts per pass.
    """
    disk_hits = disk_misses = put_errors = mem_hits = mem_misses = 0
    for reports in passes:
        for report in reports:
            disk = report.cache.get("disk", {})
            disk_hits += disk.get("hits", 0)
            disk_misses += disk.get("misses", 0)
            put_errors += disk.get("put_errors", 0)
        memory = reports[-1].cache["memory"]
        mem_hits += memory["hits"]
        mem_misses += memory["misses"]
    return {
        "eval.cache.disk_hit_ratio": _ratio(disk_hits, disk_misses),
        "eval.cache.memory_hit_ratio": _ratio(mem_hits, mem_misses),
        "eval.cache.put_errors": put_errors,
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# -- robust_synth -----------------------------------------------------------------


def robust_inputs(seed: int):
    """The seeded design points with their quantized integer taps."""
    from repro.filters import benchmark_filter
    from repro.quantize import ScalingScheme, quantize

    return [
        (f, w, s, tuple(quantize(
            benchmark_filter(f).folded, w, ScalingScheme(s)
        ).integers))
        for f, w, s in draws.robust_points(seed)
    ]


@dataclass(frozen=True)
class Release:
    """What the benchmark keeps of one robust_synthesize call.

    Only the netlist is kept, not the result: its plan holds the colored
    graph, and keeping 48 graphs alive would slow every later collection.
    """

    seconds: float
    #: Host slowness around the call (see ``stats.calibrated``).
    factor: float
    error: Optional[str] = None
    tier: str = ""
    attempts: int = 0
    quarantined: int = 0
    adders: int = 0
    elapsed_s: float = 0.0
    netlist: object = None
    tap_names: Tuple[str, ...] = ()
    #: MSD-table lookups of this call (the tables start empty per point).
    msd_hits: int = 0
    msd_misses: int = 0


def prepare_point() -> None:
    fresh_memo_tables()
    settle_heap()


def synthesize_point(taps, wordlength: int, state=None) -> Release:
    """One timed robust_synthesize call with the default RobustConfig."""
    import repro
    from repro.errors import DegradationError

    def call():
        try:
            if state is None:
                return repro.robust_synthesize(list(taps), wordlength)
            return state.recorder.call(
                "robust", repro.robust_synthesize, list(taps), wordlength,
            )
        except DegradationError as exc:
            return exc

    # Untimed: start every design point from the same state, as in a fresh
    # designer process, and collect the previous design's garbage so a full
    # collection does not land in this design's timing.
    if state is None:
        prepare_point()
        result, _, seconds, factor = calibrated(call)
    else:
        state.recorder.call("bench.untimed", prepare_point)
        result, _, seconds, factor = state.recorder.call(
            "bench.untimed", calibrated, call)
    if isinstance(result, DegradationError):
        return Release(seconds, factor, error=str(result))
    architecture = result.architecture
    hits, misses = msd_counts()
    return Release(
        seconds, factor, None, result.tier, result.num_attempts,
        len(result.quarantined), architecture.adder_count, result.elapsed_s,
        architecture.netlist, tuple(architecture.tap_names), hits, misses,
    )


def robust_synth(ctx: Context, points) -> Outcome:
    from repro.baselines import synthesize_cse_filter, synthesize_simple

    say(f"draw: {len(points)} design points over {len(draws.PAIRS)} "
        "tap-count pairs x W x scaling")
    # One pass over the draw; it takes longer than the benchmark's window.
    releases = [
        synthesize_point(taps, wordlength) for _, wordlength, _, taps in points
    ]
    times = [r.seconds / r.factor for r in releases]
    pass_s = sum(times)

    mismatches: List[str] = []
    failed = 0
    x = checks.input_stream(ctx.seed)
    released = simple = cse = 0
    for (f, w, s, taps), release in zip(points, releases):
        if release.error is not None:
            failed += 1
            say(f"failed: filter {f} W={w} {s}: {release.error}")
            continue
        try:
            checks.check_netlist(release.netlist, release.tap_names, taps, x)
        except checks.OutputMismatch as exc:
            mismatches.append(f"filter {f} W={w} {s}: {exc}")
        released += release.adders
        simple += synthesize_simple(taps).adder_count
        cse += synthesize_cse_filter(taps).adder_count

    raw = [r.seconds for r in releases]
    as_measured(cold_s=sum(raw), op_p50_s=median(raw), op_tail_s=tail(raw)[0],
                ops_per_s=len(raw) / sum(raw))
    metrics = {"setup_s": 0.0, "cold_s": pass_s}
    metrics.update(op_metrics(times, pass_s, "design point"))
    metrics.update({
        "adders_total": float(released),
        "adders_vs_simple": released / simple,
        "adders_vs_cse": released / cse,
    })
    layer = robust_layer(releases)
    trivial = [p[:3] for p, r in zip(points, releases) if r.tier == "trivial"]
    say(f"trivial releases: {len(trivial)} of {len(releases)} {trivial}")
    defect_probe(points, releases)

    if ctx.trace:
        state = TraceState()
        state.install()
        try:
            t0 = time.perf_counter()
            traced = [
                synthesize_point(taps, wordlength, state)
                for _, wordlength, _, taps in points
            ]
            t1 = time.perf_counter()
        finally:
            state.uninstall()
        for (_, _, _, taps), release in zip(points, traced):
            if release.error is None:
                state.on_release(release.netlist, release.tap_names, taps)
        traced_s = sum(r.seconds / r.factor for r in traced)
        layer.update(robust_layer(traced))
        layer["fastpath.msd.hits"] = sum(r.msd_hits for r in traced)
        layer["fastpath.msd.misses"] = sum(r.msd_misses for r in traced)
        # Both passes at the reference host speed, so drift between them
        # is not read as tracing overhead.
        ratio = traced_s / pass_s
        layer["trace.overhead_ratio"] = ratio
        say(f"tracing overhead: traced pass {traced_s:.4f} s vs untraced "
            f"{pass_s:.4f} s at the reference host speed; ratio {ratio:.4f} "
            "(same shape)")
        finish_trace(ctx, state, t0, t1, layer, mismatches)
    return Outcome(metrics, len(releases), failed, mismatches, layer)


def robust_layer(releases: List[Release]) -> Dict[str, float]:
    ok = [r for r in releases if r.error is None]
    trivial = sum(r.tier == "trivial" for r in ok)
    return {
        "robust.attempts_per_design": sum(r.attempts for r in ok) / len(ok),
        "robust.quarantined": sum(r.quarantined for r in ok),
        "robust.trivial_releases": trivial,
        "robust.degraded_share": trivial / len(releases),
    }


def defect_probe(points, releases: List[Release]) -> None:
    """Report the filter-10 W=16 maximal release next to best_mrpf."""
    from repro.eval import best_mrpf
    from repro.filters import benchmark_filter
    from repro.quantize import ScalingScheme, quantize

    f, w, s = DEFECT_POINT
    drawn = [r for p, r in zip(points, releases) if p[:3] == DEFECT_POINT]
    taps = quantize(benchmark_filter(f).folded, w, ScalingScheme(s)).integers
    if drawn:
        release, source = drawn[0], "in the draw"
    else:
        release, source = synthesize_point(taps, w), "probe"
    best = best_mrpf(list(taps), w).adder_count
    say(f"defect probe ({source}): robust_synthesize filter {f} W={w} {s} "
        f"released tier {release.tier} after {release.attempts} attempts "
        f"with {release.adders} adders in {release.elapsed_s:.2f} s; "
        f"best_mrpf finds {best} adders")


# -- service_jobs -----------------------------------------------------------------


@dataclass
class MixLog:
    """Everything the callers observed during one pass over the mix."""

    #: (start, seconds) of each new-job round trip and each read.
    new: List[Tuple[float, float]] = field(default_factory=list)
    reads: List[Tuple[float, float]] = field(default_factory=list)
    submits: List[float] = field(default_factory=list)
    fetches: List[float] = field(default_factory=list)
    notify_lags: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    runs: List[float] = field(default_factory=list)
    texts: Dict[int, set] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def run_mix(url: str, mix, specs, callers: int, state=None) -> Tuple[MixLog, float]:
    """Closed loop: ``callers`` threads each wait for their reply."""
    from repro.service.client import ServiceClient

    log = MixLog()
    lock = threading.Lock()
    cursor = iter(mix)

    def timed(bucket, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = (state.recorder.call("service.client", fn, *args, **kwargs)
               if state else fn(*args, **kwargs))
        bucket.append(time.perf_counter() - t0)
        return out

    def caller(index: int) -> None:
        client = ServiceClient(url)
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            kind, spec_index = item
            began = time.perf_counter()
            try:
                view = timed(log.submits if kind == "new" else [],
                             client.submit, specs[spec_index],
                             tenant=f"caller{index}", budget_s=OP_BUDGET_S)
                if view["state"] != "completed":
                    view = client.wait_for(view["job_id"], budget_s=OP_BUDGET_S)
                seen = time.time()
                if view["state"] != "completed":
                    raise RuntimeError(f"job ended {view['state']}: "
                                       f"{view.get('error')}")
                text = timed(log.fetches if kind == "new" else [],
                             client.result, view["job_id"],
                             budget_s=OP_BUDGET_S)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                with lock:
                    log.failures.append(f"{kind} spec {spec_index}: {exc!r}")
                continue
            elapsed = time.perf_counter() - began
            with lock:
                log.texts.setdefault(spec_index, set()).add(text)
                if kind == "new":
                    log.new.append((began, elapsed))
                    log.notify_lags.append(seen - view["finished_at"])
                    log.queue_waits.append(
                        view["started_at"] - view["submitted_at"])
                    log.runs.append(view["finished_at"] - view["started_at"])
                else:
                    log.reads.append((began, elapsed))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return log, time.perf_counter() - began


def warm_up(url: str) -> float:
    """Submit the warm-up jobs and wait for them; returns the wall time."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url)
    began = time.perf_counter()
    for spec in SERVICE_WARMUP:
        view = client.submit(spec, budget_s=300.0)
        view = client.wait_for(view["job_id"], budget_s=300.0)
        if view["state"] != "completed":
            raise RuntimeError(f"warm-up job ended {view['state']}: "
                               f"{view.get('error')}")
    return time.perf_counter() - began


class ServerProcess:
    """``python -m repro.eval serve`` on a fresh data dir."""

    def __init__(self, ctx: Context, data_dir: Path, cache_dir: Path) -> None:
        from repro.service.client import ServiceClient

        self.log_path = data_dir.with_suffix(".log")
        data_dir.parent.mkdir(parents=True, exist_ok=True)
        began = time.perf_counter()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval", "serve",
             "--jobs", str(ctx.jobs), "--port", "0",
             "--data-dir", str(data_dir), "--cache-dir", str(cache_dir)],
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.url = self._wait_for_url()
            client = ServiceClient(self.url)
            while not client.healthy():
                self._check_alive()
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.started = began
        self.setup_s = time.perf_counter() - began

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited {self.proc.returncode}: "
                f"{self.log_path.read_text()[-2000:]}")

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("[serving on "):
                    return line[len("[serving on "):].rstrip("]")
            self._check_alive()
            time.sleep(0.005)
        raise RuntimeError("server did not announce its address")

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def reference_exports(ctx: Context, specs, indices) -> Dict[int, str]:
    """In-process exports for the given specs, computed without the service."""
    from repro.eval import parallel, run_sweep, sweep_to_json

    fresh_program_state()
    for spec in SERVICE_WARMUP:
        parallel.run_sweep_parallel(
            spec["experiments"], jobs=ctx.jobs, replay=False,
            filter_indices=spec["filters"], wordlengths=spec.get("wordlengths"),
        )
    return {
        index: sweep_to_json(run_sweep(
            specs[index]["experiments"],
            filter_indices=specs[index]["filters"],
            wordlengths=specs[index]["wordlengths"],
        ))
        for index in indices
    }


def service_jobs(ctx: Context) -> Outcome:
    specs = draws.service_specs()
    mix = draws.service_mix(ctx.seed)
    say(f"mix: {len(specs)} distinct specs, {len(mix)} requests per round, "
        f"{ctx.jobs} closed-loop callers")
    settle_heap()
    logs: List[MixLog] = []
    # (start, seconds) of each server set-up, cold warm-up and pass over the
    # mix, and the share of CPU time stolen during each pass.
    setup: List[Tuple[float, float]] = []
    colds: List[Tuple[float, float]] = []
    loops: List[Tuple[float, float]] = []
    steals: List[float] = []

    def more_rounds() -> bool:
        spent = time.perf_counter() - started
        if (len(logs) < max(COLD_SERVICE_ROUNDS, TIMED_SERVICE_ROUNDS)
                or spent < ctx.seconds):
            return True
        quiet = sum(share <= QUIET_STEAL for share in steals)
        return quiet < TIMED_SERVICE_ROUNDS and spent < SERVICE_CAP_S

    started = time.perf_counter()
    while more_rounds():
        # Each round: a fresh server on a fresh data dir, the warm-up jobs,
        # then the mix against warm caches.
        cold = len(logs) < COLD_SERVICE_ROUNDS
        cache_dir = ctx.workdir / (
            f"service-cache-{min(len(logs), COLD_SERVICE_ROUNDS - 1)}")
        server = ServerProcess(ctx, ctx.workdir / f"service-{len(logs)}",
                               cache_dir)
        try:
            settle_disk()
            began = time.perf_counter()
            seconds = warm_up(server.url)
            if cold:
                colds.append((began, seconds))
            settle_disk()
            ticks = steal_ticks()
            began = time.perf_counter()
            log, elapsed = run_mix(server.url, mix, specs, ctx.jobs)
            steals.append(steal_share(ticks, steal_ticks()))
            loops.append((began, elapsed))
        finally:
            server.stop()
        setup.append((server.started, server.setup_s))
        logs.append(log)
    last_cache = cache_dir
    timed = quiet_rounds(steals, TIMED_SERVICE_ROUNDS, QUIET_STEAL)
    say(f"{len(logs)} rounds, {COLD_SERVICE_ROUNDS} on an empty disk cache, "
        f"{sum(share <= QUIET_STEAL for share in steals)} with at most "
        f"{QUIET_STEAL:.0%} steal; the timings come from rounds "
        f"{[i + 1 for i in timed]}")

    failures = [f for log in logs for f in log.failures]
    for failure in failures[:10]:
        say(f"failed: {failure}")
    host = ctx.host.refresh()
    new_raw = [[seconds for _, seconds in logs[i].new] for i in timed]
    new = [[host.scale(*pair) for pair in logs[i].new] for i in timed]
    for index, (log, (began, elapsed)) in enumerate(zip(logs, loops)):
        raw = [seconds for _, seconds in log.new]
        value, percentile, n = tail(raw)
        say(f"round {index + 1}: {steals[index]:.2%} stolen, "
            f"{'timed' if index in timed else 'dropped'}; host factor "
            f"{host.factor(began, began + elapsed):.4f} over the mix; "
            f"new-job p50 {median(raw):.6f} s, p{percentile:g} {value:.6f} s "
            f"(n={n}) as measured")

    def round_trips(rounds, loop_s):
        tails = [tail(times) for times in rounds]
        return {
            "op_p50_s": median([t for times in rounds for t in times]),
            "op_tail_s": median([value for value, _, _ in tails]),
            "ops_per_s": sum(map(len, rounds)) / loop_s,
        }, tails

    measured, _ = round_trips(new_raw, sum(loops[i][1] for i in timed))
    as_measured(setup_s=median([t for _, t in setup]),
                cold_s=median([t for _, t in colds]), **measured)
    setup_s = [host.scale(*pair) for pair in setup]
    reads = [host.scale(*pair) for log in logs for pair in log.reads]
    metrics = {
        "setup_s": median(setup_s),
        "cold_s": median([host.scale(*pair) for pair in colds]),
    }
    say(f"cold warm-up jobs: median {metrics['cold_s']:.6f} s over "
        f"{len(colds)} rounds")
    scaled, tails = round_trips(
        new, sum(host.scale(*loops[i]) for i in timed))
    metrics.update(scaled)
    say(f"new job round trip: p50 {metrics['op_p50_s']:.6f} s "
        f"(n={sum(map(len, new))}); tail {metrics['op_tail_s']:.6f} s, the "
        "median of the timed rounds' " + ", ".join(
            f"p{p:g} {v:.6f} s (n={n})" for v, p, n in tails))
    say(f"resubmit+fetch of a completed spec: p50 {median(reads):.6f} s "
        f"(n={len(reads)})")

    mismatches: List[str] = []
    seen = sorted({i for log in logs for i in log.texts})
    reference = reference_exports(ctx, specs, seen)
    quality = checks.SweepQuality()
    for index in seen:
        try:
            checks.check_sweep_export(reference[index], quality)
        except checks.OutputMismatch as exc:
            mismatches.append(f"spec {specs[index]}: {exc}")
        for log in logs:
            if log.texts.get(index, {reference[index]}) != {reference[index]}:
                mismatches.append(f"spec {specs[index]}: service result "
                                  "differs from the in-process export")
    metrics.update(quality.metrics())
    layer = {"service.client.read_p50_s": median(reads)}

    if ctx.trace:
        layer.update(service_traced(ctx, specs, mix, reference, mismatches,
                                    last_cache))
    attempted = sum(len(log.new) + len(log.reads) for log in logs) + len(failures)
    return Outcome(metrics, attempted, len(failures), mismatches, layer,
                   setup_s)


def service_traced(ctx, specs, mix, reference, mismatches,
                   cache_dir: Path) -> Dict[str, float]:
    """One round against an in-process server, with every layer wrapped.

    The server starts on the disk cache an untraced round filled and runs
    the warm-up jobs before the layers are wrapped, so the traced mix sees
    the same warm caches as the untraced ones.
    """
    from repro.eval import experiments
    from repro.service import ServiceConfig, make_server

    say("traced run: one round against an in-process server with "
        "sweep_jobs=1, so its shape differs from the untraced subprocess "
        "servers; the wall-time difference is not tracing overhead")
    state = TraceState()
    fresh_program_state()
    server = service = None
    try:
        config = ServiceConfig(
            data_dir=ctx.workdir / "service-traced", cache_dir=cache_dir,
            port=0, sweep_jobs=1,
        )
        server, service = make_server(config)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        warm_up(url)
        state.install()
        t0 = time.perf_counter()
        log, _ = run_mix(url, mix, specs, ctx.jobs, state)
        t1 = time.perf_counter()
    finally:
        state.uninstall()
        if server is not None:
            server.shutdown()
            server.server_close()
            service.drain(grace_s=30.0)
    for failure in log.failures:
        mismatches.append(f"traced {failure}")
    for index, texts in log.texts.items():
        if texts != {reference[index]}:
            mismatches.append(f"traced spec {specs[index]}: result differs "
                              "from the in-process export")
    info = experiments.cache_info()
    disk = info.get("disk", {})
    layer = {
        "eval.cache.disk_hit_ratio": _ratio(disk.get("hits", 0),
                                            disk.get("misses", 0)),
        "eval.cache.memory_hit_ratio": _ratio(info["memory"]["hits"],
                                              info["memory"]["misses"]),
        "eval.cache.put_errors": info["put_errors"],
        "service.queue.wait_p50_s": median(log.queue_waits),
        "service.run_p50_s": median(log.runs),
        "service.client.submit_s": median(log.submits),
        "service.client.fetch_s": median(log.fetches),
        "service.client.notify_lag_s": median(log.notify_lags),
    }
    finish_trace(ctx, state, t0, t1, layer, mismatches)
    return layer


# -- entry point ------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("paper_sweep", "robust_synth", "service_jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--host-log", type=Path, required=True,
                        help="samples file of the run's stats.HostMonitor")
    parser.add_argument("--probe", action="store_true",
                        help="only set up, announce readiness and exit")
    args = parser.parse_args(argv)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.workdir, HostLog(args.host_log))

    # Set-up: everything before the first operation can be issued.
    import repro.eval  # noqa: F401 - the import is part of set-up
    from repro.filters import benchmark_suite

    benchmark_suite()
    points = robust_inputs(ctx.seed) if ctx.workload == "robust_synth" else None
    if ctx.workload == "service_jobs":
        import repro.service.client  # noqa: F401
    say(READY)
    if args.probe:
        return 0

    ctx.workdir.mkdir(parents=True, exist_ok=True)
    if ctx.workload == "paper_sweep":
        outcome = paper_sweep(ctx)
    elif ctx.workload == "robust_synth":
        outcome = robust_synth(ctx, points)
    else:
        outcome = service_jobs(ctx)
    # A wrong output is a failed operation too.
    failed = min(outcome.attempted, outcome.failed + len(outcome.mismatches))
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.metrics["ok_share"] = 1.0 - failed / outcome.attempted
    if ctx.trace:
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(outcome.layer)
        outcome.layer = layer
    print(json.dumps({
        "metrics": outcome.metrics,
        "layer": outcome.layer,
        "attempted": outcome.attempted,
        "failed": failed,
        "mismatches": outcome.mismatches,
        "setup_samples": outcome.setup_samples,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
