"""Integration tests: observability threaded through the sweep engine.

Covers the acceptance contract of the tracing layer: a supervised parallel
sweep with tracing enabled produces a valid nested trace covering every
executed design point plus a merged metrics snapshot whose task counters
equal the report's totals — and a run without the flags stays byte-identical
to one that never imported the tracer.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.eval import cache_info, to_json
from repro.eval.experiments import clear_cache
from repro.eval.harness import run_experiment
from repro.eval.parallel import run_sweep_supervised
from repro.obs import load_trace, validate_trace
from repro.obs.metrics import DEFAULT_REGISTRY

SMALL = dict(experiment_ids=["fig6"], filter_indices=[0], wordlengths=[8])


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    clear_cache()
    yield
    obs.reset()
    clear_cache()


def _run_traced_sweep(tmp_path, jobs=2):
    obs.configure(
        trace_path=tmp_path / "trace.jsonl",
        metrics_path=tmp_path / "metrics.prom",
    )
    report = run_sweep_supervised(
        jobs=jobs, cache_dir=tmp_path / "cache",
        journal_dir=tmp_path / "wal", **SMALL,
    )
    return report, obs.finalize()


def test_supervised_sweep_trace_covers_every_design_point(tmp_path):
    report, written = _run_traced_sweep(tmp_path)
    records = load_trace(written["trace"])
    assert validate_trace(records) == []

    spans = [r for r in records if r["kind"] == "span"]
    task_spans = [s for s in spans if s["name"] == "sweep.task"]
    executed = {
        (o.task.filter_index, o.task.wordlength, o.task.method)
        for o in report.tasks
    }
    traced = {
        (s["tags"]["filter_index"], s["tags"]["wordlength"],
         s["tags"]["method"])
        for s in task_spans
    }
    assert executed and traced == executed

    # Nesting: the parent-side phases form a hierarchy in the parent pid,
    # and worker task spans carry their own pid with synthesis spans nested
    # beneath them.
    names = {s["name"] for s in spans}
    assert {"sweep.precompute", "sweep.replay", "graph.build"} <= names
    by_pid_id = {(s["pid"], s["id"]): s for s in spans}
    for span in spans:
        if span["parent"] is not None:
            assert (span["pid"], span["parent"]) in by_pid_id


def test_merged_metrics_equal_report_totals(tmp_path):
    report, written = _run_traced_sweep(tmp_path)
    stats = report.stats()
    ok = stats["tasks_computed"] - stats["tasks_failed"]
    assert DEFAULT_REGISTRY.counter_value(
        "repro_tasks_total", status="ok") == ok
    assert DEFAULT_REGISTRY.counter_value(
        "repro_tasks_total", status="quarantined"
    ) == stats["tasks_quarantined"]
    assert DEFAULT_REGISTRY.counter_value(
        "repro_task_retries_total") == stats["retries"]
    assert DEFAULT_REGISTRY.counter_value(
        "repro_pool_rebuilds_total") == stats["pool_rebuilds"]
    assert DEFAULT_REGISTRY.counter_value(
        "repro_tasks_resumed_total") == stats["tasks_resumed"]

    text = (tmp_path / "metrics.prom").read_text()
    assert f'repro_tasks_total{{status="ok"}} {ok}' in text
    # Worker-side synthesis work reached the merged registry.
    assert DEFAULT_REGISTRY.counter_value(
        "repro_cache_stores_total", layer="disk") > 0


def test_memory_store_counter_matches_cache_info(tmp_path):
    # Folding worker payloads and replaying a journal insert into the
    # parent's memory layer; both must count in cache_info() and /metrics.
    def stores():
        return (
            cache_info()["memory"]["stores"],
            DEFAULT_REGISTRY.counter_value(
                "repro_cache_stores_total", layer="memory"),
        )

    # Journaled with jobs=2, so the tasks run in worker processes.
    pooled = run_sweep_supervised(
        jobs=2, cache_dir=tmp_path / "cache", journal_dir=tmp_path / "wal",
        replay=False, **SMALL,
    )
    assert pooled.tasks
    assert stores() == (len(pooled.tasks), len(pooled.tasks))

    clear_cache()
    obs.reset()
    resumed = run_sweep_supervised(
        jobs=2, journal_dir=tmp_path / "wal", resume=True, replay=False,
        **SMALL,
    )
    assert resumed.tasks_resumed == resumed.tasks_planned > 0
    assert stores() == (resumed.tasks_resumed, resumed.tasks_resumed)


def test_task_outcomes_carry_tracer_durations(tmp_path):
    report, _ = _run_traced_sweep(tmp_path)
    assert report.tasks
    for outcome in report.tasks:
        assert outcome.duration_s > 0.0
        assert outcome.duration_s == pytest.approx(
            outcome.elapsed_s, rel=0.5, abs=0.05
        )


def test_exports_are_byte_identical_with_and_without_obs(tmp_path):
    result = run_experiment("fig6", filter_indices=[0], wordlengths=[8])
    baseline = to_json(result)

    clear_cache()
    obs.configure(
        trace_path=tmp_path / "t.jsonl", metrics_path=tmp_path / "m.prom"
    )
    traced = to_json(
        run_experiment("fig6", filter_indices=[0], wordlengths=[8])
    )
    obs.finalize()
    assert traced == baseline

    clear_cache()
    assert to_json(
        run_experiment("fig6", filter_indices=[0], wordlengths=[8])
    ) == baseline


def test_cache_info_exposes_uniform_failure_keys(tmp_path):
    info = cache_info()
    assert info["put_errors"] == 0 and info["quarantined"] == 0

    from repro.eval import cache as disk_cache

    try:
        disk_cache.configure(tmp_path / "cache")
        active = disk_cache.active_cache()
        active.stats.put_errors += 3
        active.stats.quarantined += 2
        info = cache_info()
        assert info["put_errors"] == 3
        assert info["quarantined"] == 2
        assert info["disk"]["put_errors"] == 3
    finally:
        disk_cache.configure(None)


def test_report_stats_surface_cache_failure_counters(tmp_path):
    report, _ = _run_traced_sweep(tmp_path)
    stats = report.stats()
    assert stats["cache_put_errors"] == stats["cache"]["put_errors"]
    assert stats["cache_quarantined"] == stats["cache"]["quarantined"]


def test_disabled_tracer_overhead_is_negligible():
    """No-op fast path: projected span overhead under 3% of synthesis time.

    A direct A/B timing of the instrumented pipeline is too noisy for CI, so
    this bounds the overhead analytically: (number of spans a traced run
    emits) x (measured cost of one disabled span) must stay far below 3% of
    the measured synthesis wall time.
    """
    import sys

    from benchmarks.bench_synthesis_speed import stage_operations

    ops = stage_operations()
    synth = ops["full_synthesis"]
    synth()  # warm caches (lru_cache'd digit recurrences etc.)
    t0 = time.perf_counter()
    synth()
    synth_s = time.perf_counter() - t0

    obs.reset()
    iterations = 20_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        # One span plus the trace-context propagation ops the service and
        # client run per request even when tracing is off: the no-trace
        # fast path must absorb all of them inside the same 3% bound.
        with obs.trace_context(None):
            with obs.span("noop", a=1, b="x"):
                obs.current_traceparent()
                obs.current_context()
    per_span_s = (time.perf_counter() - t0) / iterations

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        obs.configure(trace_path=f"{tmp}/t.jsonl")
        synth()
        trace_path = obs.finalize()["trace"]
        span_count = sum(
            1 for r in load_trace(trace_path) if r["kind"] == "span"
        )

    assert span_count > 0
    projected = span_count * per_span_s
    print(
        f"spans={span_count} per_span={per_span_s * 1e9:.0f}ns "
        f"synth={synth_s * 1e3:.1f}ms projected={projected / synth_s:.5%}",
        file=sys.stderr,
    )
    assert projected < 0.03 * synth_s
