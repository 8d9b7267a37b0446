"""Parallel sweep engine + persistent cache: equivalence and unit tests.

The headline guarantee under test: a parallel sweep (process-pool precompute,
disk-cache layering, budgeted tasks) exports *byte-identical* results to the
plain serial path — including when some or all of the results come from a
warm disk cache.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import BudgetExceeded, ReproError
from repro.eval import cache as disk_cache
from repro.eval import experiments
from repro.eval.experiments import best_mrpf, clear_cache
from repro.eval.export import sweep_to_json
from repro.eval.harness import EXPERIMENTS, run_sweep
from repro.eval import parallel as parallel_module
from repro.eval.__main__ import EXIT_OK, main
from repro.eval.parallel import (
    SweepTask,
    plan_tasks,
    pool_decision,
    run_sweep_parallel,
)
from repro.robust import SolverBudget

IDS = ["fig6", "fig8a", "table1"]
RESTRICT = dict(filter_indices=[0, 1], wordlengths=[8])


@pytest.fixture(autouse=True)
def _pristine_caches():
    """Each test starts and ends with no memory entries and no disk cache."""
    clear_cache()
    disk_cache.configure(None)
    yield
    clear_cache()
    disk_cache.configure(None)


def _serial_json():
    clear_cache()
    disk_cache.configure(None)
    outcomes = run_sweep(IDS, **RESTRICT)
    text = sweep_to_json(outcomes)
    clear_cache()
    return text


class TestByteIdenticalEquivalence:
    def test_parallel_jobs_matches_serial(self, tmp_path):
        want = _serial_json()
        report = run_sweep_parallel(
            IDS, jobs=4, cache_dir=tmp_path / "cache", **RESTRICT
        )
        assert sweep_to_json(report.outcomes) == want
        assert report.tasks_planned > 0
        assert not report.failed_tasks

    def test_half_warm_disk_cache_matches_serial(self, tmp_path):
        want = _serial_json()
        cache_dir = tmp_path / "cache"
        # Warm roughly half the design points (fig6 only), then run the full
        # sweep: fig6 comes from disk, the rest is computed fresh.
        run_sweep_parallel(["fig6"], jobs=2, cache_dir=cache_dir, **RESTRICT)
        clear_cache()
        report = run_sweep_parallel(
            IDS, jobs=2, cache_dir=cache_dir, **RESTRICT
        )
        assert report.tasks_precached > 0
        assert len(report.tasks) > 0
        assert sweep_to_json(report.outcomes) == want

    def test_fully_warm_cache_computes_nothing(self, tmp_path):
        want = _serial_json()
        cache_dir = tmp_path / "cache"
        run_sweep_parallel(IDS, jobs=2, cache_dir=cache_dir, **RESTRICT)
        clear_cache()
        report = run_sweep_parallel(IDS, jobs=2, cache_dir=cache_dir, **RESTRICT)
        assert len(report.tasks) == 0
        assert report.tasks_precached == report.tasks_planned
        assert sweep_to_json(report.outcomes) == want

    def test_in_process_jobs1_matches_serial(self, tmp_path):
        want = _serial_json()
        report = run_sweep_parallel(IDS, jobs=1, **RESTRICT)
        assert sweep_to_json(report.outcomes) == want

    def test_exhausted_task_budget_still_identical(self):
        # A zero deadline makes every budgeted precompute task fail fast;
        # the replay recomputes them serially, so output is unaffected.
        want = _serial_json()
        report = run_sweep_parallel(
            ["fig6"], jobs=1, task_deadline_s=0.0, **RESTRICT
        )
        failed = report.failed_tasks
        assert any(t.error_type == "BudgetExceeded" for t in failed)
        # Failed outcomes carry the full worker-side traceback, not just
        # the exception repr — essential once frames died with the worker.
        for t in failed:
            assert t.traceback is not None
            assert "BudgetExceeded" in t.traceback
            assert "Traceback (most recent call last)" in t.traceback
        full = run_sweep_parallel(IDS, jobs=1, **RESTRICT)
        assert sweep_to_json(full.outcomes) == want

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            run_sweep_parallel(["nope"], jobs=1)


class TestChunkedDispatch:
    def test_chunked_pool_matches_serial(self, tmp_path, monkeypatch):
        # Force the pool on (the heuristic would refuse it on a 1-CPU CI
        # host): dispatching tasks to worker processes must not change a
        # byte of the exported sweep.
        want = _serial_json()
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 8)
        report = run_sweep_parallel(
            IDS, jobs=2, cache_dir=tmp_path / "cache", **RESTRICT
        )
        assert report.pool_used
        assert report.fallback_reason is None
        assert sweep_to_json(report.outcomes) == want

    def test_report_stats_carry_dispatch_fields(self):
        report = run_sweep_parallel(["fig6"], jobs=1, **RESTRICT)
        stats = report.stats()
        assert stats["pool_used"] is False
        assert stats["fallback_reason"] == "jobs <= 1"


class TestSerialFallback:
    """Small sweeps must never pay pool spin-up (the cold 0.52x regression)."""

    @pytest.fixture(autouse=True)
    def _no_pools_allowed(self, monkeypatch):
        def _boom(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed for a "
                                 "sweep the heuristic should run serially")

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", _boom
        )

    def test_small_sweep_never_constructs_a_pool(self, monkeypatch):
        # 12 pending tasks below the threshold of 16 for 8 workers:
        # in-process, and byte-identical (it IS the serial code path).
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 8)
        want = _serial_json()
        report = run_sweep_parallel(IDS, jobs=8, **RESTRICT)
        assert not report.pool_used
        assert "below pool threshold" in report.fallback_reason
        assert len(report.tasks) == report.tasks_planned
        assert sweep_to_json(report.outcomes) == want

    def test_single_cpu_host_never_constructs_a_pool(self, monkeypatch):
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        report = run_sweep_parallel(["fig6"], jobs=4, **RESTRICT)
        assert not report.pool_used
        assert report.fallback_reason == "single-CPU host"
        assert not report.failed_tasks

    def test_fallback_still_writes_through_disk_cache(
        self, tmp_path, monkeypatch
    ):
        # The in-process path must leave the same warm disk cache a pool
        # run would: a second sweep computes nothing.
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        cache_dir = tmp_path / "cache"
        run_sweep_parallel(IDS, jobs=4, cache_dir=cache_dir, **RESTRICT)
        clear_cache()
        again = run_sweep_parallel(
            IDS, jobs=4, cache_dir=cache_dir, **RESTRICT
        )
        assert len(again.tasks) == 0
        assert again.tasks_precached == again.tasks_planned


class TestPoolDecision:
    def test_jobs_one_is_serial(self):
        assert pool_decision(100, 1) == (False, "jobs <= 1")

    def test_single_cpu_is_serial(self, monkeypatch):
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        use, reason = pool_decision(100, 8)
        assert not use
        assert reason == "single-CPU host"

    def test_default_threshold_scales_with_workers(self, monkeypatch):
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 8)
        # threshold = max(4, 2 * min(jobs, cpus)) = 8 for jobs=4
        assert pool_decision(7, 4)[0] is False
        assert pool_decision(8, 4) == (True, None)

    def test_journaled_sweep_always_pools(self, monkeypatch):
        # Long-lived journaled sweeps keep a worker-killing task out of the
        # parent, whatever the host or the backlog.
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        assert pool_decision(1, 2, journaled=True) == (True, None)
        assert pool_decision(1, 1, journaled=True) == (False, "jobs <= 1")


class TestTaskPlanning:
    def test_plan_is_deterministic_and_deduplicated(self):
        a = plan_tasks(["fig6", "fig8a", "summary"], [0, 1], [8, 12])
        b = plan_tasks(["summary", "fig8a", "fig6"], [0, 1], [8, 12])
        assert a == b
        assert len(set(a)) == len(a)

    def test_summary_covers_all_figures(self):
        summary = set(plan_tasks(["summary"], [0], [8]))
        for fig in ("fig6", "fig7", "fig8a", "fig8b"):
            assert set(plan_tasks([fig], [0], [8])) <= summary

    def test_table1_tasks_pin_configuration(self):
        tasks = plan_tasks(["table1"], [0], [8])
        assert tasks  # wordlength restriction does not apply to table1
        for task in tasks:
            assert task.wordlength == 16
            assert task.scaling == "maximal"
            assert task.depth_limit == 3
            assert task.method == "mrpf"
        assert {t.representation for t in tasks} == {"csd", "sm"}

    def test_fig7_with_table1_puts_unbounded_depth_first(self):
        # fig7 and table1 meet at W=16 on (maximal, csd, mrpf) and differ
        # only in depth_limit; plain sorting compared None with 3.
        tasks = plan_tasks(["fig7", "table1"], [0], [16])
        met = [t for t in tasks
               if t.method == "mrpf" and t.representation == "csd"]
        assert [t.depth_limit for t in met] == [None, 3]

    def test_all_experiments_plan_in_field_order(self):
        tasks = plan_tasks(sorted(EXPERIMENTS), [0, 1], [8, 16])
        assert len(set(tasks)) == len(tasks)
        # Tasks that never meet a same-field twice keep sorted()'s order.
        for depth in (None, 3):
            same = [t for t in tasks if t.depth_limit == depth]
            assert same == sorted(same)

    def test_all_form_of_the_cli_runs(self, tmp_path, capsys):
        code = main(["all", "--filters", "0", "--wordlengths", "16",
                     "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert code == EXIT_OK


class TestDiskCache:
    def test_put_get_roundtrip_and_stats(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        key = disk_cache.cache_key({"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": [1, 2, 3]})
        assert cache.get(key) == {"value": [1, 2, 3]}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        key = disk_cache.cache_key({"x": 2})
        cache.put(key, {"ok": True})
        path = cache._path(key)
        path.write_text("{truncated", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()
        # The corrupt bytes survive in quarantine/ for forensics.
        moved = cache.quarantine_dir / path.name
        assert moved.read_text(encoding="utf-8") == "{truncated"
        assert cache.stats.quarantined == 1
        assert cache.quarantined_entries() == 1

    def test_repeated_corruption_keeps_every_specimen(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        key = disk_cache.cache_key({"x": 3})
        for generation in range(3):
            cache.put(key, {"ok": generation})
            cache._path(key).write_text(f"{{gen {generation}", encoding="utf-8")
            assert cache.get(key) is None
        assert cache.quarantined_entries() == 3

    def test_quarantine_not_listed_or_cleared_as_entries(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        key = disk_cache.cache_key({"x": 4})
        cache.put(key, {"ok": True})
        cache._path(key).write_text("junk", encoding="utf-8")
        assert cache.get(key) is None
        assert len(cache) == 0  # quarantined files are not live entries
        assert cache.clear() == 0
        assert cache.quarantined_entries() == 1  # clear() spares forensics

    def test_cache_info_reports_quarantine(self, tmp_path):
        disk_cache.configure(tmp_path)
        info = experiments.cache_info()
        assert info["disk_quarantine"] == 0
        assert info["disk"]["quarantined"] == 0
        assert info["disk"]["put_errors"] == 0

    def test_clear_removes_everything(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        for i in range(5):
            cache.put(disk_cache.cache_key({"i": i}), {"i": i})
        assert len(cache) == 5
        assert cache.clear() == 5
        assert len(cache) == 0

    def test_malformed_key_rejected(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        with pytest.raises(ReproError):
            cache.get("../../etc/passwd")

    def test_cache_key_is_stable_and_order_insensitive(self):
        assert (
            disk_cache.cache_key({"a": 1, "b": 2})
            == disk_cache.cache_key({"b": 2, "a": 1})
        )
        assert disk_cache.cache_key({"a": 1}) != disk_cache.cache_key({"a": 2})

    def test_version_tag_folded_into_key(self, monkeypatch):
        before = disk_cache.cache_key({"a": 1})
        monkeypatch.setattr(disk_cache, "CACHE_SCHEMA_VERSION", 999)
        assert disk_cache.cache_key({"a": 1}) != before

    def test_method_result_roundtrip(self):
        result = experiments.MethodResult(
            method="mrpf", adders=7, depth=3, cla_weighted=12.5,
            seed_size=(2, 4),
        )
        payload = disk_cache.encode_method_result(result)
        assert json.loads(json.dumps(payload)) == payload
        assert disk_cache.decode_method_result(payload) == result

    def test_clear_cache_on_directory(self, tmp_path):
        cache = disk_cache.DiskCache(tmp_path)
        cache.put(disk_cache.cache_key({"z": 1}), {"z": 1})
        assert disk_cache.clear_cache(tmp_path) == 1


class TestCacheLayering:
    def test_disk_hits_survive_memory_clears(self, tmp_path):
        disk_cache.configure(tmp_path)
        from repro.filters import benchmark_filter
        from repro.quantize import ScalingScheme

        designed = benchmark_filter(0)
        first = experiments._method_result(
            designed, 0, 8, ScalingScheme.UNIFORM, "mrpf"
        )
        clear_cache()  # memory gone, disk survives
        again = experiments._method_result(
            designed, 0, 8, ScalingScheme.UNIFORM, "mrpf"
        )
        assert again == first
        active = disk_cache.active_cache()
        assert active.stats.hits >= 1

    def test_cache_info_reports_both_layers(self, tmp_path):
        disk_cache.configure(tmp_path)
        info = experiments.cache_info()
        assert "memory" in info and "disk" in info
        assert info["disk_dir"] == str(tmp_path)


class TestBudgetThreading:
    def test_best_mrpf_budget_exhaustion_raises(self):
        budget = SolverBudget(deadline_s=0.0).start()
        with pytest.raises(BudgetExceeded):
            best_mrpf([7, 66, 17, 9, 27, 41, 56, 11], 10, budget=budget)

    def test_robust_synthesize_accepts_external_budget(self):
        from repro.robust import RobustConfig, synthesize

        # An exhausted external budget skips the expensive tiers but the
        # trivial tier still releases a verified architecture.
        budget = SolverBudget(deadline_s=0.0).start()
        result = synthesize(
            [7, 66, 17], 10,
            config=RobustConfig(max_retries=0),
            budget=budget,
        )
        assert result.tier == "trivial"
        assert result.architecture.adder_count >= 0
