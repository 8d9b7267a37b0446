"""CLI argument parsing and the exit-code contract of ``python -m repro.eval``.

The exit codes are part of the tool's interface — schedulers retry on a
budget exhaustion (3), page on a degradation failure (4), and collect
forensics on a partial sweep (5) — so each mapping is pinned here.
"""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceeded, DegradationError, ReproError
from repro.eval import cache as disk_cache
from repro.eval.__main__ import (
    EXIT_BUDGET,
    EXIT_DEGRADATION,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    build_parser,
    main,
)
from repro.eval.experiments import clear_cache
from repro.eval.parallel import ParallelSweepReport, SweepTask, TaskOutcome


@pytest.fixture(autouse=True)
def _pristine_caches():
    clear_cache()
    disk_cache.configure(None)
    yield
    clear_cache()
    disk_cache.configure(None)


class TestParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.experiment == "fig6"
        assert args.jobs is None and args.cache_dir is None
        assert args.journal_dir is None and not args.resume
        assert args.max_retries is None

    def test_supervisor_flags(self):
        args = build_parser().parse_args([
            "all", "--jobs", "4", "--cache-dir", "c", "--journal-dir", "j",
            "--resume", "--max-retries", "7", "--task-deadline", "1.5",
        ])
        assert args.jobs == 4
        assert args.cache_dir == "c"
        assert args.journal_dir == "j"
        assert args.resume is True
        assert args.max_retries == 7
        assert args.task_deadline == 1.5

    def test_filters_and_wordlengths(self):
        args = build_parser().parse_args(
            ["table1", "--filters", "0", "3", "--wordlengths", "8", "12"]
        )
        assert args.filters == [0, 3]
        assert args.wordlengths == [8, 12]

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-an-experiment"])
        assert excinfo.value.code == EXIT_USAGE

    def test_resume_without_journal_dir_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--resume"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--journal-dir" in capsys.readouterr().err


class TestExitCodes:
    def test_success_returns_zero(self, capsys):
        code = main(["fig6", "--filters", "0", "--wordlengths", "8"])
        assert code == EXIT_OK
        assert "Figure 6" in capsys.readouterr().out

    def test_supervised_success_returns_zero(self, tmp_path, capsys):
        code = main([
            "fig6", "--filters", "0", "--wordlengths", "8",
            "--jobs", "1", "--journal-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "precompute:" in out

    def test_budget_exceeded_maps_to_3(self, monkeypatch, capsys):
        import repro.eval.__main__ as cli

        def boom(*a, **kw):
            raise BudgetExceeded("deadline passed")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["fig6"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_degradation_maps_to_4(self, monkeypatch, capsys):
        import repro.eval.__main__ as cli

        def boom(*a, **kw):
            raise DegradationError("all tiers failed")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["fig6"]) == EXIT_DEGRADATION
        assert "degradation" in capsys.readouterr().err

    def test_other_repro_error_maps_to_1(self, monkeypatch, capsys):
        import repro.eval.__main__ as cli

        def boom(*a, **kw):
            raise ReproError("something structural")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["fig6"]) == EXIT_FAILURE
        assert "something structural" in capsys.readouterr().err

    def test_quarantined_tasks_map_to_5(self, monkeypatch, capsys):
        import repro.eval.parallel as parallel

        task = SweepTask(0, 8, "uniform", "csd", "mrpf")
        report = ParallelSweepReport(
            outcomes=(),
            tasks=(TaskOutcome(
                task=task, payload=None, error_type="WorkerLost",
                error="poison", elapsed_s=0.0, attempts=3, quarantined=True,
            ),),
            jobs=2, tasks_planned=1, tasks_precached=0,
            precompute_s=0.0, replay_s=0.0, total_s=0.0,
            stage_timings={}, cache={},
        )
        monkeypatch.setattr(
            parallel, "run_sweep_parallel", lambda *a, **kw: report
        )
        code = main([
            "fig6", "--filters", "0", "--wordlengths", "8",
            "--journal-dir", "unused",
        ])
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "quarantined" in captured.out
        assert "poison" in captured.err


class TestSweepOutput:
    def test_tables_identical_with_and_without_journal(self, tmp_path, capsys):
        argv = ["fig6", "--filters", "0", "1", "--wordlengths", "8",
                "--jobs", "2"]

        def tables(*extra):
            clear_cache()
            assert main(argv + list(extra)) == EXIT_OK
            out = capsys.readouterr().out
            return [line for line in out.splitlines()
                    if not line.startswith("[")]

        plain = tables("--cache-dir", str(tmp_path / "plain"))
        journaled = tables("--cache-dir", str(tmp_path / "journaled"),
                           "--journal-dir", str(tmp_path / "journal"))
        assert any("Figure 6" in line for line in plain)
        assert journaled == plain


class TestExportSubcommand:
    def test_parsing_defaults(self):
        args = build_parser().parse_args(
            ["export", "--filters", "0", "--wordlengths", "8"]
        )
        assert args.experiment == "export"
        assert args.export_format == "verilog"
        assert args.scaling == "maximal"
        assert args.representation == "csd"

    def test_writes_verilog_to_file(self, tmp_path, capsys):
        out = tmp_path / "fir.v"
        code = main([
            "export", "--format", "verilog", "--filters", "0",
            "--wordlengths", "8", "--output", str(out),
        ])
        assert code == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text.startswith("//") or text.startswith("module") or (
            "module" in text
        )
        assert str(out) in capsys.readouterr().out

    def test_dot_to_stdout(self, capsys):
        code = main([
            "export", "--format", "dot", "--filters", "0",
            "--wordlengths", "8",
        ])
        assert code == EXIT_OK
        assert "digraph" in capsys.readouterr().out

    def test_needs_exactly_one_design_point(self, capsys):
        assert main(["export", "--wordlengths", "8"]) == EXIT_FAILURE
        assert "exactly one --filters" in capsys.readouterr().err
        assert main([
            "export", "--filters", "0", "--wordlengths", "6", "8",
        ]) == EXIT_FAILURE
        assert "exactly one --wordlengths" in capsys.readouterr().err


class TestServeSubcommand:
    def test_parsing_defaults(self):
        args = build_parser().parse_args(["serve", "--data-dir", "state"])
        assert args.experiment == "serve"
        assert args.port == 8177
        assert args.max_queue_depth == 16
        assert args.max_tenant_depth == 8
        assert args.max_inflight == 1

    def test_serve_without_data_dir_fails(self, capsys):
        assert main(["serve"]) == EXIT_FAILURE
        assert "--data-dir" in capsys.readouterr().err


class TestCacheCounterSummary:
    def test_supervised_summary_surfaces_cache_counters(
        self, monkeypatch, capsys
    ):
        # Cache write failures and quarantined entries must be visible in
        # the end-of-run summary, not only in the metrics exposition.
        import repro.eval.parallel as parallel

        report = ParallelSweepReport(
            outcomes=(), tasks=(), jobs=2, tasks_planned=0,
            tasks_precached=0, precompute_s=0.0, replay_s=0.0, total_s=0.0,
            stage_timings={}, cache={"put_errors": 3, "quarantined": 1},
        )
        monkeypatch.setattr(
            parallel, "run_sweep_parallel", lambda *a, **kw: report
        )
        code = main([
            "fig6", "--filters", "0", "--wordlengths", "8",
            "--journal-dir", "unused",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[cache: 3 put errors, 1 quarantined entries]" in out


class TestCrashsimCommand:
    """The ``crashsim`` subcommand: report, JSON artifact, exit codes."""

    def test_single_layer_run_exits_ok_with_report(self, tmp_path, capsys):
        from repro.eval.__main__ import EXIT_CRASHSIM  # noqa: F401

        report_path = tmp_path / "report.json"
        code = main([
            "crashsim", "--layers", "wal", "--cap", "25",
            "--json", str(report_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "crash-consistency certification" in out
        assert "zero invariant violations" in out
        import json

        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["layers"][0]["name"] == "wal"
        assert payload["states_checked"] == 25

    def test_unmet_coverage_floor_exits_crashsim(self, tmp_path, capsys):
        from repro.eval.__main__ import EXIT_CRASHSIM

        code = main([
            "crashsim", "--layers", "wal", "--min-states", "10000",
        ])
        assert code == EXIT_CRASHSIM
        err = capsys.readouterr().err
        assert "below the --min-states floor" in err

    def test_unknown_layer_exits_failure(self, capsys):
        code = main(["crashsim", "--layers", "bogus"])
        assert code == EXIT_FAILURE
        assert "unknown crashsim layers" in capsys.readouterr().err

    def test_scratch_dir_is_kept_when_requested(self, tmp_path):
        scratch = tmp_path / "keep"
        code = main([
            "crashsim", "--layers", "journal", "--scratch", str(scratch),
        ])
        assert code == EXIT_OK
        assert scratch.is_dir()

    def test_capped_runs_are_seed_reproducible(self, tmp_path):
        import json

        reports = []
        for run in range(2):
            path = tmp_path / f"r{run}.json"
            assert main([
                "crashsim", "--layers", "store", "--cap", "15",
                "--seed", "42", "--json", str(path),
            ]) == EXIT_OK
            reports.append(json.loads(path.read_text(encoding="utf-8")))
        assert reports[0] == reports[1]
