"""Command-line entry point: ``python -m repro.eval <experiment>``.

Examples::

    python -m repro.eval fig6
    python -m repro.eval table1
    python -m repro.eval all --filters 0 1 2 --wordlengths 8 12
    python -m repro.eval all --jobs 4 --cache-dir .cache \\
        --journal-dir .journal --resume --max-retries 3
    python -m repro.eval fig6 --trace trace.jsonl --metrics metrics.prom
    python -m repro.eval stats --trace trace.jsonl
    python -m repro.eval timeline --trace trace.jsonl --job job-abc123
    python -m repro.eval critical-path --trace merged.jsonl --job job-abc123
    python -m repro.eval export-chrome --trace trace.jsonl --output t.json
    python -m repro.eval verify --filters 0 1 --wordlengths 8 --mutants 40

Exit codes map the error taxonomy so schedulers and scripts can branch on
*why* a run ended without parsing stderr:

====  =====================================================================
code  meaning
====  =====================================================================
0     success
1     library error (any other :class:`~repro.errors.ReproError`)
2     usage error (argparse: unknown experiment, bad flag combination)
3     a solver budget was exhausted (:class:`~repro.errors.BudgetExceeded`)
4     every degradation tier failed (:class:`~repro.errors.DegradationError`)
5     sweep finished but the engine quarantined poison tasks
6     verify: a structural invariant audit failed
7     verify: a fixed-point width or overflow check failed
8     verify: an equivalence check (exhaustive/differential/C model) failed
9     verify: the mutation kill-rate gate failed
====  =====================================================================
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .. import obs
from ..errors import BudgetExceeded, DegradationError, ReproError
from .harness import EXPERIMENTS, paper_comparison, run_experiment
from .export import to_csv, to_json
from .plots import figure_chart
from .report import format_experiment

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_BUDGET",
    "EXIT_DEGRADATION",
    "EXIT_PARTIAL",
    "EXIT_VERIFY_STRUCTURE",
    "EXIT_VERIFY_FIXEDPOINT",
    "EXIT_VERIFY_EQUIVALENCE",
    "EXIT_VERIFY_MUTATION",
    "EXIT_CRASHSIM",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2  # argparse's own exit code, listed here for completeness
EXIT_BUDGET = 3
EXIT_DEGRADATION = 4
EXIT_PARTIAL = 5
EXIT_VERIFY_STRUCTURE = 6
EXIT_VERIFY_FIXEDPOINT = 7
EXIT_VERIFY_EQUIVALENCE = 8
EXIT_VERIFY_MUTATION = 9
EXIT_CRASHSIM = 10

#: First-failure exit code per verification check (the C-model diff is an
#: equivalence check, so its failures share that code).
_VERIFY_EXIT_CODES = {
    "structure": EXIT_VERIFY_STRUCTURE,
    "fixedpoint": EXIT_VERIFY_FIXEDPOINT,
    "equivalence": EXIT_VERIFY_EQUIVALENCE,
    "cmodel": EXIT_VERIFY_EQUIVALENCE,
    "mutation": EXIT_VERIFY_MUTATION,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + [
            "all", "stats", "timeline", "critical-path", "export-chrome",
            "verify", "serve", "export", "submit", "watch", "crashsim"
        ],
        help="which experiment to run ('stats' renders the per-phase time "
             "breakdown of a trace recorded earlier with --trace; "
             "'timeline' renders the span tree chronologically; "
             "'critical-path' extracts which span segments bound the "
             "wall-clock; 'export-chrome' converts a trace for "
             "chrome://tracing / Perfetto; 'verify' "
             "runs the full hardware verification audit over synthesized "
             "benchmark filters; 'serve' starts the synthesis job service; "
             "'export' emits one artifact for a single design point; "
             "'submit' sends a sweep to a running service via the resilient "
             "client; 'watch' long-polls an existing job to completion; "
             "'crashsim' runs the deterministic crash-consistency "
             "certification sweep over the durability layers)",
    )
    parser.add_argument(
        "--filters",
        type=int,
        nargs="+",
        default=None,
        metavar="IDX",
        help="restrict to these benchmark filter indices (0-11)",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also write the results as CSV to PATH",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as JSON to PATH",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render the figure as an ASCII bar chart",
    )
    parser.add_argument(
        "--wordlengths",
        type=int,
        nargs="+",
        default=None,
        metavar="W",
        help="restrict coefficient wordlengths (default 8 12 16 20)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="precompute design points across N worker processes "
             "(results are byte-identical to a serial run)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent result cache shared across runs and workers",
    )
    parser.add_argument(
        "--task-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-design-point solver budget during parallel precompute",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="journal every completed design point to a crash-safe WAL "
             "in DIR (enables --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay completed points from the journal and continue an "
             "interrupted sweep (requires --journal-dir)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="requeue a task at most N times after worker loss before "
             "quarantining it (default 2)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a JSONL phase trace to FILE (for the analysis "
             "subcommands stats/timeline/critical-path/export-chrome: the "
             "trace to read instead — concatenate per-process files to "
             "analyze a whole distributed job)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a Prometheus text metrics exposition to FILE when "
             "the run finishes",
    )
    parser.add_argument(
        "--job",
        metavar="JOB_ID",
        default=None,
        help="analysis subcommands: restrict to the trace of this service "
             "job (matched via its service.job span)",
    )
    parser.add_argument(
        "--allow-torn-tail",
        action="store_true",
        help="analysis subcommands: tolerate one torn final line per "
             "trace file (the tail a SIGKILL'd process left mid-write)",
    )
    parser.add_argument(
        "--profile-span",
        metavar="NAME",
        default=None,
        help="attach a sampled cProfile capture to every span named NAME "
             "(requires --trace; .pstats files land in --profile-dir)",
    )
    parser.add_argument(
        "--profile-dir",
        metavar="DIR",
        default=None,
        help="where --profile-span writes its .pstats captures "
             "(default: alongside the trace file)",
    )
    parser.add_argument(
        "--profile-every",
        metavar="N",
        type=int,
        default=1,
        help="capture every Nth matching span instead of all of them "
             "(sampling keeps profiler overhead bounded on hot spans)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="route the repro logger hierarchy to stderr at this level",
    )
    verify_group = parser.add_argument_group("verify options")
    verify_group.add_argument(
        "--mutants",
        type=int,
        default=0,
        metavar="N",
        help="verify: also run a mutation campaign of N seeded faults per "
             "design and enforce the kill-rate gate (default 0 = skip)",
    )
    verify_group.add_argument(
        "--exhaustive-bits",
        type=int,
        default=8,
        metavar="BITS",
        help="verify: input wordlength for the exhaustive sweep (default 8)",
    )
    verify_group.add_argument(
        "--input-bits",
        type=int,
        default=16,
        metavar="BITS",
        help="verify: input wordlength for fixed-point and differential "
             "checks (default 16)",
    )
    verify_group.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="verify/crashsim: seed for random stimulus, mutant drawing, "
             "and crash-state sampling (default 0)",
    )
    verify_group.add_argument(
        "--cmodel",
        action="store_true",
        help="verify: also diff the compiled C model (skipped without a C "
             "compiler on PATH)",
    )
    export_group = parser.add_argument_group("export options")
    export_group.add_argument(
        "--format",
        choices=("verilog", "c", "dot"),
        default="verilog",
        dest="export_format",
        help="export: which artifact to emit (default verilog)",
    )
    export_group.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="export: write the artifact to PATH instead of stdout",
    )
    export_group.add_argument(
        "--scaling",
        choices=("uniform", "maximal"),
        default="maximal",
        help="export: quantization scaling scheme (default maximal)",
    )
    export_group.add_argument(
        "--representation",
        choices=("csd", "sm"),
        default="csd",
        help="export: coefficient digit representation (default csd)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    serve_group.add_argument(
        "--port",
        type=int,
        default=8177,
        metavar="N",
        help="serve: bind port; 0 picks a free one (default 8177)",
    )
    serve_group.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="serve: durable state root (job WAL, sweep journals, results)",
    )
    serve_group.add_argument(
        "--max-queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="serve: total queued jobs before shedding with 429 (default 16)",
    )
    serve_group.add_argument(
        "--max-tenant-depth",
        type=int,
        default=8,
        metavar="N",
        help="serve: queued jobs per tenant before shedding (default 8)",
    )
    serve_group.add_argument(
        "--max-inflight",
        type=int,
        default=1,
        metavar="N",
        help="serve: jobs running concurrently (default 1)",
    )
    serve_group.add_argument(
        "--max-task-deadline",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="serve: ceiling on the per-task solver budget a request may "
             "ask for; larger requests are clamped (default 120)",
    )
    serve_group.add_argument(
        "--max-job-deadline",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="serve: ceiling on a job's wall-clock deadline (default 1800)",
    )
    serve_group.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="serve: pool rebuilds inside the window that open the circuit "
             "breaker (default 3)",
    )
    serve_group.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="serve: how long an open breaker sheds before probing "
             "(default 30)",
    )
    serve_group.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="serve: how long SIGTERM waits for running jobs (default 30)",
    )
    # Chaos knobs for the fault-injection suite; deliberately undocumented.
    serve_group.add_argument(
        "--chaos-seed", type=int, default=None, help=argparse.SUPPRESS
    )
    serve_group.add_argument(
        "--chaos-kill-rate", type=float, default=0.0, help=argparse.SUPPRESS
    )
    client_group = parser.add_argument_group("client options (submit/watch)")
    client_group.add_argument(
        "--url",
        default="http://127.0.0.1:8177",
        help="submit/watch: service base URL (default http://127.0.0.1:8177)",
    )
    client_group.add_argument(
        "--tenant",
        default="cli",
        help="submit: tenant the job is accounted against (default 'cli')",
    )
    client_group.add_argument(
        "--experiments",
        nargs="+",
        metavar="EXP",
        default=None,
        help="submit: experiments the job should sweep (default: fig6)",
    )
    client_group.add_argument(
        "--job-id",
        default=None,
        help="watch: the job to follow to completion",
    )
    client_group.add_argument(
        "--client-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="submit/watch: overall client deadline budget across retries "
             "and long-polls (default 300)",
    )
    client_group.add_argument(
        "--watch",
        action="store_true",
        help="submit: after submitting, follow the job to completion "
             "(exit code reflects its final state)",
    )
    crashsim_group = parser.add_argument_group("crashsim options")
    crashsim_group.add_argument(
        "--layers",
        nargs="+",
        metavar="LAYER",
        default=None,
        help="crashsim: durability layers to certify (default: all of "
             "wal, journal, store, cache)",
    )
    crashsim_group.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="N",
        help="crashsim: check at most N crash states per layer, sampled "
             "deterministically from --seed (default: check every state)",
    )
    crashsim_group.add_argument(
        "--min-states",
        type=int,
        default=0,
        metavar="N",
        help="crashsim: fail unless at least N crash states were "
             "enumerated across all layers (coverage floor, default 0)",
    )
    crashsim_group.add_argument(
        "--scratch",
        default=None,
        metavar="DIR",
        help="crashsim: directory for materialized crash states (default: "
             "a fresh temp dir, removed afterwards)",
    )
    return parser


#: Subcommands that *read* an existing trace instead of recording one.
_ANALYSIS_COMMANDS = ("stats", "timeline", "critical-path", "export-chrome")


def _load_analysis_records(args: argparse.Namespace):
    """Shared front half of every analysis subcommand.

    Loads ``--trace`` (tolerating a killed process's torn tail only when
    asked) and, with ``--job``, narrows to that job's trace id so a merged
    multi-process file analyzes as one job's story.
    """
    from ..obs import report as obs_report

    if args.trace is None:
        raise ReproError(
            f"the {args.experiment} subcommand needs --trace FILE pointing "
            "at a trace recorded by an earlier run"
        )
    records = obs.load_trace(
        args.trace, allow_torn_tail=args.allow_torn_tail
    )
    if args.job is not None:
        trace_id = obs_report.trace_id_for_job(records, args.job)
        if trace_id is None:
            raise ReproError(
                f"no service.job span tagged job_id={args.job!r} in "
                f"{args.trace}"
            )
        records = obs_report.filter_trace(records, trace_id)
    return records


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: per-phase breakdown of a recorded trace."""
    records = _load_analysis_records(args)
    for problem in obs.validate_trace(records):
        print(f"warning: {problem}", file=sys.stderr)
    print(obs.format_breakdown(obs.phase_breakdown(records)))
    return EXIT_OK


def _run_timeline(args: argparse.Namespace) -> int:
    """The ``timeline`` subcommand: the span forest in wall-clock order."""
    from ..obs import report as obs_report

    records = _load_analysis_records(args)
    rows = obs_report.build_timeline(records)
    print(obs_report.format_timeline(rows))
    return EXIT_OK if rows else EXIT_FAILURE


def _run_critical_path(args: argparse.Namespace) -> int:
    """The ``critical-path`` subcommand: what bounded the wall-clock.

    Exits 1 when the trace yields no path — a CI gate that asserts a
    non-empty critical path can rely on the exit code alone.
    """
    from ..obs import report as obs_report

    records = _load_analysis_records(args)
    result = obs_report.critical_path(records)
    print(obs_report.format_critical_path(result))
    return EXIT_OK if result["segments"] else EXIT_FAILURE


def _run_export_chrome(args: argparse.Namespace) -> int:
    """The ``export-chrome`` subcommand: chrome://tracing / Perfetto JSON."""
    import json as json_mod

    from ..obs import report as obs_report

    records = _load_analysis_records(args)
    payload = obs_report.to_chrome_trace(records)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json_mod.dump(payload, fh, sort_keys=True)
        print(
            f"[chrome trace with {len(payload['traceEvents'])} events "
            f"written to {args.output}]"
        )
    else:
        json_mod.dump(payload, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    """The ``verify`` subcommand: full audit of synthesized benchmark filters.

    Synthesizes each selected (filter, wordlength) design point the same way
    the experiments do (maximal scaling, best-β MRPF) and runs the complete
    :func:`repro.verify.full_audit` scorecard on it.  Returns the exit code
    of the *first failing check* (codes 6-9); all designs and checks are
    still run and printed so one report shows every failure.
    """
    from ..filters.benchmarks import TABLE1_SPECS, benchmark_filter
    from ..quantize import ScalingScheme, quantize
    from ..verify import full_audit
    from .experiments import best_mrpf

    indices = (
        list(args.filters)
        if args.filters is not None
        else list(range(len(TABLE1_SPECS)))
    )
    wordlengths = list(args.wordlengths) if args.wordlengths else [8]
    exit_code = EXIT_OK
    audited = failed = 0
    for index in indices:
        designed = benchmark_filter(index)
        for wordlength in wordlengths:
            q = quantize(designed.folded, wordlength, ScalingScheme.MAXIMAL)
            architecture = best_mrpf(q.integers, wordlength)
            report = full_audit(
                architecture.netlist,
                architecture.tap_names,
                architecture.coefficients,
                input_bits=args.input_bits,
                expected_adder_count=architecture.adder_count,
                exhaustive_bits=args.exhaustive_bits,
                mutants=args.mutants,
                seed=args.seed,
                include_cmodel=args.cmodel,
            )
            audited += 1
            verdict = "ok" if report.ok else "FAILED"
            print(f"{designed.name} W={wordlength} "
                  f"({architecture.adder_count} adders): {verdict}")
            for line in report.summary().splitlines():
                print(f"  {line}")
            if not report.ok:
                failed += 1
                if exit_code == EXIT_OK:
                    first = report.failures[0]
                    exit_code = _VERIFY_EXIT_CODES.get(
                        first.check, EXIT_FAILURE
                    )
    print(f"[verified {audited} design points; {failed} failed]")
    return exit_code


def _run_export(args: argparse.Namespace) -> int:
    """The ``export`` subcommand: one artifact for one design point.

    Shares :func:`repro.service.artifacts.generate_artifact` with the job
    service's artifact endpoint, so the bytes written here are identical to
    the bytes the service serves for the same design point — the chaos
    suite relies on that to prove served artifacts are trustworthy.
    """
    from ..service.artifacts import fetch_artifact
    from . import cache as disk_cache

    if args.filters is None or len(args.filters) != 1:
        raise ReproError("export needs exactly one --filters index")
    if args.wordlengths is None or len(args.wordlengths) != 1:
        raise ReproError("export needs exactly one --wordlengths value")
    from ..numrep import Representation
    from ..quantize import ScalingScheme

    if args.cache_dir is not None:
        disk_cache.configure(args.cache_dir)
    text = fetch_artifact(
        args.filters[0],
        args.wordlengths[0],
        args.export_format,
        scaling=ScalingScheme(args.scaling),
        representation=Representation(args.representation),
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[{args.export_format} written to {args.output}]")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the synthesis job service until SIGTERM."""
    from pathlib import Path

    from ..service import BudgetPolicy, ServiceConfig, make_server, run_forever

    if args.data_dir is None:
        raise ReproError("serve needs --data-dir DIR for durable job state")
    chaos = None
    if args.chaos_seed is not None:
        from ..robust.chaos import ProcessFaultPlan

        chaos = ProcessFaultPlan(
            seed=args.chaos_seed, kill_rate=args.chaos_kill_rate
        )
    policy = BudgetPolicy(
        default_task_deadline_s=min(30.0, args.max_task_deadline),
        max_task_deadline_s=args.max_task_deadline,
        default_job_deadline_s=min(300.0, args.max_job_deadline),
        max_job_deadline_s=args.max_job_deadline,
    )
    config = ServiceConfig(
        data_dir=Path(args.data_dir),
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        sweep_jobs=args.jobs if args.jobs is not None else 2,
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        max_queue_depth_per_tenant=args.max_tenant_depth,
        budgets=policy,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        drain_grace_s=args.drain_grace,
        max_retries=args.max_retries if args.max_retries is not None else 2,
        chaos=chaos,
    )
    server, service = make_server(config)
    host, port = server.server_address[:2]

    def _announce():
        # Flushed line tests (and humans) wait for before sending requests
        # or signals; printed only once the SIGTERM handler is installed.
        print(f"[serving on http://{host}:{port}]", flush=True)

    return run_forever(server, service, ready=_announce)


#: Terminal job states mapped onto the CLI's exit-code taxonomy: an
#: expired job is a budget outcome (3), like a local budget exhaustion.
_JOB_EXIT_CODES = {
    "completed": EXIT_OK,
    "expired": EXIT_BUDGET,
    "failed": EXIT_FAILURE,
    "cancelled": EXIT_FAILURE,
}


def _watch_to_exit(client, job_id: str, budget_s) -> int:
    """Follow ``job_id`` to a terminal state and map it to an exit code."""
    from ..errors import ClientDeadlineError

    try:
        view = client.wait_for(job_id, budget_s=budget_s)
    except ClientDeadlineError as exc:
        last = exc.last_state or {}
        print(
            f"error: client budget exhausted after {exc.elapsed_s:.1f}s; "
            f"last observed state: {last.get('state', 'unknown')}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    state = view["state"]
    line = f"[job {job_id} {state}"
    if view.get("error"):
        line += f": {view['error_type']}: {view['error']}"
    print(line + "]")
    return _JOB_EXIT_CODES.get(state, EXIT_FAILURE)


def _run_submit(args: argparse.Namespace) -> int:
    """The ``submit`` subcommand: send a sweep through the resilient client."""
    from ..service.client import ServiceClient

    client = ServiceClient(args.url)
    spec = {"experiments": list(args.experiments or ["fig6"])}
    if args.filters is not None:
        spec["filters"] = list(args.filters)
    if args.wordlengths is not None:
        spec["wordlengths"] = list(args.wordlengths)
    view = client.submit(
        spec, tenant=args.tenant, budget_s=args.client_budget
    )
    print(f"[job {view['job_id']} {view['state']}]")
    if not args.watch:
        return EXIT_OK
    return _watch_to_exit(client, view["job_id"], args.client_budget)


def _run_watch(args: argparse.Namespace) -> int:
    """The ``watch`` subcommand: long-poll one job to its terminal state."""
    from ..service.client import ServiceClient

    if args.job_id is None:
        raise ReproError("watch needs --job-id (as printed by submit)")
    client = ServiceClient(args.url)
    return _watch_to_exit(client, args.job_id, args.client_budget)


def _run(args: argparse.Namespace) -> int:
    experiment_ids = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    quarantined = 0
    if (
        args.jobs is not None
        or args.cache_dir is not None
        or args.journal_dir is not None
        or args.max_retries is not None
    ):
        from .parallel import run_sweep_parallel

        report = run_sweep_parallel(
            experiment_ids,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            filter_indices=args.filters,
            wordlengths=args.wordlengths,
            task_deadline_s=args.task_deadline,
            replay=False,
            journal_dir=args.journal_dir,
            resume=args.resume,
            max_retries=args.max_retries if args.max_retries is not None else 2,
        )
        stats = report.stats()
        quarantined = stats["tasks_quarantined"]
        pool_note = (
            "pool" if report.pool_used
            else f"in-process: {report.fallback_reason or 'nothing pending'}"
        )
        print(
            f"[precompute: {stats['tasks_computed']} design points with "
            f"{report.jobs} jobs in {report.precompute_s:.2f}s "
            f"({pool_note}); "
            f"{stats['tasks_precached']}/{stats['tasks_planned']} cached "
            f"({stats['tasks_resumed']} from journal); "
            f"{stats['tasks_failed']} failed, {quarantined} quarantined, "
            f"{stats['retries']} retries, "
            f"{stats['pool_rebuilds']} pool rebuilds]"
        )
        print(
            f"[cache: {stats['cache_put_errors']} put errors, "
            f"{stats['cache_quarantined']} quarantined entries]"
        )
        for outcome in report.quarantined_tasks:
            print(f"[quarantined: {outcome.error}]", file=sys.stderr)
    for experiment_id in experiment_ids:
        result = run_experiment(
            experiment_id,
            filter_indices=args.filters,
            wordlengths=args.wordlengths,
        )
        print(format_experiment(result))
        if args.chart and result.rows:
            print()
            print(figure_chart(result))
        if args.csv:
            with open(args.csv, "a" if len(experiment_ids) > 1 else "w") as fh:
                fh.write(to_csv(result))
            print(f"[csv written to {args.csv}]")
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(to_json(result))
            print(f"[json written to {args.json}]")
        comparison = paper_comparison(result)
        if comparison:
            print()
            print("paper vs measured:")
            for metric, paper_value, measured in comparison:
                print(f"  {metric}: paper={paper_value:.2f} measured={measured:.2f}")
        print()
    return EXIT_PARTIAL if quarantined else EXIT_OK


def _run_crashsim(args: argparse.Namespace) -> int:
    """The ``crashsim`` subcommand: deterministic crash-state certification.

    Exit codes: :data:`EXIT_OK` when every enumerated crash state recovers
    cleanly (and the coverage floor holds), :data:`EXIT_CRASHSIM` when any
    durability invariant or the ordering linter fails, or when fewer than
    ``--min-states`` states were enumerated.
    """
    import json as json_mod
    import shutil
    import tempfile
    from pathlib import Path

    from ..robust.crashsim import certify

    if args.scratch is not None:
        scratch = Path(args.scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        cleanup = False
    else:
        scratch = Path(tempfile.mkdtemp(prefix="crashsim-"))
        cleanup = True
    try:
        try:
            report = certify.run_certification(
                scratch, layers=args.layers, seed=args.seed, cap=args.cap,
            )
        except ValueError as exc:  # unknown --layers value
            raise ReproError(str(exc)) from exc
        print(certify.format_report(report))
        for layer in report.layers:
            if layer.capped:
                print(
                    f"note: {layer.name} capped to {layer.states_checked} "
                    f"of {layer.states_enumerated} states "
                    f"(seed={report.seed}, deterministic sample)"
                )
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as fh:
                json_mod.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            print(f"[report written to {args.json}]")
        if report.states_enumerated < args.min_states:
            print(
                f"error: enumerated {report.states_enumerated} crash "
                f"states, below the --min-states floor of {args.min_states}",
                file=sys.stderr,
            )
            return EXIT_CRASHSIM
        return EXIT_OK if report.ok else EXIT_CRASHSIM
    finally:
        if cleanup:
            shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (see module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.journal_dir is None:
        parser.error("--resume requires --journal-dir")
    if args.log_level is not None:
        obs.setup_logging(args.log_level)
    # Analysis subcommands *read* an existing trace; everything else may
    # record one.
    observing = args.experiment not in _ANALYSIS_COMMANDS and (
        args.trace is not None or args.metrics is not None
    )
    if observing:
        if args.profile_span is not None:
            # Attach before configure(): configure wires the live profiler
            # into the tracer it builds.
            profile_dir = args.profile_dir
            if profile_dir is None and args.trace is not None:
                profile_dir = os.path.dirname(args.trace) or "."
            if profile_dir is None:
                profile_dir = "."
            obs.enable_profile(
                args.profile_span, profile_dir, every=args.profile_every
            )
        obs.configure(trace_path=args.trace, metrics_path=args.metrics)
    try:
        if args.experiment == "stats":
            return _run_stats(args)
        if args.experiment == "timeline":
            return _run_timeline(args)
        if args.experiment == "critical-path":
            return _run_critical_path(args)
        if args.experiment == "export-chrome":
            return _run_export_chrome(args)
        if args.experiment == "verify":
            return _run_verify(args)
        if args.experiment == "serve":
            return _run_serve(args)
        if args.experiment == "export":
            return _run_export(args)
        if args.experiment == "submit":
            return _run_submit(args)
        if args.experiment == "watch":
            return _run_watch(args)
        if args.experiment == "crashsim":
            return _run_crashsim(args)
        return _run(args)
    except BudgetExceeded as exc:
        print(f"error: solver budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DegradationError as exc:
        print(f"error: degradation cascade failed: {exc}", file=sys.stderr)
        return EXIT_DEGRADATION
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        if observing:
            for kind, path in sorted(obs.finalize().items()):
                print(f"[{kind} written to {path}]")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # ``repro.eval timeline ... | head`` closes stdout early; swap the
        # fd for /dev/null so interpreter shutdown does not re-raise, and
        # exit with the conventional SIGPIPE status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(128 + 13)
