#!/usr/bin/env python
"""CI end-to-end gate for the synthesis job service.

One scripted pass through every headline guarantee, against real server
processes (no pytest, no mocks), driven by the resilient
:class:`repro.service.client.ServiceClient` — the same SDK users get, so
the gate also certifies the client's retry/deadline discipline:

1. start a server whose chaos plan SIGKILLs each task's first worker,
   submit a (restricted) Table-1 job;
2. SIGKILL the whole server mid-job;
3. restart on the same data dir with a trace recorder and assert the job
   completes — crash recovery requeued it, the sweep journal spared the
   finished tasks (the client rides out the dead-server window on its
   own backoff; no hand-rolled polling here);
4. fetch the Verilog artifact over HTTP and assert it is byte-for-byte
   identical to a direct ``python -m repro.eval export`` run;
5. scrape the live ``/metrics`` endpoint through
   ``scripts/check_trace.py`` (service series vocabulary);
6. SIGTERM the server, assert a clean drain (exit 0), and validate the
   recorded trace's ``service.request``/``service.job`` spans;
7. merge the client's, the killed server's, and the drained server's
   trace files and assert end-to-end trace continuity per job — one
   trace id from the client attempt to every ``sweep.task``, parent and
   link edges resolvable even across the SIGKILL;
8. feed the merged trace to the analysis CLI: the Chrome export must
   round-trip through ``json.load`` and the traced job must yield a
   non-empty critical path.

With ``--netchaos`` every request additionally crosses a
:class:`repro.robust.netchaos.NetChaosProxy` injecting seeded connection
resets, truncations, hangs, garbage and 5xx bursts — the wire itself
becomes hostile and the guarantees must still hold.

Exit code 0 when every step holds; 1 with a diagnostic otherwise.

Usage::

    python scripts/service_e2e.py [--work-dir DIR] [--timeout SECONDS]
                                  [--netchaos] [--netchaos-seed N]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

from check_trace import check_metrics_url, check_trace  # noqa: E402

from repro import obs  # noqa: E402
from repro.errors import ClientError  # noqa: E402
from repro.robust.netchaos import NetChaosProxy, NetFaultPlan  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

#: A restricted slice of the paper's Table 1: real synthesis, CI-sized.
JOB_SPEC = {"experiments": ["table1"], "filters": [0, 1], "wordlengths": [8]}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def _start_server(data_dir: Path, extra_args, log_path: Path):
    log = open(log_path, "a", encoding="utf-8")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.eval", "serve",
            "--data-dir", str(data_dir), "--port", "0", "--jobs", "2",
            *extra_args,
        ],
        env=_env(), stdout=subprocess.PIPE, stderr=log, text=True,
        start_new_session=True,
    )
    banner = proc.stdout.readline()
    if "serving on" not in banner:
        _kill(proc)
        raise SystemExit(f"service_e2e: server never came up: {banner!r}")
    port = int(banner.rsplit(":", 1)[1].rstrip("]\n"))
    return proc, port


def _kill(proc) -> None:
    """SIGKILL the server (if still running) and everything it started.

    The server leads its own session, so its pool workers share its process
    group: killing the group reaps a worker that would otherwise outlive a
    SIGKILLed server, orphaned under init.
    """
    proc.kill()
    proc.wait(timeout=30)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def _make_client(port: int, proxy, timeout_s: float) -> ServiceClient:
    """A client aimed at the proxy (when chaos is on) or the server."""
    base = proxy.base_url if proxy is not None else f"http://127.0.0.1:{port}"
    return ServiceClient(
        base,
        request_timeout_s=10.0,
        deadline_s=timeout_s,
        max_attempts=64,
        backoff_cap_s=2.0,
        breaker_cooldown_s=0.5,
        seed=0,
    )


def _series_value(exposition: str, series: str):
    """The value of one exact series line in a Prometheus exposition."""
    import re
    match = re.search(
        rf"^{re.escape(series)} ([0-9.eE+-]+)$", exposition, re.MULTILINE
    )
    return match.group(1) if match else None


def _merge_traces(paths, merged_path: Path):
    """Concatenate per-process trace files into one strictly-parseable file.

    The phase-1 server died by SIGKILL, so its file may end in a torn
    line; the merge tolerates exactly that and re-serializes, so every
    downstream consumer (check_trace, export-chrome, critical-path) reads
    the merged file *strictly*.
    """
    from repro.obs import load_traces
    records = load_traces(
        [str(p) for p in paths if p.exists()], allow_torn_tail=True
    )
    with open(merged_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def _wait_mid_job(client: ServiceClient, job_id: str, journal_dir: Path,
                  timeout_s: float):
    """Until the job is mid-flight with one task outcome durably journaled."""
    deadline = time.monotonic() + timeout_s
    view = None
    while time.monotonic() < deadline:
        try:
            view = client.status(job_id, budget_s=15.0)
        except ClientError:
            view = None
        journals = list(journal_dir.glob("sweep-*.wal"))
        if (
            view is not None
            and view["state"] in ("running", "completed")
            and journals
            and journals[0].read_bytes().count(b"\n") >= 2
        ):
            return view
        time.sleep(0.1)
    raise SystemExit(
        f"service_e2e: timed out waiting for job to reach mid-flight: {view}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument(
        "--netchaos", action="store_true",
        help="route every request through a fault-injecting TCP proxy",
    )
    parser.add_argument("--netchaos-seed", type=int, default=3)
    args = parser.parse_args(argv)

    work = Path(args.work_dir or tempfile.mkdtemp(prefix="service-e2e-"))
    work.mkdir(parents=True, exist_ok=True)
    data_dir = work / "data"
    log_path = work / "server.log"
    trace_path = work / "service-trace.jsonl"
    server1_trace_path = work / "server1-trace.jsonl"
    client_trace_path = work / "client-trace.jsonl"
    merged_trace_path = work / "merged-trace.jsonl"

    # Client-side tracing in this process: every ServiceClient attempt
    # emits a client.request span and stamps its context into the
    # traceparent header, so the servers' spans join *our* trace.
    obs.configure(trace_path=str(client_trace_path))

    # Phase 1: chaos server — every task's first worker is SIGKILLed.
    # It records a trace too: the per-request flush makes its request
    # spans durable, so they survive the SIGKILL in phase 2 (modulo one
    # torn final line, which the merge below tolerates explicitly).
    proc, port = _start_server(
        data_dir,
        [
            "--chaos-seed", "7", "--chaos-kill-rate", "1.0",
            "--trace", str(server1_trace_path),
        ],
        log_path,
    )
    proxy = None
    if args.netchaos:
        proxy = NetChaosProxy(
            port, NetFaultPlan.storm(seed=args.netchaos_seed, rate=0.15)
        ).start()
        print(f"service_e2e: netchaos proxy on {proxy.base_url} "
              f"(seed {args.netchaos_seed})")
    client = _make_client(port, proxy, args.timeout)
    job_id = None
    try:
        view = client.submit(dict(JOB_SPEC), tenant="e2e")
        job_id = view["job_id"]
        print(f"service_e2e: submitted {job_id} ({view['state']})")

        # Phase 2: SIGKILL the server once the job is mid-flight with at
        # least one task outcome durably journaled.
        _wait_mid_job(client, job_id, data_dir / "journals", args.timeout)
    finally:
        _kill(proc)
        proc.stdout.close()
    print("service_e2e: server SIGKILLed mid-job")

    # Phase 3: restart, no chaos, trace recorded; the job must complete.
    # The client needs no special handling for the restart: the proxy is
    # retargeted at the new port and the retry loop rides out the gap.
    proc, port = _start_server(
        data_dir, ["--trace", str(trace_path)], log_path
    )
    if proxy is not None:
        proxy.retarget(port)
    else:
        client = _make_client(port, None, args.timeout)
    traced_job_id = None
    first_job_resumed = False
    try:
        final = client.wait_for(job_id, budget_s=args.timeout)
        first_job_resumed = bool(final.get("resumed"))
        if final["state"] != "completed":
            raise SystemExit(
                f"service_e2e: recovered job failed: {final.get('error')}"
            )
        print(f"service_e2e: job completed after restart "
              f"(resumed={final.get('resumed')}, "
              f"attempts={final.get('attempts')})")
        if not json.loads(client.result(job_id))["sweep"]:
            raise SystemExit("service_e2e: completed job served empty sweep")

        # The traced server must execute at least one job itself: under
        # netchaos, submit retries can delay phase 1 long enough that the
        # first job completes *before* the SIGKILL, leaving the restarted
        # server nothing to resume — submit a distinct spec so the trace
        # always carries a service.job span.
        traced, _ = client.submit_and_wait(
            {"experiments": ["fig6"], "filters": [1], "wordlengths": [9]},
            tenant="e2e", budget_s=args.timeout, fetch_result=False,
        )
        if traced["state"] != "completed":
            raise SystemExit(
                f"service_e2e: traced job failed: {traced.get('error')}"
            )
        traced_job_id = traced["job_id"]
        print(f"service_e2e: traced job {traced_job_id} completed")

        # Phase 4: served artifact must equal the direct CLI export bytes.
        served = client.artifact("verilog", 0, 8)
        direct_path = work / "direct.v"
        subprocess.run(
            [
                sys.executable, "-m", "repro.eval", "export",
                "--format", "verilog", "--filters", "0",
                "--wordlengths", "8", "--output", str(direct_path),
            ],
            env=_env(), check=True, timeout=args.timeout,
            stdout=subprocess.DEVNULL,
        )
        direct = direct_path.read_text(encoding="utf-8")
        if served != direct:
            raise SystemExit(
                "service_e2e: served Verilog differs from direct CLI export "
                f"({len(served)} vs {len(direct)} chars)"
            )
        print(f"service_e2e: artifact byte-identity holds "
              f"({len(served)} chars)")

        # Phase 5: scrape the live /metrics endpoint (directly — the
        # vocabulary check should not be confounded by injected faults).
        metrics_url = f"http://127.0.0.1:{port}/metrics"
        problems = check_metrics_url(metrics_url)
        if problems:
            for p in problems:
                print(f"service_e2e: {p}", file=sys.stderr)
            raise SystemExit("service_e2e: live /metrics scrape failed")
        # The SLO histograms must have *observed* something by now — this
        # server ran at least the resumed job and the traced job.
        import urllib.request
        with urllib.request.urlopen(metrics_url, timeout=10) as resp:
            exposition = resp.read().decode("utf-8")
        for series in (
            "repro_service_queue_wait_seconds_count",
            "repro_service_run_seconds_count",
            'repro_http_request_seconds_count{method="POST",route="/v1/jobs"}',
        ):
            value = _series_value(exposition, series)
            if not value or float(value) <= 0:
                raise SystemExit(
                    f"service_e2e: {series} is {value!r} after e2e traffic, "
                    "wanted > 0"
                )
        print("service_e2e: live /metrics carries the service vocabulary "
              "and nonzero SLO histograms")

        # Phase 6: graceful drain must exit 0.
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        if code != 0:
            raise SystemExit(f"service_e2e: drain exited {code}, wanted 0")
        print("service_e2e: SIGTERM drain exited 0")
    finally:
        if proxy is not None:
            fired = proxy.faults_fired()
            print(f"service_e2e: netchaos injected "
                  f"{len(proxy.injections)} faults over "
                  f"{proxy.connections} connections: "
                  f"{', '.join(fired) or 'none'}")
            proxy.stop()
            if not fired:
                # A chaos pass that never injected anything certified
                # nothing; the seed matrix must guarantee real faults.
                raise SystemExit(
                    "service_e2e: --netchaos fired no faults; pick a "
                    "seed/rate with early activity"
                )
        _kill(proc)
        proc.stdout.close()

    # The finalized trace must hold well-tagged service spans.
    problems = check_trace(
        str(trace_path), require_spans=["service.request", "service.job"],
        min_spans=2,
    )
    if problems:
        for p in problems:
            print(f"service_e2e: {p}", file=sys.stderr)
        raise SystemExit("service_e2e: trace validation failed")
    print("service_e2e: trace spans validated")

    # Phase 7: the distributed-trace story.  Flush this process's
    # client.request spans, merge all three per-process files, and demand
    # end-to-end continuity: one trace id from client attempt through
    # queue wait to every sweep.task, with resolvable parent/link edges.
    for kind, path in sorted(obs.finalize().items()):
        print(f"service_e2e: [{kind} written to {path}]")
    require_jobs = [traced_job_id]
    if first_job_resumed:
        # The SIGKILL'd-and-resumed job must *also* read as one trace —
        # its spans straddle both server processes.
        require_jobs.append(job_id)
    _merge_traces(
        [client_trace_path, server1_trace_path, trace_path],
        merged_trace_path,
    )
    problems = check_trace(
        str(merged_trace_path),
        require_spans=["client.request", "service.request", "service.job",
                       "sweep.task"],
        min_spans=4,
        require_job_trace=require_jobs,
    )
    if problems:
        for p in problems:
            print(f"service_e2e: {p}", file=sys.stderr)
        raise SystemExit("service_e2e: merged-trace continuity failed")
    print(f"service_e2e: trace continuity holds for {require_jobs} "
          f"across {3 if first_job_resumed else 2}+ processes")

    # Phase 8: the analysis CLI must digest the merged trace — Chrome
    # export round-trips through json.load and the traced job yields a
    # non-empty critical path.
    chrome_path = work / "chrome-trace.json"
    subprocess.run(
        [
            sys.executable, "-m", "repro.eval", "export-chrome",
            "--trace", str(merged_trace_path), "--output", str(chrome_path),
        ],
        env=_env(), check=True, timeout=args.timeout,
        stdout=subprocess.DEVNULL,
    )
    with open(chrome_path, encoding="utf-8") as fh:
        chrome = json.load(fh)
    if not chrome.get("traceEvents"):
        raise SystemExit("service_e2e: Chrome export holds no events")
    print(f"service_e2e: Chrome export round-trips "
          f"({len(chrome['traceEvents'])} events)")
    cp = subprocess.run(
        [
            sys.executable, "-m", "repro.eval", "critical-path",
            "--trace", str(merged_trace_path), "--job", traced_job_id,
        ],
        env=_env(), timeout=args.timeout, capture_output=True, text=True,
    )
    if cp.returncode != 0 or not cp.stdout.strip():
        print(cp.stdout, file=sys.stderr)
        print(cp.stderr, file=sys.stderr)
        raise SystemExit(
            f"service_e2e: critical-path exited {cp.returncode} "
            "or printed nothing"
        )
    print("service_e2e: critical path is non-empty — all phases OK")

    if args.work_dir is None:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
