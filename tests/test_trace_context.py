"""End-to-end trace-context propagation: client → service → pool workers.

The claims under test:

* a supervised parallel sweep run under an adopted trace context emits
  worker ``sweep.task`` spans that all share the job's trace id, stay
  ``(pid, id)``-unique after the spill merge, and link back to a span
  that exists in the merged trace;
* a job submitted through the real :class:`ServiceClient` over real HTTP
  yields one connected trace — ``client.request`` through
  ``service.request`` and ``service.job`` down to every ``sweep.task``;
* the trace identity is *durable*: WAL replay after a crash requeues an
  interrupted job with its ``trace_id``/``trace_link`` intact, so the
  resumed run continues the same logical trace.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.eval import cache as disk_cache
from repro.eval.experiments import clear_cache
from repro.obs import load_trace, validate_trace
from repro.obs.report import job_trace_continuity, trace_id_for_job
from repro.service.client import ServiceClient
from repro.service.store import JobState, JobStore

SPEC = {"experiments": ["fig6"], "filters": [0], "wordlengths": [8]}


@pytest.fixture(autouse=True)
def _pristine(tmp_path):
    obs.reset()
    clear_cache()
    disk_cache.configure(None)
    yield
    obs.reset()
    clear_cache()
    disk_cache.configure(None)


def test_pool_workers_continue_the_adopted_trace(tmp_path):
    """Satellite: trace context survives the pool-worker spill merge."""
    from repro.eval.parallel import run_sweep_supervised

    obs.configure(trace_path=tmp_path / "trace.jsonl")
    job_trace = "ab" * 8
    with obs.trace_context((job_trace, None)):
        with obs.span("service.job", job_id="job-t", tenant="t"):
            run_sweep_supervised(
                experiment_ids=["fig6"], filter_indices=[0, 1],
                wordlengths=[8], jobs=2,
                cache_dir=tmp_path / "cache", journal_dir=tmp_path / "wal",
            )
    records = load_trace(obs.finalize()["trace"])
    assert validate_trace(records) == []

    spans = [r for r in records if r["kind"] == "span"]
    tasks = [s for s in spans if s["name"] == "sweep.task"]
    assert tasks, "the sweep must have executed tasks"
    # Every span of the run — parent phases and worker tasks alike —
    # carries the adopted trace id.
    assert {s["trace"] for s in spans} == {job_trace}
    # The multi-process merge keeps (pid, id) unique.
    keys = [(s["pid"], s["id"]) for s in spans]
    assert len(keys) == len(set(keys))
    # Worker roots link to a span that exists in the merged trace (the
    # wave/precompute span whose worker_args() snapshot they inherited).
    by_key = {(s["pid"], s["id"]): s for s in spans}
    for task in tasks:
        assert task["parent"] is not None or task["link"] is not None
        if task["parent"] is None:
            assert tuple(task["link"]) in by_key


def test_service_client_job_is_one_connected_trace(tmp_path):
    """Acceptance: a traced ServiceClient job merges into one story."""
    from repro.service.app import ServiceConfig, make_server
    from threading import Thread

    obs.configure(trace_path=tmp_path / "trace.jsonl")
    server, service = make_server(
        ServiceConfig(data_dir=tmp_path / "data", port=0, sweep_jobs=2)
    )
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            request_timeout_s=30.0, deadline_s=240.0, seed=0,
        )
        view, _ = client.submit_and_wait(
            dict(SPEC), budget_s=240.0, fetch_result=False
        )
        assert view["state"] == "completed", view.get("error")
        job_id = view["job_id"]
    finally:
        server.shutdown()
        server.server_close()
        service.drain(grace_s=60.0)

    records = load_trace(obs.finalize()["trace"])
    assert validate_trace(records) == []
    assert job_trace_continuity(records, job_id) == []
    # The whole job shares the client process's trace id.
    trace_id = trace_id_for_job(records, job_id)
    job_spans = [
        r for r in records
        if r["kind"] == "span" and r.get("trace") == trace_id
    ]
    names = {s["name"] for s in job_spans}
    assert {"client.request", "service.request", "service.job",
            "sweep.task"} <= names


def test_crash_recovery_preserves_trace_identity(tmp_path):
    """Satellite: WAL replay requeues an interrupted job on the same trace."""
    from repro.service.store import JobSpec

    store = JobStore(tmp_path)
    record, _ = store.submit(
        JobSpec.from_dict(SPEC), tenant="t",
        task_deadline_s=60.0, deadline_s=600.0,
        trace_id="cd" * 8, trace_link=[4242, 17],
    )
    store.transition(record.job_id, JobState.RUNNING)
    store.close()

    # A new store on the same directory is the crashed-server restart.
    reopened = JobStore(tmp_path)
    try:
        revived = reopened.get(record.job_id)
        assert revived.state == JobState.QUEUED
        assert revived.resumed is True
        assert revived.trace_id == "cd" * 8
        assert revived.trace_link == [4242, 17]
    finally:
        reopened.close()


def test_submit_without_context_leaves_trace_unset(tmp_path):
    from repro.service.store import JobSpec

    store = JobStore(tmp_path)
    try:
        record, _ = store.submit(
            JobSpec.from_dict(SPEC), tenant="t",
            task_deadline_s=60.0, deadline_s=600.0,
        )
        assert record.trace_id is None and record.trace_link is None
    finally:
        store.close()
