"""Durable job store: spec validation, idempotent identity, WAL recovery.

The store is the piece the service's "no accepted job is ever lost"
guarantee rests on, so its contract is pinned tightly: every lifecycle
change is a durable WAL append, recovery folds last-record-wins and flips
interrupted ``running`` jobs back to ``queued``, illegal transitions
raise instead of silently corrupting history, and the same spec always
maps to the same job id.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import JobStateError, SpecError
from repro.eval.wal import ChecksumLog, checksum
from repro.service.store import JobSpec, JobState, JobStore


def make_spec(**overrides):
    payload = {"experiments": ["fig6"], "filters": [0], "wordlengths": [8]}
    payload.update(overrides)
    return JobSpec.from_dict(payload)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestJobSpec:
    def test_canonicalizes_experiments_sorted(self):
        spec = JobSpec.from_dict({"experiments": ["table1", "fig6"]})
        assert spec.experiments == ("fig6", "table1")

    def test_same_content_same_signature(self):
        assert make_spec().signature() == make_spec().signature()

    def test_different_content_different_signature(self):
        assert (
            make_spec(filters=[0]).signature()
            != make_spec(filters=[1]).signature()
        )

    def test_none_axes_accepted(self):
        spec = JobSpec.from_dict({"experiments": ["fig6"]})
        assert spec.filters is None and spec.wordlengths is None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SpecError, match="unknown experiments"):
            JobSpec.from_dict({"experiments": ["nope"]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            JobSpec.from_dict({"experiments": ["fig6"], "bogus": 1})

    def test_duplicate_filters_rejected_not_deduped(self):
        # run_sweep(filter_indices=[0, 0]) produces duplicate result rows;
        # silently deduplicating would change what the job computes.
        with pytest.raises(SpecError, match="duplicates"):
            make_spec(filters=[0, 0])

    def test_duplicate_wordlengths_rejected(self):
        with pytest.raises(SpecError, match="duplicates"):
            make_spec(wordlengths=[8, 8])

    def test_out_of_range_filter_rejected(self):
        with pytest.raises(SpecError, match="out of range"):
            make_spec(filters=[99])

    def test_non_integer_axis_rejected(self):
        with pytest.raises(SpecError, match="integers"):
            make_spec(filters=["0"])
        with pytest.raises(SpecError, match="integers"):
            make_spec(wordlengths=[True])

    def test_tiny_wordlength_rejected(self):
        with pytest.raises(SpecError, match=">= 2"):
            make_spec(wordlengths=[1])

    def test_roundtrips_through_dict(self):
        spec = make_spec()
        assert JobSpec.from_dict(spec.as_dict()) == spec


class TestSubmitIdempotence:
    def test_submit_twice_same_job(self, tmp_path):
        store = JobStore(tmp_path)
        first, enqueue1 = store.submit(make_spec(), "t", 30.0, 300.0)
        second, enqueue2 = store.submit(make_spec(), "t", 30.0, 300.0)
        assert enqueue1 and not enqueue2
        assert first.job_id == second.job_id
        assert len(store.list_jobs()) == 1

    def test_completed_job_not_requeued(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(record.job_id, JobState.COMPLETED)
        again, enqueue = store.submit(make_spec(), "t", 30.0, 300.0)
        assert not enqueue
        assert again.state == JobState.COMPLETED

    def test_failed_job_requeued_with_fresh_budgets(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(
            record.job_id, JobState.FAILED, error="boom", error_type="X"
        )
        again, enqueue = store.submit(make_spec(), "t", 5.0, 50.0)
        assert enqueue
        assert again.state == JobState.QUEUED
        assert again.error is None and again.error_type is None
        assert again.task_deadline_s == 5.0 and again.deadline_s == 50.0

    def test_cancelled_and_expired_jobs_requeue(self, tmp_path):
        store = JobStore(tmp_path)
        for terminal in (JobState.CANCELLED, JobState.EXPIRED):
            record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
            store.transition(record.job_id, terminal)
            again, enqueue = store.submit(make_spec(), "t", 30.0, 300.0)
            assert enqueue and again.state == JobState.QUEUED


class TestDeadlineClock:
    def test_expires_at_starts_ticking_at_submit(self, tmp_path):
        # The job deadline covers queue wait + run: a job stuck behind a
        # backlog must be reapable, not wait forever with no deadline.
        clock = FakeClock(1000.0)
        store = JobStore(tmp_path, clock=clock)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        assert record.expires_at == 1300.0

    def test_requeue_resets_the_deadline(self, tmp_path):
        clock = FakeClock(1000.0)
        store = JobStore(tmp_path, clock=clock)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(record.job_id, JobState.FAILED)
        clock.now = 5000.0
        again, _ = store.submit(make_spec(), "t", 30.0, 60.0)
        assert again.expires_at == 5060.0


class TestTransitions:
    def test_full_happy_path(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING, attempts=1)
        final = store.transition(record.job_id, JobState.COMPLETED)
        assert final.state == JobState.COMPLETED and final.attempts == 1

    def test_illegal_transition_raises(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        with pytest.raises(JobStateError, match="queued -> completed"):
            store.transition(record.job_id, JobState.COMPLETED)

    def test_completed_is_terminal_forever(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(record.job_id, JobState.COMPLETED)
        for state in (JobState.QUEUED, JobState.RUNNING, JobState.FAILED):
            with pytest.raises(JobStateError):
                store.transition(record.job_id, state)

    def test_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobStateError, match="unknown job"):
            store.transition("job-missing", JobState.RUNNING)
        with pytest.raises(JobStateError, match="unknown job"):
            store.get("job-missing")

    def test_cancel_beats_dispatcher_completion(self, tmp_path):
        # The dispatcher's completion transition must lose cleanly to a
        # reaper/cancel that reached the store first.
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(record.job_id, JobState.CANCELLED)
        with pytest.raises(JobStateError):
            store.transition(record.job_id, JobState.COMPLETED)


class TestRecovery:
    def test_reopen_restores_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "tenant-a", 30.0, 300.0)
        store.close()
        reopened = JobStore(tmp_path)
        got = reopened.get(record.job_id)
        assert got.state == JobState.QUEUED
        assert got.tenant == "tenant-a"
        assert got.spec == record.spec

    def test_running_jobs_requeued_as_resumed(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING, attempts=1)
        store.close()  # simulate the server dying mid-job (post-fsync)
        reopened = JobStore(tmp_path)
        got = reopened.get(record.job_id)
        assert got.state == JobState.QUEUED
        assert got.resumed is True

    def test_terminal_states_survive_restart(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(record.job_id, JobState.COMPLETED)
        store.close()
        assert JobStore(tmp_path).get(record.job_id).state == (
            JobState.COMPLETED
        )

    def test_recovery_compacts_the_log(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        for _ in range(3):
            store.transition(record.job_id, JobState.RUNNING)
            store.transition(record.job_id, JobState.FAILED)
            store.submit(make_spec(), "t", 30.0, 300.0)  # requeue
        store.close()
        reopened = JobStore(tmp_path)
        reopened.close()
        # header + one record per job, regardless of history length
        lines = (tmp_path / "jobs.wal").read_text().splitlines()
        assert len(lines) == 2

    def test_recovery_restarts_the_deadline_clock(self, tmp_path):
        clock = FakeClock(1000.0)
        store = JobStore(tmp_path, clock=clock)
        queued, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        running, _ = store.submit(make_spec(filters=[1]), "t", 30.0, 300.0)
        store.transition(running.job_id, JobState.RUNNING)
        store.close()
        # The server was down far past both deadlines; surviving jobs must
        # not be instantly expired for downtime they could not help.
        late = FakeClock(99_000.0)
        reopened = JobStore(tmp_path, clock=late)
        for job_id in (queued.job_id, running.job_id):
            got = reopened.get(job_id)
            assert got.state == JobState.QUEUED
            assert got.expires_at == 99_000.0 + 300.0
        reopened.close()

    def test_crashed_compaction_leaves_the_old_log_intact(
        self, tmp_path, monkeypatch
    ):
        # Compaction must never truncate the live WAL in place: fail the
        # rename and prove the store keeps serving from the old log (an IO
        # failure mid-compaction is degraded, not fatal).
        import repro.service.store as store_mod

        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.close()
        before = (tmp_path / "jobs.wal").read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(store_mod.os, "replace", crash)
        degraded = JobStore(tmp_path)
        assert (tmp_path / "jobs.wal").read_bytes() == before
        assert degraded.get(record.job_id).state == JobState.QUEUED
        degraded.close()
        monkeypatch.undo()
        reopened = JobStore(tmp_path)
        assert reopened.get(record.job_id).state == JobState.QUEUED
        reopened.close()

    def test_stale_compaction_tmp_is_harmless(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.close()
        # A crash between writing the compacted tmp and the rename leaves
        # the tmp behind; the next recovery overwrites and consumes it.
        (tmp_path / "jobs.wal.compact").write_text(
            "torn garbage\n", encoding="utf-8"
        )
        reopened = JobStore(tmp_path)
        assert reopened.get(record.job_id).state == JobState.QUEUED
        reopened.close()
        assert not (tmp_path / "jobs.wal.compact").exists()

    def test_torn_tail_is_truncated(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.close()
        with open(tmp_path / "jobs.wal", "a", encoding="utf-8") as fh:
            fh.write("deadbeef {torn")  # killed mid-append
        reopened = JobStore(tmp_path)
        # The torn line is dropped; the last durable state (running) is
        # recovered and requeued.
        got = reopened.get(record.job_id)
        assert got.state == JobState.QUEUED and got.resumed

    def test_foreign_log_rejected(self, tmp_path):
        from repro.errors import JournalError

        log = ChecksumLog.create(
            tmp_path / "jobs.wal", {"format": 99, "store": "jobs"}
        )
        log.close()
        with pytest.raises(JournalError, match="format"):
            JobStore(tmp_path)


class TestResults:
    def test_write_read_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.transition(record.job_id, JobState.RUNNING)
        store.write_result(record.job_id, '{"sweep": []}')
        store.transition(record.job_id, JobState.COMPLETED)
        assert store.read_result(record.job_id) == '{"sweep": []}'

    def test_result_of_incomplete_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        with pytest.raises(JobStateError, match="not completed"):
            store.read_result(record.job_id)

    def test_no_tmp_droppings_after_write(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.write_result(record.job_id, "x" * 4096)
        leftovers = [
            p for p in store.results_dir.iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestConcurrency:
    def test_concurrent_submits_yield_one_job(self, tmp_path):
        store = JobStore(tmp_path)
        results = []

        def submit():
            results.append(store.submit(make_spec(), "t", 30.0, 300.0))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.list_jobs()) == 1
        assert sum(1 for _, enqueue in results if enqueue) == 1


def _wal_op(kind):
    """Predicate matching ``kind`` operations on the job store's WAL."""
    return lambda op, path: op == kind and path.endswith("jobs.wal")


class TestWalFaults:
    """A failed WAL append must never acknowledge — or corrupt — a job.

    The faults are real: a :class:`FaultPointFabric` over ``RealIo`` fails
    the append's ``fsync`` after the record was written, so the log's own
    rollback is what keeps the refused record off disk.  The fabric is
    armed only after the store exists (creating the log fsyncs it too).
    """

    def _arm(self, *kinds):
        from repro.robust.crashsim import fabric as iofabric
        from repro.robust.crashsim.fabric import FaultPointFabric

        fabric = iofabric.active()
        for kind in kinds:
            fabric = FaultPointFabric(fabric, _wal_op(kind))
        return iofabric.scope(fabric)

    def test_enospc_on_submit_never_acknowledges(self, tmp_path):
        from repro.errors import StoreUnavailable

        store = JobStore(tmp_path)
        with self._arm("fsync") as fabric:
            with pytest.raises(StoreUnavailable) as excinfo:
                store.submit(make_spec(), "t", 30.0, 300.0)
        assert fabric.fired
        assert excinfo.value.retry_after_s > 0.0
        # Rolled back completely: the job is unknown in memory...
        assert store.list_jobs() == []
        assert store.append_errors == 1
        # ...and on disk — a fresh recovery sees an empty table.
        store.close()
        assert JobStore(tmp_path).list_jobs() == []

    def test_retry_after_transient_enospc_succeeds(self, tmp_path):
        from repro.errors import StoreUnavailable

        store = JobStore(tmp_path)
        with self._arm("fsync"):
            with pytest.raises(StoreUnavailable):
                store.submit(make_spec(), "t", 30.0, 300.0)
            # The fault fired once; the retry lands on a healthy disk.
            record, enqueue = store.submit(make_spec(), "t", 30.0, 300.0)
        assert enqueue and record.state == JobState.QUEUED
        store.close()
        assert JobStore(tmp_path).get(record.job_id).state == JobState.QUEUED

    def test_enospc_on_transition_keeps_previous_state(self, tmp_path):
        from repro.errors import StoreUnavailable

        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        before = store.get(record.job_id)
        with self._arm("fsync"):
            with pytest.raises(StoreUnavailable):
                store.transition(record.job_id, JobState.RUNNING)
        after = store.get(record.job_id)
        assert after.state == JobState.QUEUED
        assert after.revision == before.revision
        # The failed transition is absent from durable history too.
        store.close()
        assert JobStore(tmp_path).get(record.job_id).state == JobState.QUEUED

    def test_refused_appends_stay_refused_after_restart(self, tmp_path):
        from repro.errors import StoreUnavailable

        store = JobStore(tmp_path)
        kept, _ = store.submit(make_spec(filters=[0]), "t", 30.0, 300.0)
        store.transition(kept.job_id, JobState.RUNNING)
        refused = make_spec(filters=[1])
        with self._arm("fsync"):
            with pytest.raises(StoreUnavailable):
                store.submit(refused, "t", 30.0, 300.0)
        with self._arm("fsync"):
            with pytest.raises(StoreUnavailable):
                store.transition(kept.job_id, JobState.FAILED)
        assert store.get(kept.job_id).state == JobState.RUNNING
        # The log keeps appending on a clean record boundary.
        later, _ = store.submit(make_spec(filters=[2]), "t", 30.0, 300.0)
        store.close()

        restarted = JobStore(tmp_path)
        ids = {record.job_id for record in restarted.list_jobs()}
        assert ids == {kept.job_id, later.job_id}
        # Still "running" when the server died, so recovery requeues it;
        # the refused FAILED never happened.
        assert restarted.get(kept.job_id).state == JobState.QUEUED
        restarted.close()

    def test_failed_rollback_refuses_every_later_append(self, tmp_path):
        from repro.errors import StoreUnavailable

        store = JobStore(tmp_path)
        with self._arm("fsync", "truncate"):
            with pytest.raises(StoreUnavailable):
                store.submit(make_spec(filters=[0]), "t", 30.0, 300.0)
        # The disk is healthy again, but the log's tail is unknown: it
        # must not acknowledge anything written after it.
        with pytest.raises(StoreUnavailable):
            store.submit(make_spec(filters=[1]), "t", 30.0, 300.0)
        assert store.list_jobs() == []
        assert store.append_errors == 2
        store.close()


class TestLongPollPlumbing:
    def test_revision_bumps_on_every_transition(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        assert record.revision == 1
        running = store.transition(record.job_id, JobState.RUNNING)
        completed = store.transition(record.job_id, JobState.COMPLETED)
        assert (running.revision, completed.revision) == (2, 3)

    def test_wait_for_change_returns_immediately_on_stale_etag(
        self, tmp_path
    ):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        got = store.wait_for_change(record.job_id, etag=0, timeout_s=30.0)
        assert got.revision == record.revision

    def test_wait_for_change_times_out_to_current_record(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        got = store.wait_for_change(
            record.job_id, etag=record.revision, timeout_s=0.05
        )
        assert got.revision == record.revision

    def test_wait_for_change_wakes_on_transition(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        seen = []

        def wait():
            seen.append(store.wait_for_change(
                record.job_id, etag=record.revision, timeout_s=30.0
            ))

        waiter = threading.Thread(target=wait)
        waiter.start()
        store.transition(record.job_id, JobState.RUNNING)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert seen and seen[0].state == JobState.RUNNING

    def test_wait_for_change_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobStateError):
            store.wait_for_change("job-nope", etag=None, timeout_s=0.01)


class TestEnospcAndReaping:
    """Satellite hardening: ENOSPC mid-operation and crash-debris cleanup.

    The faults are injected through the IO fabric (one-shot ENOSPC at a
    chosen operation), so the store's real code paths run unmodified —
    no monkeypatching of ``os``.
    """

    def _fault(self, predicate):
        from repro.robust.crashsim.fabric import FaultPointFabric, RealIo

        return FaultPointFabric(RealIo(), predicate)

    def test_enospc_mid_compaction_store_keeps_serving(self, tmp_path):
        from repro.robust.crashsim import fabric as iofabric

        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.close()
        old_log = (tmp_path / "jobs.wal").read_bytes()

        fab = self._fault(
            lambda kind, path: kind == "open" and path.endswith(".compact")
        )
        with iofabric.scope(fab):
            degraded = JobStore(tmp_path)
        assert fab.fired, "fault never reached the compaction path"
        # The live log is untouched and the job still fully served.
        assert (tmp_path / "jobs.wal").read_bytes() == old_log
        assert degraded.get(record.job_id).state == JobState.QUEUED
        # The store stays writable: lifecycle appends go to the old log.
        degraded.transition(record.job_id, JobState.RUNNING)
        degraded.close()
        # Next restart (healthy disk) compacts successfully.
        healthy = JobStore(tmp_path)
        assert healthy.get(record.job_id).state == JobState.QUEUED  # requeued
        healthy.close()

    def test_enospc_mid_result_write_leaves_no_partial_result(self, tmp_path):
        from repro.robust.crashsim import fabric as iofabric

        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        fab = self._fault(
            lambda kind, path: kind == "replace" and path.endswith(".json")
        )
        with iofabric.scope(fab):
            # The publishing rename fails: the caller sees the error, the
            # target never appears, the temp is unlinked on the way out.
            with pytest.raises(OSError):
                store.write_result(record.job_id, '{"status": "ok"}')
        assert fab.fired
        assert not (tmp_path / "results" / f"{record.job_id}.json").exists()
        assert list((tmp_path / "results").glob("*.tmp")) == []
        # A retry on a healthy disk succeeds end to end.
        store.write_result(record.job_id, '{"status": "ok"}')
        store.transition(record.job_id, JobState.RUNNING)
        store.transition(record.job_id, JobState.COMPLETED)
        assert store.read_result(record.job_id) == '{"status": "ok"}'
        store.close()

    def test_stale_tmp_debris_reaped_on_restart(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
        store.write_result(record.job_id, "{}")
        store.close()
        # Debris a crash mid-write would leave behind (both spellings:
        # result temps and artifact-store temps).
        (tmp_path / "artifacts").mkdir(exist_ok=True)
        (tmp_path / "results" / f".{record.job_id}.x1.tmp").write_text("junk")
        (tmp_path / "artifacts" / ".tmp-abc").write_text("junk")
        reopened = JobStore(tmp_path)
        assert list((tmp_path / "results").glob(".*.tmp")) == []
        assert list((tmp_path / "artifacts").glob(".tmp-*")) == []
        # The durable result itself is untouched.
        assert (tmp_path / "results" / f"{record.job_id}.json").exists()
        reopened.close()


class TestDurabilityOpOrdering:
    """Regression pins for the satellite fsync fixes, proven op-by-op.

    A recording fabric journals the exact operation sequence, so these
    tests fail if anyone ever deletes the fsyncs again — without needing
    the full crash-state sweep.
    """

    def test_write_result_fsyncs_data_then_directory_then_acks(
        self, tmp_path
    ):
        from repro.robust.crashsim import fabric as iofabric
        from repro.robust.crashsim.fabric import SimDisk

        sim = SimDisk(tmp_path)
        with iofabric.scope(sim):
            store = JobStore(tmp_path / "store")
            record, _ = store.submit(make_spec(), "t", 30.0, 300.0)
            start = len(sim.ops)
            store.write_result(record.job_id, "{}")
            store.close()
        ops = sim.ops[start:]

        def index(kind, **match):
            return next(
                i for i, op in enumerate(ops)
                if op.kind == kind
                and all(getattr(op, k) == v for k, v in match.items())
            )

        # tmp create+write, fsync(data), replace, fsync_dir(results), ack.
        i_fsync = index("fsync")
        i_replace = index("replace")
        i_dirsync = index("fsync_dir", path="store/results")
        i_ack = index("ack")
        assert i_fsync < i_replace < i_dirsync < i_ack
        assert ops[i_replace].dst == f"store/results/{record.job_id}.json"

    def test_wal_creation_fsyncs_parent_directory_before_ack(self, tmp_path):
        from repro.robust.crashsim import fabric as iofabric
        from repro.robust.crashsim.fabric import SimDisk

        sim = SimDisk(tmp_path)
        with iofabric.scope(sim):
            log = ChecksumLog.create(
                tmp_path / "fresh.wal", {"format": 1, "store": "t"}
            )
            log.close()
        kinds = [op.kind for op in sim.ops]
        # create, header write, fsync(file), fsync_dir(parent), ack.
        assert kinds.index("fsync") < kinds.index("fsync_dir")
        assert kinds.index("fsync_dir") < kinds.index("ack")
        assert sim.ops[kinds.index("fsync_dir")].path == "."
