"""The IO fabric: recording fidelity, determinism, and fault wrappers.

The crash-state enumerator and the durability linter are only as good as
the op log they consume, so this file pins the recording contract hard:
every durable-relevant operation inside the sandbox is journaled in
order, out-of-sandbox IO passes through invisibly, temp names are
deterministic, and the two fault wrappers (swallowed fsync, one-shot
ENOSPC) behave exactly as the certification story assumes.
"""

from __future__ import annotations

import errno

import pytest

from repro.robust.crashsim import fabric as iofabric
from repro.robust.crashsim.fabric import (
    BrokenFsyncFabric,
    FaultPointFabric,
    RealIo,
    SimDisk,
)


def kinds(fab):
    return [op.kind for op in fab.ops]


class TestActiveFabric:
    def test_default_is_passthrough(self):
        assert isinstance(iofabric.active(), RealIo)

    def test_scope_installs_and_restores(self, tmp_path):
        sim = SimDisk(tmp_path)
        with iofabric.scope(sim) as active:
            assert active is sim
            assert iofabric.active() is sim
        assert iofabric.active() is not sim

    def test_scope_restores_on_exception(self, tmp_path):
        sim = SimDisk(tmp_path)
        with pytest.raises(RuntimeError):
            with iofabric.scope(sim):
                raise RuntimeError("boom")
        assert iofabric.active() is not sim

    def test_install_none_restores_default(self, tmp_path):
        previous = iofabric.install(SimDisk(tmp_path))
        try:
            iofabric.install(None)
            assert isinstance(iofabric.active(), RealIo)
        finally:
            iofabric.install(previous)


class TestRealIo:
    def test_open_write_fsync_roundtrip(self, tmp_path):
        fab = RealIo()
        path = tmp_path / "f.txt"
        with fab.open(path, "w") as fh:
            fh.write("hello")
            fab.fsync(fh)
        assert path.read_text(encoding="utf-8") == "hello"

    def test_mkstemp_creates_real_temp(self, tmp_path):
        fab = RealIo()
        fh, name = fab.mkstemp(tmp_path, prefix=".t-", suffix=".tmp")
        with fh:
            fh.write("x")
        assert name.endswith(".tmp")
        fab.replace(name, tmp_path / "final")
        assert (tmp_path / "final").read_text(encoding="utf-8") == "x"

    def test_fsync_dir_tolerates_missing_directory(self, tmp_path):
        RealIo().fsync_dir(tmp_path / "nope")  # must not raise

    def test_makedirs_durable_creates_all_levels(self, tmp_path):
        fab = RealIo()
        fab.makedirs_durable(tmp_path / "a" / "b" / "c")
        assert (tmp_path / "a" / "b" / "c").is_dir()


class TestSimDiskRecording:
    def test_create_write_fsync_sequence(self, tmp_path):
        sim = SimDisk(tmp_path)
        with sim.open(tmp_path / "log", "w") as fh:
            fh.write("line\n")
            sim.fsync(fh)
        sim.fsync_dir(tmp_path)
        assert kinds(sim) == ["create", "write", "fsync", "fsync_dir"]
        assert sim.ops[1].data == b"line\n"
        assert sim.ops[0].path == "log"
        # The sandbox root itself is recorded as ".".
        assert sim.ops[3].path == "."

    def test_out_of_root_io_is_unrecorded(self, tmp_path):
        inner = tmp_path / "root"
        inner.mkdir()
        sim = SimDisk(inner)
        outside = tmp_path / "outside.txt"
        with sim.open(outside, "w") as fh:
            fh.write("invisible")
        assert sim.ops == []
        assert outside.read_text(encoding="utf-8") == "invisible"

    def test_w_mode_reopen_of_existing_file_marks_existed(self, tmp_path):
        sim = SimDisk(tmp_path)
        with sim.open(tmp_path / "f", "w") as fh:
            fh.write("one")
        with sim.open(tmp_path / "f", "w") as fh:
            fh.write("two")
        creates = [op for op in sim.ops if op.kind == "create"]
        assert [op.existed for op in creates] == [False, True]

    def test_preexisting_file_imported_as_durable_exists(self, tmp_path):
        (tmp_path / "old").write_bytes(b"ancient")
        sim = SimDisk(tmp_path)
        with sim.open(tmp_path / "old", "a") as fh:
            fh.write("+new")
        assert kinds(sim)[0] == "exists"
        assert sim.ops[0].data == b"ancient"

    def test_mkstemp_names_are_deterministic(self, tmp_path):
        names = []
        for attempt in range(2):
            root = tmp_path / f"run{attempt}"
            root.mkdir()
            sim = SimDisk(root)
            fh, name = sim.mkstemp(root, prefix=".t-", suffix=".tmp")
            fh.close()
            names.append(name.split("/")[-1])
        assert names[0] == names[1] == ".t-sim0001.tmp"

    def test_replace_and_unlink_are_recorded(self, tmp_path):
        sim = SimDisk(tmp_path)
        with sim.open(tmp_path / "tmp", "w") as fh:
            fh.write("v")
        sim.replace(tmp_path / "tmp", tmp_path / "final")
        sim.unlink(tmp_path / "final")
        assert kinds(sim) == ["create", "write", "replace", "unlink"]
        assert (sim.ops[2].path, sim.ops[2].dst) == ("tmp", "final")

    def test_identical_workload_identical_oplog(self, tmp_path):
        def run(root):
            sim = SimDisk(root)
            sim.makedirs_durable(root / "d")
            with sim.open(root / "d" / "f", "w") as fh:
                fh.write("payload")
                sim.fsync(fh)
            sim.fsync_dir(root / "d")
            sim.ack("done", path=str(root / "d" / "f"))
            return [
                (op.kind, op.path, op.data, op.dst, op.label, op.info)
                for op in sim.ops
            ]

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_ack_normalizes_in_root_paths(self, tmp_path):
        sim = SimDisk(tmp_path)
        sim.ack("l", path=str(tmp_path / "sub" / "f"), job_id="job-1")
        (ack,) = sim.ops
        assert dict(ack.info) == {"path": "sub/f", "job_id": "job-1"}


class TestBrokenFsyncFabric:
    def test_matching_fsync_swallowed_and_unrecorded(self, tmp_path):
        sim = SimDisk(tmp_path)
        broken = BrokenFsyncFabric(sim, match="victim")
        with broken.open(tmp_path / "victim.log", "w") as fh:
            fh.write("x")
            broken.fsync(fh)
        with broken.open(tmp_path / "healthy.log", "w") as fh:
            fh.write("y")
            broken.fsync(fh)
        assert broken.swallowed == 1
        fsyncs = [op.path for op in sim.ops if op.kind == "fsync"]
        assert fsyncs == ["healthy.log"]

    def test_dir_fsyncs_swallowed_only_when_enabled(self, tmp_path):
        sim = SimDisk(tmp_path)
        keep = BrokenFsyncFabric(sim, match=str(tmp_path))
        keep.fsync_dir(tmp_path)
        assert [op.kind for op in sim.ops] == ["fsync_dir"]
        drop = BrokenFsyncFabric(SimDisk(tmp_path), match=str(tmp_path),
                                 dirs=True)
        drop.fsync_dir(tmp_path)
        assert drop.swallowed == 1 and drop.inner.ops == []


class TestFaultPointFabric:
    def test_fires_once_then_recovers(self, tmp_path):
        fab = FaultPointFabric(
            RealIo(), lambda kind, path: kind == "open" and "target" in path
        )
        with pytest.raises(OSError) as excinfo:
            fab.open(tmp_path / "target", "w")
        assert excinfo.value.errno == errno.ENOSPC
        assert fab.fired
        with fab.open(tmp_path / "target", "w") as fh:  # second try succeeds
            fh.write("ok")
        assert (tmp_path / "target").read_text(encoding="utf-8") == "ok"

    def test_replace_fault_leaves_destination_untouched(self, tmp_path):
        (tmp_path / "dst").write_text("old", encoding="utf-8")
        (tmp_path / "src").write_text("new", encoding="utf-8")
        fab = FaultPointFabric(
            RealIo(), lambda kind, path: kind == "replace"
        )
        with pytest.raises(OSError):
            fab.replace(tmp_path / "src", tmp_path / "dst")
        assert (tmp_path / "dst").read_text(encoding="utf-8") == "old"

    def test_fsync_fault_sees_fabric_path(self, tmp_path):
        sim = SimDisk(tmp_path)
        fab = FaultPointFabric(
            sim, lambda kind, path: kind == "fsync" and path.endswith("wal")
        )
        with fab.open(tmp_path / "wal", "w") as fh:
            fh.write("rec")
            with pytest.raises(OSError):
                fab.fsync(fh)
        assert fab.fired

    def test_fsync_fault_sees_real_file_path(self, tmp_path):
        # RealIo hands out plain file objects: the predicate must still see
        # the path, or a fault aimed at one file never fires.
        fab = FaultPointFabric(
            RealIo(),
            lambda kind, path: kind == "fsync" and path.endswith("wal"),
        )
        with fab.open(tmp_path / "other", "w") as fh:
            fab.fsync(fh)
        assert not fab.fired
        with fab.open(tmp_path / "wal", "w") as fh:
            fh.write("rec")
            with pytest.raises(OSError) as excinfo:
                fab.fsync(fh)
        assert excinfo.value.errno == errno.ENOSPC
        assert fab.fired

    def test_truncate_fault_leaves_file_untouched(self, tmp_path):
        (tmp_path / "wal").write_text("record", encoding="utf-8")
        fab = FaultPointFabric(RealIo(), lambda kind, path: kind == "truncate")
        with pytest.raises(OSError):
            fab.truncate(tmp_path / "wal", 0)
        assert (tmp_path / "wal").read_text(encoding="utf-8") == "record"
