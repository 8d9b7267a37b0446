"""Generic checksummed, fsync'd, append-only write-ahead log.

Extracted from :class:`repro.eval.supervisor.SweepJournal` so every durable
log in the system — the sweep journal, the service job store — shares one
crash-safety story instead of re-deriving it:

* one record per line, ``<sha256-of-body> <canonical-json>\\n``;
* the first record is a *header* binding the file to an owner-declared
  identity (format version, signature, code version, …) so a log written by
  different code or for a different workload is rejected, never guessed at;
* every append is flushed and ``fsync``'d before it is considered durable;
* a failed append is rolled back on disk too: the file is truncated to
  its length before the write, so a record the caller was told failed can
  never reappear on replay; if even that rollback fails, the log refuses
  every later append rather than acknowledge records after a tail of
  unknown content;
* a brand-new log's *directory entry* is fsync'd too — without that, the
  first appends can be durable in a file whose name is not;
* reads verify each line's checksum and stop at the first bad one — an
  append-only log can only tear at its tail, and :meth:`ChecksumLog.resume`
  truncates a torn tail (killed writer mid-``write``) so the file is again
  well-formed for further appends.

All IO goes through the active :mod:`repro.robust.crashsim.fabric`, so a
recording fabric sees every operation (and every durable-append
acknowledgement) this log performs.

The log stores plain JSON dicts; owners layer their record schema (and any
replay semantics) on top.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from ..errors import JournalError
from ..robust.crashsim import fabric as iofabric

__all__ = ["ChecksumLog", "checksum"]

_HEADER_KIND = "header"


def checksum(body: str) -> str:
    """The per-line integrity digest (sha256 hex of the JSON body)."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ChecksumLog:
    """Append-only, fsync'd, checksummed WAL of JSON records.

    Construction goes through :meth:`create` (truncate and write a fresh
    header) or :meth:`resume` (validate the header, truncate any torn tail,
    reopen for append and return the surviving records).  A missing file is
    not an error for ``resume`` — it is the "crashed before the first
    fsync" case and simply starts fresh.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls, path: os.PathLike, header: Mapping[str, object]
    ) -> "ChecksumLog":
        """Start a fresh log at ``path`` (truncating any previous one)."""
        fab = iofabric.active()
        log = cls(path)
        fab.makedirs_durable(log.path.parent)
        log._fh = fab.open(log.path, "w")
        record = dict(header)
        record["kind"] = _HEADER_KIND
        try:
            log._write_record(record)
        except OSError:
            log.close()
            raise
        # The header fsync covered the file's *data*; the file's directory
        # entry needs its own fsync or the whole log can vanish on power
        # loss even though its first appends were "durable".  Only then is
        # the header durable — the ack comes after both.
        fab.fsync_dir(log.path.parent)
        log._ack(record)
        return log

    @classmethod
    def resume(
        cls, path: os.PathLike, header: Mapping[str, object]
    ) -> Tuple["ChecksumLog", List[Dict[str, object]]]:
        """Reopen ``path`` for appending, returning its surviving records.

        ``header`` is the identity this reader expects; a log whose header
        disagrees on any of its fields raises
        :class:`~repro.errors.JournalError` rather than mixing records
        written by different code (or for a different workload) into one
        replay.  The returned records exclude the header.
        """
        fab = iofabric.active()
        target = Path(path)
        if not target.exists():
            return cls.create(path, header), []
        log = cls(path)
        records, valid_bytes = log._read_records()
        if not records:
            # A crash during create() can legally leave an empty file or a
            # torn prefix of the header line (which never contains its
            # trailing newline).  That is the "nothing durable yet" case —
            # start fresh.  Anything with a complete line is foreign data
            # and stays an error.
            if b"\n" not in target.read_bytes():
                return cls.create(path, header), []
            raise JournalError(
                f"log {target} has no valid header; delete it to start over"
            )
        if records[0].get("kind") != _HEADER_KIND:
            raise JournalError(
                f"log {target} has no valid header; delete it to start over"
            )
        have_header = records[0]
        for field, want in header.items():
            have = have_header.get(field)
            if have != want:
                raise JournalError(
                    f"log {target} was written for {field}={have!r} but "
                    f"this run expects {want!r}; delete it to start over"
                )
        # Truncate any torn tail so future appends land on a clean boundary.
        if valid_bytes < target.stat().st_size:
            fab.truncate(target, valid_bytes)
        log._fh = fab.open(target, "a")
        return log, records[1:]

    # -- I/O -----------------------------------------------------------------

    def _read_records(self) -> Tuple[List[Dict[str, object]], int]:
        """Parse the valid prefix: (records, byte length of that prefix)."""
        records: List[Dict[str, object]] = []
        valid_bytes = 0
        with open(self.path, "rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn final line (no newline made it to disk)
                try:
                    line = raw.decode("utf-8")
                    digest, body = line.rstrip("\n").split(" ", 1)
                    if checksum(body) != digest:
                        break
                    records.append(json.loads(body))
                except (UnicodeDecodeError, ValueError):
                    break
                valid_bytes += len(raw)
        return records, valid_bytes

    def _write_record(self, record: Mapping[str, object]) -> None:
        """Write + fsync one record without acknowledging it durable.

        On ``OSError`` the record is rolled back before the error is
        re-raised, so the failure the caller reports is true on disk too.
        """
        if self._fh is None:
            raise JournalError(f"log {self.path} is not open for append")
        fab = iofabric.active()
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        # Every earlier record was flushed by its fsync, so the file's size
        # is the offset this record starts at.
        offset = os.fstat(self._fh.fileno()).st_size
        try:
            self._fh.write(f"{checksum(body)} {body}\n")
            fab.fsync(self._fh)
        except OSError:
            self._rollback(offset)
            raise

    def _rollback(self, offset: int) -> None:
        """Cut the file back to ``offset`` after a failed write or fsync.

        The refused line may still sit in the handle's buffer or the page
        cache, where a later flush or fsync would make it durable.  So drop
        the handle, truncate, fsync the truncation, and only then reopen.
        If any step fails the handle stays ``None`` and every later append
        raises :class:`~repro.errors.JournalError`.
        """
        fab = iofabric.active()
        fh, self._fh = self._fh, None
        try:
            fh.close()
        except OSError:
            pass  # the buffered bytes are about to be cut off anyway
        try:
            fab.truncate(self.path, offset)
            reopened = fab.open(self.path, "a")
            try:
                fab.fsync(reopened)
            except OSError:
                reopened.close()
                raise
        except OSError:
            return
        self._fh = reopened

    def _ack(self, record: Mapping[str, object]) -> None:
        # The ack names what was just promised durable, so the durability
        # linter and the crash-state checker can map it back to a concrete
        # record.
        info = {"path": str(self.path)}
        for key in ("kind", "job_id", "state", "seq"):
            if key in record:
                info[key] = str(record[key])
        iofabric.active().ack("wal.append", **info)

    def append(self, record: Mapping[str, object]) -> None:
        """Durably append one record (flushed + fsync'd before returning)."""
        self._write_record(record)
        self._ack(record)

    def close(self) -> None:
        """Close the underlying file (append after close raises)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ChecksumLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
