"""Sweep journal and pool-rebuild backoff helpers for the sweep engine.

:func:`repro.eval.parallel.run_sweep_parallel` journals every terminal
:class:`~repro.eval.parallel.TaskOutcome` to a per-sweep write-ahead log
(:class:`SweepJournal`): one checksummed JSON line per record, flushed and
``fsync``'d before the outcome is considered durable.  ``resume=True``
replays the journal — discarding a torn tail from a mid-write crash — so an
interrupted sweep only recomputes what never reached disk.
:func:`sweep_signature` binds a journal file to one sweep shape under one
code version, and :func:`task_key` names a design point for chaos plans and
logs.

:func:`decorrelated_backoff` spaces the engine's pool rebuilds after worker
loss.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import cache as disk_cache
from .wal import ChecksumLog

if TYPE_CHECKING:
    from .parallel import SweepTask, TaskOutcome

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SweepJournal",
    "decorrelated_backoff",
    "sweep_signature",
    "task_key",
]

#: Bump when the journal line format or record schema changes; a resumed
#: journal with a different format is rejected, never guessed at.
JOURNAL_FORMAT_VERSION = 1

_HEADER_KIND = "header"
_OUTCOME_KIND = "outcome"


def task_key(task: SweepTask) -> str:
    """Stable string identity of a design point.

    Used to key chaos-plan decisions (which must agree between parent and
    workers) and readable enough to name tasks in reports and logs.
    """
    return "|".join(str(v) for v in (
        task.filter_index, task.wordlength, task.scaling,
        task.representation, task.method, task.depth_limit,
    ))


def sweep_signature(
    experiment_ids: Sequence[str],
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
) -> str:
    """Content hash identifying one sweep's task universe and code version.

    Folded into the journal filename and header so a ``--resume`` can only
    replay outcomes produced by the *same* sweep shape under the *same*
    code (:func:`~repro.eval.cache.cache_key` mixes in the version tag).
    """
    return disk_cache.cache_key({
        "experiments": list(experiment_ids),
        "filters": (
            list(filter_indices) if filter_indices is not None else None
        ),
        "wordlengths": (
            list(wordlengths) if wordlengths is not None else None
        ),
    })


def _encode_outcome(outcome: TaskOutcome) -> Dict[str, object]:
    record = asdict(outcome)
    record["kind"] = _OUTCOME_KIND
    return record


def _decode_outcome(record: Dict[str, object]) -> TaskOutcome:
    # The engine imports this module, so its types are imported lazily.
    from .parallel import SweepTask, TaskOutcome

    task = SweepTask(**record["task"])
    return TaskOutcome(
        task=task,
        payload=record["payload"],
        error_type=record["error_type"],
        error=record["error"],
        elapsed_s=record["elapsed_s"],
        traceback=record.get("traceback"),
        attempts=record.get("attempts", 1),
        quarantined=record.get("quarantined", False),
        duration_s=record.get("duration_s", 0.0),
    )


class SweepJournal:
    """Append-only, fsync'd, checksummed WAL of sweep task outcomes.

    A thin typed wrapper over :class:`~repro.eval.wal.ChecksumLog` (which
    owns the line format, header validation, and torn-tail truncation): this
    class contributes only the outcome record schema, the journal naming
    convention, and the header identity binding a file to one sweep
    signature under one code version.
    """

    def __init__(self, log: ChecksumLog) -> None:
        self._log = log
        self.path = log.path

    # -- construction --------------------------------------------------------

    @classmethod
    def _header(cls, signature: str) -> Dict[str, object]:
        return {
            "format": JOURNAL_FORMAT_VERSION,
            "signature": signature,
            "version": disk_cache.version_tag(),
        }

    @classmethod
    def path_for(cls, directory: os.PathLike, signature: str) -> Path:
        """Where the journal for ``signature`` lives under ``directory``."""
        return Path(directory) / f"sweep-{signature[:16]}.wal"

    @classmethod
    def create(cls, directory: os.PathLike, signature: str) -> "SweepJournal":
        """Start a fresh journal (truncating any previous one)."""
        return cls(ChecksumLog.create(
            cls.path_for(directory, signature), cls._header(signature)
        ))

    @classmethod
    def resume(
        cls, directory: os.PathLike, signature: str
    ) -> Tuple["SweepJournal", List[TaskOutcome]]:
        """Reopen a journal for appending, returning its replayed outcomes.

        A missing journal is not an error — the "interrupted before the
        first fsync" case — it simply starts fresh.  A journal whose header
        disagrees on format, signature, or code version raises
        :class:`~repro.errors.JournalError` rather than mixing results
        computed by different code into one sweep.
        """
        log, records = ChecksumLog.resume(
            cls.path_for(directory, signature), cls._header(signature)
        )
        outcomes = [
            _decode_outcome(r) for r in records
            if r.get("kind") == _OUTCOME_KIND
        ]
        return cls(log), outcomes

    # -- I/O -----------------------------------------------------------------

    def append(self, outcome: TaskOutcome) -> None:
        """Durably record one terminal task outcome (flushed + fsync'd)."""
        self._log.append(_encode_outcome(outcome))

    def close(self) -> None:
        """Close the underlying file (append after close raises)."""
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullJournal:
    """Journal stand-in when no ``journal_dir`` was given: records nothing."""

    path = None

    def append(self, outcome: TaskOutcome) -> None:
        pass

    def close(self) -> None:
        pass


def decorrelated_backoff(
    previous_s: float,
    base_s: float,
    factor: float,
    cap_s: float,
    rng: random.Random,
) -> float:
    """Next pool-rebuild delay under decorrelated jitter.

    A deterministic exponential schedule makes every recovering worker (and
    every concurrent sweep sharing a host) restart in lockstep, re-creating
    the very resource spike that broke the pool.  Decorrelated jitter (the
    AWS "decorrelated" variant) spreads rebuilds over ``[base_s,
    min(cap_s, previous_s * factor)]``: the *upper envelope* still grows
    exponentially from the previous delay, but the actual draw is uniform
    inside the window, so two supervisors with identical histories diverge.
    ``base_s <= 0`` disables backoff entirely (returns 0.0).
    """
    if base_s <= 0.0:
        return 0.0
    lower = min(base_s, cap_s)
    upper = min(cap_s, max(base_s, previous_s * factor))
    if upper <= lower:
        return lower
    return rng.uniform(lower, upper)
