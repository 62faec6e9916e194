"""Crash-safe study journal (``study.jsonl``).

Same mechanics as the run and campaign journals (append-only JSON
lines, flushed and fsynced per record, torn tails truncated on open),
another level up: a header describing the study, then one record per
*replication* as its campaign completes — replications execute in
index order, so the journal is trivially ordered and a crash at any
instant leaves a prefix that ``pos study run --resume`` understands.
The file is named ``study.jsonl`` (not the shared ``journal.jsonl``)
because a study directory also *contains* campaign directories with
journals of their own; the distinct name keeps tooling that walks a
tree from confusing the layers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.journal import JsonlJournal

__all__ = ["STUDY_JOURNAL_NAME", "StudyJournal"]

STUDY_JOURNAL_NAME = "study.jsonl"


class StudyJournal(JsonlJournal):
    """Append-only, fsync'd record of finished study replications."""

    FILE = STUDY_JOURNAL_NAME
    HEADER = "study"
    RECORD = "replication"
    TOTAL = "total_replications"
    CHECKED_AGAINST = "the spec defines"

    def record_replication(
        self,
        index: int,
        seed: int,
        ok: bool,
        result_dir: Optional[str] = None,
        experiments_completed: int = 0,
        experiments_failed: int = 0,
        error: Optional[str] = None,
    ) -> None:
        """Record one finished replication durably."""
        entry: Dict[str, Any] = {
            "event": "replication",
            "index": index,
            "seed": seed,
            "ok": ok,
            "experiments_completed": experiments_completed,
            "experiments_failed": experiments_failed,
        }
        if result_dir is not None:
            entry["dir"] = result_dir
        if error is not None:
            entry["error"] = error
        self._append(entry)
