"""Crash-safe campaign journal.

Same mechanics as the per-experiment run journal (append-only JSON
lines, flushed and fsynced per record, torn tails truncated on open),
one level up: a header describing the campaign, then one record per
*experiment* as it completes — appended strictly in admission decision
order through the reorder buffer, so a crash at any instant leaves a
prefix that resume understands and the journal bytes are identical for
any ``--jobs N``.  Resume never writes markers into this file: after a
crash+resume the journal is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.journal import JsonlJournal

__all__ = ["CampaignJournal"]


class CampaignJournal(JsonlJournal):
    """Append-only, fsync'd record of finished campaign experiments."""

    HEADER = "campaign"
    RECORD = "experiment"
    TOTAL = "total_experiments"
    CHECKED_AGAINST = "the plan admits"

    def record_experiment(
        self,
        index: int,
        name: str,
        user: str,
        ok: bool,
        result_dir: Optional[str] = None,
        runs_completed: int = 0,
        runs_failed: int = 0,
        error: Optional[str] = None,
    ) -> None:
        """Record one finished experiment durably."""
        entry: Dict[str, Any] = {
            "event": "experiment",
            "index": index,
            "name": name,
            "user": user,
            "ok": ok,
            "runs_completed": runs_completed,
            "runs_failed": runs_failed,
        }
        if result_dir is not None:
            entry["dir"] = result_dir
        if error is not None:
            entry["error"] = error
        self._append(entry)
