"""Crash-safe run journal (R3 at experiment scope).

Large cross-product studies must survive a crashed controller without
rerunning thousands of good runs.  The journal is an append-only
``journal.jsonl`` in the experiment's result folder: one header line,
then one JSON line per finished measurement run, each flushed *and
fsynced* before the controller moves on — the file is trustworthy up
to the instant of a kill.  A run's line also carries its evidence: the
telemetry snapshot (``telemetry``) and the node-health payload
(``health``), so one record holds everything a resume replays.

:meth:`Controller.resume` replays the journal, skips every loop
instance recorded as completed, and re-executes only the remainder.
Because the journal carries the loop instance and the run-directory
name, resume can both validate that it is being pointed at the same
experiment and adopt the existing run directories untouched (their
metadata stays byte-identical).

The append-only mechanics live in :class:`JsonlJournal`, shared with
the campaign and study journals, and so do creating, reopening and
validating a journal.  Opening a journal with a torn final line (the
writer died mid-record) *truncates* the file back to the end of the
last valid record before appending: without that, new records would
concatenate onto the torn partial line and corrupt the boundary,
silently losing everything appended after the crash on the next parse.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.core.errors import JournalError

__all__ = ["JOURNAL_NAME", "JsonlJournal", "RunJournal"]

JOURNAL_NAME = "journal.jsonl"


class JsonlJournal:
    """Append-only, fsync'd JSON-lines file with torn-tail recovery.

    A subclass names its file (``FILE``), its header event (``HEADER``),
    the event of one finished record (``RECORD``), the header field that
    holds the expected record count (``TOTAL``) and what that count is
    checked against on resume (``CHECKED_AGAINST``).
    """

    FILE = JOURNAL_NAME
    HEADER = ""
    RECORD = ""
    TOTAL = ""
    CHECKED_AGAINST = ""

    def __init__(self, path: str, entries: Optional[List[dict]] = None):
        self.path = path
        self.entries: List[dict] = list(entries or [])
        self._handle = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, directory: str, name: str, total: int) -> "JsonlJournal":
        """Start a fresh journal for a new execution in ``directory``."""
        journal = cls(os.path.join(directory, cls.FILE))
        journal._open("w")
        journal._append({"event": cls.HEADER, "name": name, cls.TOTAL: total})
        return journal

    @classmethod
    def open(cls, directory: str) -> "JsonlJournal":
        """Load the journal in ``directory`` for resumption, keeping it
        appendable (see :meth:`_load` for a torn final line)."""
        path = os.path.join(directory, cls.FILE)
        journal = cls._load(path)
        if not journal.entries or journal.entries[0].get("event") != cls.HEADER:
            raise JournalError(f"journal {path} has no {cls.HEADER} header")
        return journal

    @classmethod
    def _load(cls, path: str) -> "JsonlJournal":
        """Parse an existing journal and reopen it for appending.

        A torn final line (the writer died mid-record) is dropped rather
        than rejected — everything before it was fsynced — and the file
        is truncated to the end of the last valid record so the next
        append starts on a clean line boundary.
        """
        if not os.path.isfile(path):
            raise JournalError(f"no journal at {path}; nothing to resume")
        entries: List[dict] = []
        valid_end = 0
        with open(path, "rb") as raw:
            data = raw.read()
        offset = 0
        for chunk in data.split(b"\n"):
            line_end = offset + len(chunk) + 1  # includes the newline
            stripped = chunk.strip()
            offset = line_end
            if not stripped:
                # A blank-but-terminated line is fine to keep; a torn
                # trailing fragment of whitespace is handled below.
                if line_end <= len(data):
                    valid_end = line_end
                continue
            if line_end > len(data):
                break  # unterminated tail — torn record
            try:
                entry = json.loads(stripped.decode("utf-8"))
            except ValueError:
                break  # torn tail from the crash; fsynced prefix is intact
            if isinstance(entry, dict):
                entries.append(entry)
            valid_end = line_end
        journal = cls(path, entries)
        if valid_end < len(data):
            with open(path, "r+b") as raw:
                raw.truncate(valid_end)
        journal._open("a")
        return journal

    # -- writing -------------------------------------------------------------

    def _open(self, mode: str) -> None:
        self._handle = open(self.path, mode, encoding="utf-8")

    def _append(self, entry: dict, evidence: Optional[dict] = None) -> None:
        """Write one record durably; ``evidence`` fields go to disk only.

        The evidence (a run's telemetry snapshot and health payload) is
        part of the fsynced line but not of :attr:`entries`: nothing
        reads it back while writing, and a long sweep would otherwise
        hold every run's spans in memory.
        """
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        line = dict(entry, **evidence) if evidence else entry
        self._handle.write(json.dumps(line, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.entries.append(entry)

    def record_event(self, event: str, **fields: Any) -> None:
        entry = {"event": event}
        entry.update(fields)
        self._append(entry)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------------

    @property
    def header(self) -> dict:
        return self.entries[0] if self.entries else {}

    def latest(self) -> Dict[int, dict]:
        """Latest record per index.

        A later record for the same index (a resumed retry of a failed
        one) supersedes earlier ones.
        """
        return {
            int(entry["index"]): entry
            for entry in self.entries if entry.get("event") == self.RECORD
        }

    def completed(self) -> Dict[int, dict]:
        """Latest record per index that finished successfully, so an
        index that failed first and succeeded later counts as completed."""
        return {
            index: entry
            for index, entry in self.latest().items()
            if entry.get("ok", False)
        }

    def validate_against(self, name: str, total: int) -> None:
        """Refuse to resume a journal written by a different execution."""
        header = self.header
        if header.get("name") != name:
            raise JournalError(
                f"journal belongs to {self.HEADER} {header.get('name')!r}, "
                f"not {name!r}"
            )
        if header.get(self.TOTAL) != total:
            raise JournalError(
                f"journal expects {header.get(self.TOTAL)} "
                f"{self.TOTAL[len('total_'):]}, {self.CHECKED_AGAINST} "
                f"{total} — refusing to resume"
            )


class RunJournal(JsonlJournal):
    """Append-only, fsync'd record of finished measurement runs."""

    HEADER = "experiment"
    RECORD = "run"
    TOTAL = "total_runs"
    CHECKED_AGAINST = "the experiment defines"

    def record_run(
        self,
        index: int,
        loop_instance: Dict[str, Any],
        ok: bool,
        skipped: bool = False,
        retried: bool = False,
        error: Optional[str] = None,
        run_dir: Optional[str] = None,
        telemetry: Optional[dict] = None,
        health: Optional[dict] = None,
    ) -> None:
        """Record one finished (or skipped) measurement run durably.

        ``telemetry`` (the run's span/metric snapshot) and ``health``
        (its node-health payload) are the run's evidence: stored in the
        same fsynced line, so the journal never promises a run whose
        evidence a resume could not replay.
        """
        entry: Dict[str, Any] = {
            "event": "run",
            "index": index,
            "loop": dict(loop_instance),
            "ok": ok,
        }
        if skipped:
            entry["skipped"] = True
        if retried:
            entry["retried"] = True
        if error is not None:
            entry["error"] = error
        if run_dir is not None:
            entry["dir"] = run_dir
        evidence = {}
        if telemetry is not None:
            evidence["telemetry"] = telemetry
        if health is not None:
            evidence["health"] = health
        self._append(entry, evidence)
