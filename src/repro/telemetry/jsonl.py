"""One tolerant JSONL reader for every artifact tailer.

Every flushed-line artifact in the toolchain — the run journal (whose
run records carry each run's telemetry and health evidence), the
span trace (``trace.jsonl``, from which the fleet DAG is derived) and
the evidence sidecars (``dispatch.jsonl``, which also carries the
pump's timings, and ``cache.jsonl``) — is written
the same way: one JSON object per line, a single flushed ``write()``
per record.  A reader may therefore observe at most *one* malformed
line, and only at the very end of the file: the torn tail of a record
that a crashed (or still-running) writer never finished.  Interior
corruption is not a thing this format produces, so the reader stops at
the first undecodable line instead of skipping it — silently resuming
after garbage would let a truncated-and-appended file masquerade as a
healthy history.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "iter_jsonl", "read_jsonl", "read_jsonl_or_none", "read_json_or_none",
    "fold_journal",
]


def iter_jsonl(path: str) -> Iterator[dict]:
    """Yield the complete records of a JSONL artifact, dropping the torn tail.

    Blank lines are skipped; reading stops at the first line that does
    not decode (the torn tail of a crashed or in-flight writer) or that
    decodes to a non-object.  Raises ``OSError`` when ``path`` cannot
    be opened — callers that treat a missing file as "no evidence"
    should use :func:`read_jsonl_or_none`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                return  # torn tail of a crashed or in-flight writer
            if not isinstance(record, dict):
                return
            yield record


def read_jsonl(path: str) -> List[dict]:
    """All complete records of a JSONL artifact (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def read_jsonl_or_none(path: str) -> Optional[List[dict]]:
    """Like :func:`read_jsonl`, but ``None`` when the file is absent."""
    if not os.path.isfile(path):
        return None
    return read_jsonl(path)


def read_json_or_none(path: str) -> Optional[dict]:
    """A JSON artifact (``telemetry.json``, ``health.json``), or ``None``
    when the file is absent."""
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fold_journal(
    path: str, fold: Callable[[dict], Any] = lambda record: record,
) -> Tuple[List[dict], Dict[int, Any]]:
    """Stream a run journal (``journal.jsonl``) into what a reader keeps.

    Returns the journal's other records in order (the ``experiment``
    header first, ``complete`` last) and, per run index, ``fold`` of
    its latest ``run`` record: a later record for an index (a resumed
    re-execution of a failed run) supersedes earlier ones.  Each run
    record carries the run's evidence when it was collected — the
    span/metric snapshot under ``telemetry``, the node-health payload
    under ``health`` — and ``fold`` picks what the reader needs, so a
    long sweep's spans are never all held at once.  Every reader of
    per-run evidence goes through here.
    """
    events: List[dict] = []
    runs: Dict[int, Any] = {}
    for record in iter_jsonl(path):
        if record.get("event") == "run":
            runs[int(record["index"])] = fold(record)
        else:
            events.append(record)
    return events, runs
