"""One tolerant JSONL reader for every artifact tailer.

Every flushed-line artifact in the toolchain — the run journal, the
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
from typing import Iterator, List, Optional

__all__ = ["iter_jsonl", "read_jsonl", "read_jsonl_or_none"]


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
