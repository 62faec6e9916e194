"""Content-addressed run cache.

A measurement run in this testbed is a *pure function* of its inputs:
the run-isolation hook (:meth:`repro.testbed.scenarios.TestbedSetup.
begin_run`) aligns the world clock to a canonical per-index epoch and
reseeds every stochastic component from the experiment seed and the run
index, which is the property the parallel and distributed executors
already rely on for byte-identical artifact trees.  The same property
makes run outcomes cacheable: executing the same (scenario, variable
assignment, seed) point twice performs identical work and produces an
identical :class:`~repro.core.scheduler.RunOutcome`.

:class:`RunCache` stores those outcomes content-addressed: the cache
key is the SHA-256 of a canonical JSON fingerprint covering

* the **code epoch** — a constant bumped whenever the simulation or
  workflow semantics change (scripts are Python callables, so their
  behaviour cannot be content-hashed; the epoch is the conservative
  stand-in),
* the **scenario content** — the experiment's full ``describe()``
  (roles, images, boot parameters, script identities) and the testbed
  topology ``describe()``,
* the **variable assignment** — the run's loop instance and its index
  in the cross product (the index determines the run's epoch and
  reseed, so it is an input, not bookkeeping),
* the **seed**.

A hit replays the pickled outcome through the exact persistence path an
executed run takes (:func:`~repro.core.scheduler.persist_outcome`,
``merge_run``, the journal), so the artifact tree of a warm execution
is byte-identical to a cold one *by construction* — with zero simulator
events spent.  Only boring outcomes are stored: single-attempt, ``ok``,
no fault events; anything involving recovery, failure or injected
faults always re-executes.

The controller probes runs through one
:class:`~repro.core.scheduler.CachePlan` per measurement phase: serially
each run just before it would execute; under ``--jobs`` and
``--agents`` every pending run before the pool or the fleet starts,
each hit delivered as soon as every run below it is, so that only the
misses are handed to the executor.  Either way the first result of a
warm sweep costs one key and one lookup.

The cache is off unless a directory is configured (``--cache DIR`` or a
non-empty ``POS_RUN_CACHE_DIR``).  Evidence of hits and misses goes to the
``cache.jsonl`` sidecar (the ``dispatch.jsonl`` precedent), which is
deliberately outside the byte-identity contract.  Each run's records
are written when the run is delivered, in index order — any
``cache.corrupt``, then ``cache.hit`` or ``cache.miss``, then
``cache.store`` for a freshly stored outcome — so the sidecar is
byte-identical for every executor, and a run that is never delivered
leaves no line.

Storage layout, one directory per entry, atomically populated::

    <root>/objects/<key[:2]>/<key>/manifest.json   # provenance + outcome hash
    <root>/objects/<key[:2]>/<key>/outcome.pkl     # pickled RunOutcome

Loads verify the pickle against the manifest's hash; a corrupt or
truncated entry behaves as a miss.  ``pos cache ls|verify|gc`` inspects
and maintains a cache directory offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "CODE_EPOCH",
    "CacheEntry",
    "RunCache",
    "resolve_cache_dir",
]

#: Bumped whenever simulation or workflow semantics change in a way
#: that affects run artifacts.  Part of every cache key: entries from
#: older code are unreachable (and ``pos cache gc`` removes them).
#: Epoch 2: stored outcomes' spans no longer carry a wall-clock field.
CODE_EPOCH = 2

MANIFEST_NAME = "manifest.json"
OUTCOME_NAME = "outcome.pkl"


def resolve_cache_dir(explicit: Optional[str] = None) -> Optional[str]:
    """The configured cache directory, or None when caching is off.

    An explicit ``--cache`` directory wins over ``POS_RUN_CACHE_DIR``;
    an empty variable configures nothing.
    """
    return explicit or os.environ.get("POS_RUN_CACHE_DIR") or None


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class CacheEntry:
    """One stored run, as seen by the offline tools."""

    key: str
    path: str
    manifest: Dict[str, Any]

    @property
    def ok(self) -> bool:
        """Whether the stored outcome matches the manifest's hash."""
        outcome_path = os.path.join(self.path, OUTCOME_NAME)
        try:
            with open(outcome_path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return False
        return hashlib.sha256(blob).hexdigest() == self.manifest.get("outcome_sha256")


class RunCache:
    """Content-addressed store of :class:`RunOutcome` payloads.

    ``scope`` is the per-world half of the fingerprint (code epoch,
    seed, testbed topology); the per-run half (experiment describe,
    index, loop instance) is supplied to :meth:`key`.
    """

    def __init__(self, root: str, scope: Optional[Dict[str, Any]] = None):
        self.root = root
        self.scope = dict(scope or {})
        self.scope.setdefault("code_epoch", CODE_EPOCH)
        #: Optional evidence sink ``(event, **fields)`` — the measurement
        #: phase's :class:`~repro.core.scheduler.CachePlan` wires it up so
        #: silent corrupt-as-miss degradations still leave a
        #: ``cache.jsonl`` record (written when the probed run is
        #: delivered) for ``pos report`` and the critical-path profiler.
        self.evidence: Optional[Callable[..., None]] = None
        #: Canonical JSON of the scope, and of the last description
        #: passed to :meth:`key` (memoised by identity).
        self._scope_json: Optional[str] = None
        self._described: Optional[tuple] = None

    # -- keys -----------------------------------------------------------------

    def key(
        self,
        experiment_describe: Dict[str, Any],
        index: int,
        loop_instance: Dict[str, Any],
    ) -> str:
        """SHA-256 fingerprint of one (scenario, assignment, seed) point.

        The digest is over the canonical JSON of ``{"experiment",
        "index", "loop", "scope"}``.  Canonical JSON sorts keys at every
        level, so the whole text is the four fragments spliced in that
        order: the scope's and the description's fragments are
        serialised once and reused, byte for byte what serialising the
        whole fingerprint gives.  The description is recognised by
        identity — pass one ``describe()`` dict per measurement phase
        and do not mutate it in between.
        """
        if self._scope_json is None:
            self._scope_json = _canonical(self.scope)
        described = self._described
        if described is None or described[0] is not experiment_describe:
            described = self._described = (
                experiment_describe, _canonical(experiment_describe),
            )
        text = (
            '{"experiment":' + described[1]
            + ',"index":' + _canonical(index)
            + ',"loop":' + _canonical(dict(loop_instance))
            + ',"scope":' + self._scope_json + "}"
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key)

    # -- hot path -------------------------------------------------------------

    def lookup(self, key: str):
        """The stored outcome for ``key``, or None (corrupt = miss)."""
        entry_dir = self._entry_dir(key)
        manifest_path = os.path.join(entry_dir, MANIFEST_NAME)
        outcome_path = os.path.join(entry_dir, OUTCOME_NAME)
        if not os.path.isdir(entry_dir):
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            with open(outcome_path, "rb") as handle:
                blob = handle.read()
        except (OSError, ValueError):
            self._corrupt(key)
            return None
        if hashlib.sha256(blob).hexdigest() != manifest.get("outcome_sha256"):
            self._corrupt(key)
            return None
        try:
            return pickle.loads(blob)
        except Exception:  # noqa: BLE001 - any unpickling failure is a miss
            self._corrupt(key)
            return None

    def _corrupt(self, key: str) -> None:
        """An entry exists but cannot be trusted: degrade to a miss, loudly.

        The entry is renamed aside (atomically, so no reader sees it
        half removed) and deleted, so the run's next :meth:`store`
        writes a fresh one.  Losing the rename to a concurrent process
        is fine: that process removed or replaced it.
        """
        if self.evidence is not None:
            self.evidence("cache.corrupt", key=key)
        entry_dir = self._entry_dir(key)
        try:
            aside = tempfile.mkdtemp(
                prefix=".corrupt-", dir=os.path.dirname(entry_dir)
            )
        except OSError:
            return  # a read-only cache keeps the entry; it stays a miss
        try:
            os.rename(entry_dir, os.path.join(aside, key))
        except OSError:
            pass
        shutil.rmtree(aside, ignore_errors=True)

    @staticmethod
    def storable(outcome) -> bool:
        """Only boring outcomes are cacheable: one attempt, ok, no faults."""
        return (
            len(outcome.attempts) == 1
            and outcome.attempts[0].ok
            and not outcome.fault_events
        )

    def store(self, key: str, outcome, provenance: Optional[Dict[str, Any]] = None) -> bool:
        """Persist one eligible outcome; returns whether it was written.

        Idempotent and atomic: an existing entry is left untouched, a
        new one appears via temp-dir rename so readers never observe a
        half-written entry.
        """
        if not self.storable(outcome):
            return False
        entry_dir = self._entry_dir(key)
        if os.path.isdir(entry_dir):
            return False
        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = {
            "key": key,
            "code_epoch": self.scope.get("code_epoch"),
            "index": outcome.index,
            "loop": dict(outcome.loop_instance),
            "outcome_sha256": hashlib.sha256(blob).hexdigest(),
            "outcome_bytes": len(blob),
            "scope": self.scope,
        }
        manifest.update(provenance or {})
        parent = os.path.dirname(entry_dir)
        os.makedirs(parent, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=parent)
        try:
            with open(os.path.join(staging, OUTCOME_NAME), "wb") as handle:
                handle.write(blob)
            with open(
                os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle, sort_keys=True, indent=2)
                handle.write("\n")
            os.rename(staging, entry_dir)
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)
            # A concurrent writer racing us to the same key stored the
            # same content; losing the rename race is success.
            return os.path.isdir(entry_dir)
        return True

    # -- offline tools (pos cache ls|verify|gc) ------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        """Every entry in the cache, in deterministic key order."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return
        for prefix in sorted(os.listdir(objects)):
            prefix_dir = os.path.join(objects, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for key in sorted(os.listdir(prefix_dir)):
                if key.startswith("."):
                    continue  # an abandoned staging or set-aside dir
                entry_dir = os.path.join(prefix_dir, key)
                manifest_path = os.path.join(entry_dir, MANIFEST_NAME)
                try:
                    with open(manifest_path, "r", encoding="utf-8") as handle:
                        manifest = json.load(handle)
                except (OSError, ValueError):
                    manifest = {}
                yield CacheEntry(key=key, path=entry_dir, manifest=manifest)

    def verify(self) -> Dict[str, List[str]]:
        """Hash-check every entry; returns ``{"ok": [...], "corrupt": [...]}``."""
        report: Dict[str, List[str]] = {"ok": [], "corrupt": []}
        for entry in self.entries():
            report["ok" if entry.ok else "corrupt"].append(entry.key)
        return report

    def gc(self) -> Dict[str, List[str]]:
        """Remove corrupt entries and entries from older code epochs.

        Returns ``{"removed": [...], "kept": [...]}``.  Also sweeps
        abandoned staging directories.
        """
        result: Dict[str, List[str]] = {"removed": [], "kept": []}
        current = self.scope.get("code_epoch")
        for entry in self.entries():
            stale = entry.manifest.get("code_epoch") != current
            if stale or not entry.ok:
                shutil.rmtree(entry.path, ignore_errors=True)
                result["removed"].append(entry.key)
            else:
                result["kept"].append(entry.key)
        objects = os.path.join(self.root, "objects")
        if os.path.isdir(objects):
            for prefix in os.listdir(objects):
                prefix_dir = os.path.join(objects, prefix)
                if not os.path.isdir(prefix_dir):
                    continue
                for name in os.listdir(prefix_dir):
                    if name.startswith("."):
                        shutil.rmtree(
                            os.path.join(prefix_dir, name), ignore_errors=True
                        )
                if not os.listdir(prefix_dir):
                    os.rmdir(prefix_dir)
        return result
