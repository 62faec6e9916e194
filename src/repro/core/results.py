"""Central result collection (R5).

"pos automatically queues one run after another … The complete output
of the experiment script is captured and stored in the result folder of
the experiment.  This enforced central collection of artifacts,
including the output of the utility tools, executed scripts, variables,
device hardware and topology information, guarantees publishability."

The on-disk layout mirrors the original testbed's
``/srv/testbed/results/<user>/<experiment>/<timestamp>/``::

    <root>/<user>/<experiment>/<timestamp>/
        experiment.yml          # experiment-level metadata
        variables.yml           # all three variable scopes
        inventory.yml           # node hardware/software/topology record
        scripts.yml             # the executed scripts, documented
        journal.jsonl           # one fsynced record per run, evidence included
        setup/<role>/…          # setup-phase captures per host
        setup/<role>/status.yml # setup script status per host
        run-000/metadata.yml    # loop parameters and script status per role
        run-000/<role>/…        # measurement captures per host
        run-001/…

A run folder holds its ``metadata.yml`` and the role captures, nothing
else: each role's script status is the ``scripts:`` block of
``metadata.yml``, and the run's telemetry and health evidence live in
its ``journal.jsonl`` record.

The timestamp format matches the artifact repository of the paper
(``2020-10-12_11-20-32_230471``).  The clock is injectable so tests
produce stable paths.
"""

from __future__ import annotations

import datetime as _dt
import os
import time as _time
from typing import Any, Callable, Dict, List, Optional

from repro.core import yamlite
from repro.core.errors import ResultError
from repro.core.scripts import ScriptResult

__all__ = ["ResultStore", "ExperimentDir", "RunDir", "format_timestamp"]


def format_timestamp(epoch: float) -> str:
    """Render an epoch as the pos result-folder timestamp."""
    moment = _dt.datetime.fromtimestamp(epoch, tz=_dt.timezone.utc)
    return moment.strftime("%Y-%m-%d_%H-%M-%S_%f")


class RunDir:
    """Result folder of a single measurement run.

    ``attempt`` distinguishes retries of the same run index: attempt 0
    lives in ``run-NNN``, later attempts in ``run-NNN-retry`` /
    ``run-NNN-retry2`` / …, so a recovery retry never overwrites the
    failed attempt's artifacts — the failure evidence is preserved.
    """

    def __init__(self, path: str, index: int, attempt: int = 0):
        self.path = path
        self.index = index
        self.attempt = attempt
        os.makedirs(path, exist_ok=True)

    def write_metadata(self, loop_instance: Dict[str, Any], extra: Optional[dict] = None) -> None:
        """Record the loop parameters that define this run (and ``extra``,
        e.g. the ``scripts:`` status block)."""
        payload: Dict[str, Any] = {"run": self.index, "loop": dict(loop_instance)}
        if self.attempt:
            payload["attempt"] = self.attempt
        if extra:
            payload.update(extra)
        yamlite.dump_file(payload, os.path.join(self.path, "metadata.yml"))

    def record_script(self, result: ScriptResult) -> Dict[str, Any]:
        """Store everything a script produced, under its role's folder.

        Returns the script's status (``script``, ``phase``, ``ok`` and
        any ``error``) for the caller to record once per run.
        """
        role_dir = os.path.join(self.path, result.role)
        os.makedirs(role_dir, exist_ok=True)
        if result.commands:
            lines = []
            for command in result.commands:
                lines.append(f"$ {command.command}")
                if command.stdout:
                    lines.append(command.stdout)
                lines.append(f"(exit {command.exit_code})")
            _write_text(os.path.join(role_dir, "commands.log"), "\n".join(lines) + "\n")
        for name, content in result.uploads:
            _write_text(os.path.join(role_dir, _safe_filename(name)), content)
        if result.log_lines:
            _write_text(
                os.path.join(role_dir, "pos.log"), "\n".join(result.log_lines) + "\n"
            )
        status = {
            "script": result.script,
            "phase": result.phase,
            "ok": result.ok,
        }
        if result.error:
            status["error"] = result.error
        return status


class ExperimentDir:
    """Result folder of a whole experiment."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self._run_dirs: List[RunDir] = []

    def write_metadata(self, metadata: Dict[str, Any]) -> None:
        yamlite.dump_file(metadata, os.path.join(self.path, "experiment.yml"))

    def write_variables(self, variables: Dict[str, Any]) -> None:
        yamlite.dump_file(variables, os.path.join(self.path, "variables.yml"))

    def write_inventory(self, inventory: Dict[str, Any]) -> None:
        yamlite.dump_file(inventory, os.path.join(self.path, "inventory.yml"))

    def write_scripts(self, scripts: List[dict]) -> None:
        yamlite.dump_file({"scripts": scripts}, os.path.join(self.path, "scripts.yml"))

    def setup_dir(self, role: str) -> str:
        path = os.path.join(self.path, "setup", role)
        os.makedirs(path, exist_ok=True)
        return path

    def record_setup_script(self, result: ScriptResult) -> None:
        """Setup captures live under ``setup/<role>/`` at experiment level,
        with the script's status in ``setup/<role>/status.yml``."""
        run_like = RunDir(os.path.join(self.path, "setup"), index=-1)
        status = run_like.record_script(result)
        yamlite.dump_file(
            status, os.path.join(run_like.path, result.role, "status.yml")
        )

    @staticmethod
    def run_dir_name(index: int, attempt: int = 0) -> str:
        base = f"run-{index:03d}"
        if attempt == 0:
            return base
        if attempt == 1:
            return f"{base}-retry"
        return f"{base}-retry{attempt}"

    def create_run_dir(self, index: int) -> RunDir:
        """Create the next attempt's folder for run ``index``.

        If ``run-NNN`` already exists (a recovery retry in this
        execution, or a resumed re-execution of a failed run), the new
        attempt goes to ``run-NNN-retry[K]`` instead of silently
        reusing — and overwriting — the earlier attempt's artifacts.
        """
        attempt = 0
        while True:
            name = self.run_dir_name(index, attempt)
            path = os.path.join(self.path, name)
            if not os.path.isdir(path):
                break
            attempt += 1
        run_dir = RunDir(path, index, attempt=attempt)
        self._run_dirs.append(run_dir)
        return run_dir

    def adopt_run_dir(self, index: int, name: Optional[str] = None) -> RunDir:
        """Register an existing run folder without touching its contents.

        Used on resume for runs the journal records as completed: their
        metadata must stay byte-identical, so nothing is rewritten.
        """
        name = name or self.run_dir_name(index)
        path = os.path.join(self.path, name)
        if not os.path.isdir(path):
            raise ResultError(f"cannot adopt missing run folder {path}")
        run_dir = RunDir.__new__(RunDir)
        run_dir.path = path
        run_dir.index = index
        run_dir.attempt = _attempt_from_name(name)
        self._run_dirs.append(run_dir)
        return run_dir

    @property
    def run_dirs(self) -> List[RunDir]:
        return list(self._run_dirs)


class ResultStore:
    """Root of the central result tree."""

    def __init__(self, root: str, clock: Optional[Callable[[], float]] = None):
        self.root = root
        self._clock = clock or _time.time
        os.makedirs(root, exist_ok=True)

    def create_experiment_dir(self, user: str, experiment: str) -> ExperimentDir:
        """Create ``<root>/<user>/<experiment>/<timestamp>/``, collision-free."""
        stamp = format_timestamp(self._clock())
        path = os.path.join(self.root, _safe_name(user), _safe_name(experiment), stamp)
        if os.path.exists(path):
            # Same-microsecond collision (possible with a frozen test
            # clock): disambiguate deterministically.
            suffix = 1
            while os.path.exists(f"{path}-{suffix}"):
                suffix += 1
            path = f"{path}-{suffix}"
        return ExperimentDir(path)

    def experiments_for(self, user: str, experiment: str) -> List[str]:
        """All result timestamps recorded for one experiment, sorted."""
        base = os.path.join(self.root, _safe_name(user), _safe_name(experiment))
        if not os.path.isdir(base):
            return []
        return sorted(
            entry for entry in os.listdir(base)
            if os.path.isdir(os.path.join(base, entry))
        )

    def latest(self, user: str, experiment: str) -> str:
        """Path of the most recent result folder for an experiment."""
        stamps = self.experiments_for(user, experiment)
        if not stamps:
            raise ResultError(f"no results for {user}/{experiment} under {self.root}")
        return os.path.join(
            self.root, _safe_name(user), _safe_name(experiment), stamps[-1]
        )


def _attempt_from_name(name: str) -> int:
    """Parse the attempt number back out of a run-folder name."""
    if "-retry" not in name:
        return 0
    suffix = name.rsplit("-retry", 1)[1]
    return int(suffix) if suffix else 1


def _safe_name(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_. " else "_" for ch in name
    ).strip()
    if not cleaned or cleaned.startswith("."):
        raise ResultError(f"cannot derive a safe path component from {name!r}")
    return cleaned.replace(" ", "_")


def _safe_filename(name: str) -> str:
    """Sanitize an upload name: no separators, no traversal, never empty.

    Upload names come from experiment scripts; a hostile or buggy name
    must not escape the run directory, but it also must not abort the
    capture — the artifact is renamed instead.
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    ).lstrip(".")
    while ".." in cleaned:
        cleaned = cleaned.replace("..", "_")
    return cleaned or "unnamed"


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
