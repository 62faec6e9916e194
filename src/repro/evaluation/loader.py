"""Result-tree loader.

Walks the central result layout written by
:mod:`repro.core.results` and joins every run's captured outputs with
its loop-parameter metadata: "pos creates separate result files for
each measurement run.  Additionally, pos creates metadata for each run
… Based on this metadata, the evaluation script can filter or
aggregate specific parameters and values."
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core import yamlite
from repro.core.errors import ResultError
from repro.evaluation.moongen_parser import MoonGenOutput, parse_moongen_output

__all__ = [
    "RunResult",
    "ExperimentResults",
    "load_experiment",
    "extract_command_output",
    "is_evaluation_input",
]

#: Top-level files :func:`load_experiment` reads: metadata, variables,
#: inventory.
_TOP_LEVEL_INPUTS = ("experiment.yml", "variables.yml", "inventory.yml")


def is_evaluation_input(relative: str) -> bool:
    """Whether :func:`load_experiment` reads the file at ``relative``.

    ``relative`` is a ``/``-separated path under the result folder.
    The loader reads the three top-level YAML files, each run folder's
    ``metadata.yml`` (loop parameters and script status), and every
    file directly inside a run folder's role directories — nothing
    else.
    """
    parts = relative.split("/")
    if len(parts) == 1:
        return relative in _TOP_LEVEL_INPUTS
    if not parts[0].startswith("run-"):
        return False
    return len(parts) == 3 or (len(parts) == 2 and parts[1] == "metadata.yml")


def extract_command_output(commands_log: str, command_name: str) -> Optional[str]:
    """Pull one command's captured output out of a ``commands.log``.

    The capture format interleaves ``$ <command>``, the output lines,
    and ``(exit N)``.  Returns the output of the *first* successful
    invocation whose command line starts with ``command_name``, or None.
    """
    lines = commands_log.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith("$ ") and line[2:].split(None, 1)[0] == command_name:
            body: List[str] = []
            index += 1
            while index < len(lines) and not lines[index].startswith("(exit "):
                body.append(lines[index])
                index += 1
            exit_ok = index < len(lines) and lines[index] == "(exit 0)"
            if exit_ok and body:
                return "\n".join(body) + "\n"
        index += 1
    return None


@dataclass
class RunResult:
    """One measurement run: metadata plus everything each role uploaded."""

    index: int
    loop: Dict[str, Any]
    #: retry attempt this capture belongs to (0 = the original folder,
    #: 1 = ``run-NNN-retry``, …)
    attempt: int = 0
    #: role → filename → content
    outputs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: role → script status (the ``scripts:`` block of ``metadata.yml``,
    #: or a role's ``status.yml`` in trees of the older layout)
    status: Dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """A run is good when every recorded role reported ok."""
        return all(entry.get("ok", False) for entry in self.status.values())

    def output(self, role: str, name: str) -> str:
        """Fetch one captured file; raises with a helpful message."""
        files = self.outputs.get(role)
        if files is None:
            raise ResultError(
                f"run {self.index}: no outputs for role {role!r} "
                f"(roles: {', '.join(sorted(self.outputs)) or 'none'})"
            )
        if name not in files:
            raise ResultError(
                f"run {self.index}: role {role!r} has no file {name!r} "
                f"(files: {', '.join(sorted(files))})"
            )
        return files[name]

    def moongen(self, role: str = "loadgen", name: str = "moongen.log") -> MoonGenOutput:
        """Parse the run's MoonGen log.

        Python-scripted experiments upload ``moongen.log`` explicitly;
        pure command-script experiments run the ``moongen`` command,
        whose output lands in the captured ``commands.log`` — when the
        named file is absent, the MoonGen block is extracted from there.
        """
        files = self.outputs.get(role, {})
        if name in files:
            return parse_moongen_output(files[name])
        if "commands.log" in files:
            block = extract_command_output(files["commands.log"], "moongen")
            if block is not None:
                return parse_moongen_output(block)
        # Fall through to the precise missing-file error.
        return parse_moongen_output(self.output(role, name))


@dataclass
class ExperimentResults:
    """A fully loaded experiment result folder."""

    path: str
    metadata: Dict[str, Any]
    variables: Dict[str, Any]
    inventory: Dict[str, Any]
    runs: List[RunResult] = field(default_factory=list)
    #: Earlier attempts of runs that were later retried (failure
    #: evidence from recovery/resume); never mixed into :attr:`runs`.
    superseded: List[RunResult] = field(default_factory=list)
    #: ``/``-separated relative path → SHA-256 of every file
    #: :func:`load_experiment` read; None for results built otherwise.
    digests: Optional[Dict[str, str]] = None

    @property
    def name(self) -> str:
        return str(self.metadata.get("name", os.path.basename(self.path)))

    def successful_runs(self) -> List[RunResult]:
        return [run for run in self.runs if run.ok]

    def filter(self, **loop_values: Any) -> List[RunResult]:
        """Runs whose loop parameters match every given value."""
        matched = []
        for run in self.runs:
            if all(run.loop.get(key) == value for key, value in loop_values.items()):
                matched.append(run)
        return matched

    def loop_values(self, key: str) -> List[Any]:
        """Distinct values a loop parameter took, in first-seen order."""
        seen: List[Any] = []
        for run in self.runs:
            value = run.loop.get(key)
            if value not in seen:
                seen.append(value)
        return seen


def _read_text(results: ExperimentResults, relative: str) -> Optional[str]:
    """The text of one file under the result folder, or None.

    Records the SHA-256 of the bytes read, then decodes them as text
    mode would (UTF-8, universal newlines).
    """
    path = os.path.join(results.path, relative)
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    results.digests[relative] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _parse_yaml(text: Optional[str]) -> dict:
    loaded = yamlite.loads(text) if text is not None else None
    return loaded if isinstance(loaded, dict) else {}


def _load_role_dirs(results: ExperimentResults, entry: str, run: RunResult) -> None:
    run_path = os.path.join(results.path, entry)
    for role in sorted(os.listdir(run_path)):
        role_path = os.path.join(run_path, role)
        if not os.path.isdir(role_path):
            continue
        files: Dict[str, str] = {}
        for filename in sorted(os.listdir(role_path)):
            text = _read_text(results, f"{entry}/{role}/{filename}")
            if text is None:
                continue
            if filename == "status.yml":  # older layout: status per role
                run.status[role] = _parse_yaml(text)
            else:
                files[filename] = text
        run.outputs[role] = files


def load_experiment(path: str) -> ExperimentResults:
    """Load one experiment result folder (the ``[timestamp]`` directory).

    The loaded results carry the digest of every file read
    (:attr:`ExperimentResults.digests`); :func:`is_evaluation_input`
    names the same files from a path alone.
    """
    if not os.path.isdir(path):
        raise ResultError(f"no such result folder: {path}")
    results = ExperimentResults(
        path=path, metadata={}, variables={}, inventory={}, digests={},
    )
    results.metadata, results.variables, results.inventory = (
        _parse_yaml(_read_text(results, name)) for name in _TOP_LEVEL_INPUTS
    )
    run_entries = sorted(
        entry for entry in os.listdir(path)
        if entry.startswith("run-") and os.path.isdir(os.path.join(path, entry))
    )
    # A retried run leaves several folders for the same index
    # (``run-003``, ``run-003-retry``, …).  Only the newest attempt
    # counts as *the* run; earlier attempts are kept as superseded
    # failure evidence so an evaluation never double-counts an index.
    by_index: Dict[int, List[RunResult]] = {}
    for entry in run_entries:
        metadata = _parse_yaml(_read_text(results, f"{entry}/metadata.yml"))
        index = int(metadata.get("run", _index_from_name(entry)))
        attempt = int(metadata.get("attempt", _attempt_from_name(entry)))
        scripts = metadata.get("scripts")
        if not isinstance(scripts, dict):
            scripts = {}  # older layout: each role's status.yml
        run = RunResult(
            index=index, loop=dict(metadata.get("loop", {})), attempt=attempt,
            status={role: dict(status) for role, status in scripts.items()},
        )
        _load_role_dirs(results, entry, run)
        by_index.setdefault(index, []).append(run)
    for index in sorted(by_index):
        attempts = sorted(by_index[index], key=lambda run: run.attempt)
        results.runs.append(attempts[-1])
        results.superseded.extend(attempts[:-1])
    return results


def _index_from_name(name: str) -> int:
    """Parse the run index out of a folder name like ``run-003-retry``."""
    return int(name.split("-")[1])


def _attempt_from_name(name: str) -> int:
    if "-retry" not in name:
        return 0
    suffix = name.rsplit("-retry", 1)[1]
    return int(suffix) if suffix else 1
