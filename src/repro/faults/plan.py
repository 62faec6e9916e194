"""Deterministic, seeded fault plans.

A :class:`FaultPlan` declares *which* faults strike an experiment and
*where*: each :class:`FaultSpec` names a typed fault kind, optionally
pinned to a node, a management-plane operation, and a set of run
indices, with a firing budget (``times``) and an optional probability.
Probabilistic specs draw from a PRNG seeded per spec from the plan
seed, so the same plan against the same experiment produces the same
fault sequence — flaky infrastructure, replayed exactly.

Fault kinds and the layer they strike:

========== =========================== ===============================
kind       layer / operation           effect
========== =========================== ===============================
power      power control               ``PowerError`` (BMC failure)
transport  transport connect/execute/  ``TransportError`` (session or
           file transfer               command loss)
timeout    transport execute           ``TransportTimeout`` (slow or
                                       hung command)
boot       transport connect           ``TransportError`` — the host
                                       never comes up (boot hang)
script     transport execute           the command *returns* a failing
                                       exit code (script error)
wedge      transport execute           the host wedges (OS stops
                                       responding) and the command
                                       fails — only an out-of-band
                                       power cycle recovers it
agent      distributed execution       the node agent dies (SIGKILL)
           plane (``repro.dist``)      before (``kill``) or after
                                       (``kill-after``) executing a
                                       dispatched run
========== =========================== ===============================

The ``agent`` kind — and ``transport`` specs whose ``operation`` is a
bus verb (``drop``/``duplicate``/``delay``, optionally suffixed with an
envelope kind, e.g. ``drop:result``) — only strike in the distributed
execution plane (``--dist-fault-plan``); the in-world wrappers never
consult them.

Plans load from YAML files (``--fault-plan`` on the CLI)::

    seed: 42
    faults:
      - kind: power
        node: tartu
        runs: [3]
      - kind: script
        node: tartu
        runs: [7, 11]
      - kind: timeout
        probability: 0.1
        times: 2
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import FaultPlanError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultEvent", "FaultPlan", "load_fault_plan"]

#: Every fault kind the injection plane understands.
FAULT_KINDS: Tuple[str, ...] = (
    "power",
    "transport",
    "timeout",
    "boot",
    "script",
    "wedge",
    "agent",
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what strikes, where, and how often.

    ``None`` fields are wildcards: a spec with ``node=None`` matches
    every node, ``operation=None`` every operation of its layer, and
    ``runs=None`` every run index *including* the setup and boot phases
    (which carry no run index).  ``times=None`` removes the firing
    budget — the fault keeps striking until the matcher stops matching.
    """

    kind: str
    node: Optional[str] = None
    operation: Optional[str] = None
    runs: Optional[Tuple[int, ...]] = None
    times: Optional[int] = 1
    probability: float = 1.0
    message: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.runs is not None:
            object.__setattr__(self, "runs", tuple(int(r) for r in self.runs))
        if self.times is not None and self.times < 1:
            raise FaultPlanError(f"times must be positive, got {self.times}")
        if not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in (0, 1], got {self.probability}"
            )

    def matches(
        self, kinds: Sequence[str], operation: str, node: Optional[str],
        run_index: Optional[int],
    ) -> bool:
        if self.kind not in kinds:
            return False
        if self.node is not None and self.node != node:
            return False
        if self.operation is not None and self.operation != operation:
            return False
        if self.runs is not None and run_index not in self.runs:
            return False
        return True

    def describe(self) -> dict:
        info: Dict[str, Any] = {"kind": self.kind}
        if self.node is not None:
            info["node"] = self.node
        if self.operation is not None:
            info["operation"] = self.operation
        if self.runs is not None:
            info["runs"] = list(self.runs)
        info["times"] = self.times
        if self.probability < 1.0:
            info["probability"] = self.probability
        return info


@dataclass
class FaultEvent:
    """One fault that actually fired, recorded for the artifact trail."""

    kind: str
    operation: str
    node: Optional[str]
    run_index: Optional[int]
    spec_index: int

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "operation": self.operation,
            "node": self.node,
            "run_index": self.run_index,
            "spec": self.spec_index,
        }


class FaultPlan:
    """An ordered collection of fault specs with a shared seed."""

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self._fired: List[int] = [0] * len(self.specs)
        # One PRNG per spec, seeded from (plan seed, spec index), so
        # adding a spec never perturbs the draws of the others.
        self._rngs = [
            random.Random(f"{seed}:{index}") for index in range(len(self.specs))
        ]

    def fire(
        self,
        kinds: Sequence[str],
        operation: str,
        node: Optional[str],
        run_index: Optional[int],
    ) -> Optional[Tuple[int, FaultSpec]]:
        """Consume and return the first spec that strikes, if any."""
        for index, spec in enumerate(self.specs):
            if not spec.matches(kinds, operation, node, run_index):
                continue
            if spec.times is not None and self._fired[index] >= spec.times:
                continue
            if spec.probability < 1.0 and self._rngs[index].random() >= spec.probability:
                continue
            self._fired[index] += 1
            return index, spec
        return None

    def fired_counts(self) -> List[int]:
        return list(self._fired)

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.describe() for spec in self.specs],
        }


def _require(mapping: dict, context: str) -> dict:
    if not isinstance(mapping, dict):
        raise FaultPlanError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    return mapping


def fault_plan_from_dict(data: dict) -> FaultPlan:
    """Build a plan from a parsed plan document."""
    data = _require(data, "fault plan")
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise FaultPlanError(f"fault plan seed must be an integer, got {seed!r}")
    raw_specs = data.get("faults", [])
    if not isinstance(raw_specs, list):
        raise FaultPlanError("fault plan 'faults' must be a sequence")
    specs: List[FaultSpec] = []
    allowed = {"kind", "node", "operation", "runs", "times", "probability", "message"}
    for position, raw in enumerate(raw_specs):
        entry = _require(raw, f"fault #{position}")
        unknown = set(entry) - allowed
        if unknown:
            raise FaultPlanError(
                f"fault #{position}: unknown field(s) {', '.join(sorted(unknown))}"
            )
        if "kind" not in entry:
            raise FaultPlanError(f"fault #{position}: missing 'kind'")
        runs = entry.get("runs")
        if runs is not None:
            if isinstance(runs, int):
                runs = [runs]
            if not isinstance(runs, list):
                raise FaultPlanError(f"fault #{position}: 'runs' must be a list")
        specs.append(
            FaultSpec(
                kind=entry["kind"],
                node=entry.get("node"),
                operation=entry.get("operation"),
                runs=tuple(runs) if runs is not None else None,
                times=entry.get("times", 1),
                probability=float(entry.get("probability", 1.0)),
                message=entry.get("message"),
            )
        )
    return FaultPlan(specs, seed=seed)


def load_fault_plan(path: str) -> FaultPlan:
    """Load a fault plan from a YAML file (the ``--fault-plan`` format)."""
    from repro.core import yamlite
    from repro.core.errors import YamlError

    try:
        document = yamlite.load_file(path)
    except (OSError, YamlError) as exc:
        raise FaultPlanError(f"cannot load fault plan {path}: {exc}") from exc
    return fault_plan_from_dict(document)
