"""Out-of-band node health plane (R3 observability).

The paper's testbed manages nodes through IPMI-class interfaces
precisely because they keep working when the OS does not.  This module
turns that management path into an observability path: a
:class:`HealthMonitor` polls every node's baseboard sensors and System
Event Log *through the power-control plane* (never the transport), so
a wedged host is still fully observable, classifies each node per run
(healthy / degraded / wedged), and produces a per-run health payload
that travels through the scheduler's reorder buffer like any other
run artifact.

Determinism contract (the same one every artifact obeys): the payload
of run *k* is a pure function of the run index — SEL records are
sliced per run against baselines captured at run start and renumbered
run-locally, and sensors depend only on observable chassis state — so
each run's payload (the ``health`` field of its ``journal.jsonl``
record) and the experiment-level ``health.json`` are byte-identical
for any ``--jobs N`` and across crash + resume.

The cross-run health *state machine* is evaluated only in the parent,
in run order (:class:`ExperimentHealth`): worsening observations jump
the state immediately, recovery steps it back one level per clean run.

This module deliberately imports nothing from :mod:`repro.telemetry`
(the telemetry plane imports *it*); the kill switch is ``POS_HEALTH=0``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.core.envcache import EnvSwitch
from repro.core.errors import PowerError
from repro.testbed.power import STANDBY_POWER_W, TEMP_CRITICAL_C

__all__ = [
    "HEALTH_NAME",
    "HEALTHY",
    "DEGRADED",
    "WEDGED",
    "UNMONITORED",
    "health_enabled",
    "advance_state",
    "HealthStateMachine",
    "HealthMonitor",
    "ExperimentHealth",
]

#: File name of the experiment-level aggregate.
HEALTH_NAME = "health.json"

HEALTHY = "healthy"
DEGRADED = "degraded"
WEDGED = "wedged"
#: The node has no pollable BMC surface (e.g. a bare power plug with a
#: controller that predates sensors) — absence of evidence, recorded as
#: such rather than guessed at.
UNMONITORED = "unmonitored"

_LEVEL = {HEALTHY: 0, DEGRADED: 1, WEDGED: 2}
_ORDER = (HEALTHY, DEGRADED, WEDGED)


#: Whether the health plane is on (``POS_HEALTH`` != 0).  Resolved once
#: per world (:mod:`repro.core.envcache`), not per run.
health_enabled = EnvSwitch("POS_HEALTH")


def advance_state(state: str, observation: str) -> str:
    """One step of the per-node health state machine.

    Worsening evidence moves the state immediately (a single wedged
    observation makes the node wedged); improving evidence recovers
    one level per clean run (a wedged node must look healthy twice to
    be trusted again).  An unmonitored observation makes the state
    unmonitored; the first real observation afterwards restores it.
    """
    if observation == UNMONITORED:
        return UNMONITORED
    if state not in _LEVEL:
        return observation
    if _LEVEL[observation] >= _LEVEL[state]:
        return observation
    return _ORDER[_LEVEL[state] - 1]


class HealthStateMachine:
    """healthy → degraded → wedged, per node, driven by observations."""

    def __init__(self, state: str = HEALTHY):
        self.state = state

    def observe(self, observation: str) -> str:
        self.state = advance_state(self.state, observation)
        return self.state


def _monitorable(power) -> bool:
    return power is not None and hasattr(power, "read_sensors") \
        and hasattr(power, "sel")


class HealthMonitor:
    """Polls node health out of band, through the power-control plane.

    Construction captures each node's SEL length as the baseline for
    the upcoming run; :meth:`collect_run` slices every record appended
    since, renumbers the slice run-locally from 0, reads the sensors,
    and classifies the node.  Cumulative per-controller state (total
    SEL length, boot counts) therefore never leaks into a run payload
    — the property that keeps health artifacts identical between a
    sequential execution and any worker sharding.
    """

    def __init__(self, nodes: Dict[str, Any]):
        self._nodes = {name: nodes[name] for name in sorted(nodes)}
        self._sel_base: Dict[str, int] = {}
        for name, node in self._nodes.items():
            power = getattr(node, "power", None)
            if _monitorable(power):
                self._sel_base[name] = len(power.sel)

    @classmethod
    def for_experiment(cls, experiment, node_of) -> "HealthMonitor":
        """Monitor every node the experiment's roles run on."""
        names = dict.fromkeys(role.node for role in experiment.roles)
        return cls({name: node_of(name) for name in names})

    def sample(self) -> Dict[str, Dict[str, Any]]:
        """One live out-of-band poll of every node (no SEL slicing).

        This is the ``pos watch``-style instantaneous view: chassis
        power, sensors, and the observation the sensors alone support.
        Works while the OS is wedged — only the power plane is touched.
        """
        view: Dict[str, Dict[str, Any]] = {}
        for name, node in self._nodes.items():
            power = getattr(node, "power", None)
            if not _monitorable(power):
                view[name] = {"observation": UNMONITORED}
                continue
            sensors = power.read_sensors()
            chassis = self._chassis(power, sensors)
            if chassis != "on":
                observation = WEDGED
            elif sensors["temperature_c"] >= TEMP_CRITICAL_C:
                observation = WEDGED
            else:
                observation = HEALTHY
            view[name] = {
                "chassis": chassis,
                "observation": observation,
                "sensors": sensors,
                "sel_records": len(power.sel),
            }
        return view

    def collect_run(self, run_index: int) -> Dict[str, Any]:
        """Close out one run: slice SELs, read sensors, classify nodes.

        The BMC logs threshold crossings at poll time (a critical-
        temperature record for a host still wedged at run end), so the
        record lands inside this run's slice in every execution mode.
        """
        nodes: Dict[str, Any] = {}
        for name, node in self._nodes.items():
            power = getattr(node, "power", None)
            if not _monitorable(power):
                nodes[name] = {"observation": UNMONITORED, "sel": []}
                continue
            sensors = power.read_sensors()
            if sensors["temperature_c"] >= TEMP_CRITICAL_C:
                power.record_event(
                    "temperature",
                    f"temperature {sensors['temperature_c']:.1f} C above "
                    f"critical threshold {TEMP_CRITICAL_C:.1f} C",
                    "critical",
                )
            base = self._sel_base.get(name, len(power.sel))
            sel = [
                dict(record, id=position)
                for position, record in enumerate(power.sel[base:])
            ]
            chassis = self._chassis(power, sensors)
            nodes[name] = {
                "chassis": chassis,
                "observation": self._classify(chassis, sensors, sel),
                "sel": sel,
                "sensors": sensors,
            }
        return {"run": run_index, "nodes": nodes}

    @staticmethod
    def _chassis(power, sensors: Dict[str, float]) -> str:
        try:
            return power.status()
        except PowerError:
            # Status-less plugs: infer the rail from the power draw.
            return "on" if sensors["power_w"] > 2 * STANDBY_POWER_W else "off"

    @staticmethod
    def _classify(
        chassis: str, sensors: Dict[str, float], sel: List[dict]
    ) -> str:
        if chassis != "on" or sensors["temperature_c"] >= TEMP_CRITICAL_C:
            return WEDGED
        # Any non-routine SEL activity inside the run — a fault record,
        # a threshold crossing, or a mid-run chassis power event (the
        # signature of an R3 recovery cycle) — marks the node degraded.
        for record in sel:
            if record["severity"] != "info" or record["sensor"] == "chassis":
                return DEGRADED
        return HEALTHY


def _new_node_state() -> Dict[str, Any]:
    return {
        "state": HEALTHY,
        "observations": {
            HEALTHY: 0, DEGRADED: 0, WEDGED: 0, UNMONITORED: 0,
        },
        "sel_records": 0,
        "sensors": None,
        "transitions": [],
    }


class ExperimentHealth:
    """Parent-side fold of per-run health payloads, in run order.

    The telemetry plane folds each executed run's payload (which goes
    on into the run's journal record) and each adopted run's payload
    (read back from that record), and finalization writes the
    experiment-level ``health.json``.  Because folding
    happens strictly in run order (the scheduler's reorder buffer
    guarantees it), the cross-run state machine is deterministic under
    any job count.
    """

    def __init__(self, experiment_path: Optional[str] = None):
        self.path = experiment_path
        self._runs = 0
        self._nodes: Dict[str, Dict[str, Any]] = {}

    # -- folding -----------------------------------------------------------

    def fold(self, payload: Optional[dict]) -> None:
        """Account one run's health payload into the experiment state."""
        if not payload:
            return
        run = int(payload.get("run", self._runs))
        self._runs += 1
        for name in sorted(payload.get("nodes", {})):
            entry = payload["nodes"][name]
            node = self._nodes.setdefault(name, _new_node_state())
            observation = entry.get("observation", UNMONITORED)
            counts = node["observations"]
            counts[observation] = counts.get(observation, 0) + 1
            node["sel_records"] += len(entry.get("sel", []))
            if entry.get("sensors") is not None:
                node["sensors"] = dict(entry["sensors"])
            new_state = advance_state(node["state"], observation)
            if new_state != node["state"]:
                node["transitions"].append(
                    {"run": run, "from": node["state"], "to": new_state}
                )
                node["state"] = new_state

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The folded state as plain data (used by the live monitor)."""
        return {
            "runs": self._runs,
            "nodes": {
                name: {
                    "state": node["state"],
                    "observations": dict(node["observations"]),
                    "sel_records": node["sel_records"],
                    "sensors": (
                        None if node["sensors"] is None
                        else dict(node["sensors"])
                    ),
                    "transitions": [dict(t) for t in node["transitions"]],
                }
                for name, node in sorted(self._nodes.items())
            },
        }

    def finalize(self, experiment: str) -> None:
        """Write the experiment-level ``health.json``."""
        if self.path is None:
            return
        payload = dict(self.snapshot(), experiment=experiment)
        with open(
            os.path.join(self.path, HEALTH_NAME), "w", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2))
            handle.write("\n")
