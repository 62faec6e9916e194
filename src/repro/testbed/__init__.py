"""Testbed substrate: nodes, power control, transports, images,
topology, and the canonical pos/vpos scenario builders."""

from repro.testbed.health import (
    ExperimentHealth,
    HealthMonitor,
    HealthStateMachine,
)
from repro.testbed.images import ImageRegistry, ImageSpec, default_registry
from repro.testbed.node import Node, NodeState
from repro.testbed.power import (
    AmdProController,
    FlakyPowerControl,
    IpmiController,
    PowerControl,
    SwitchablePowerPlug,
    VProController,
)
from repro.testbed.scenarios import TestbedSetup, build_pos_pair, build_vpos_pair
from repro.testbed.topology import Topology, Wire
from repro.testbed.firmware import (
    DellBiosAdapter,
    FirmwareManager,
    SupermicroBiosAdapter,
)
from repro.testbed.local import make_local_node
from repro.testbed.vposservice import VposInstance, VposService
from repro.testbed.transport import (
    HttpTransport,
    LocalTransport,
    SnmpTransport,
    SshTransport,
    Transport,
)

__all__ = [
    "ExperimentHealth",
    "HealthMonitor",
    "HealthStateMachine",
    "ImageRegistry",
    "ImageSpec",
    "default_registry",
    "Node",
    "NodeState",
    "AmdProController",
    "FlakyPowerControl",
    "IpmiController",
    "PowerControl",
    "SwitchablePowerPlug",
    "VProController",
    "TestbedSetup",
    "build_pos_pair",
    "build_vpos_pair",
    "Topology",
    "Wire",
    "make_local_node",
    "VposInstance",
    "VposService",
    "DellBiosAdapter",
    "FirmwareManager",
    "SupermicroBiosAdapter",
    "HttpTransport",
    "LocalTransport",
    "SnmpTransport",
    "SshTransport",
    "Transport",
]
