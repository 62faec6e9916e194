"""Canonical testbed setups for the paper's case study.

Two builders mirror the two platforms of Section 5:

* :func:`build_pos_pair` — the hardware testbed: MoonGen on *riga*
  drives the bare-metal Linux router *tartu* over directly wired
  10 GbE ports (Intel 82599 class), managed by the controller *kaunas*.
* :func:`build_vpos_pair` — the virtual clone: the same logical
  experiment runs in KVM guests (*vriga*, *vtartu*) pinned to fixed
  cores on the physical DuT hardware, connected by Linux bridges, and
  managed by *vkaunas*.

Both return a :class:`TestbedSetup` exposing the same surface, which is
the property the paper highlights: "the underlying experiment scripts,
result file format, and subsequent processing scripts are the same for
both setups".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import ExperimentError
from repro.loadgen.moongen import MoonGen
from repro.netsim.bridge import LinuxBridge
from repro.netsim.engine import Simulator
from repro.netsim.host import SimHost
from repro.netsim.link import DirectWire
from repro.netsim.nic import HardwareNic, Nic, VirtioNic
from repro.netsim.router import LinuxRouter
from repro.netsim.vm import Hypervisor, VirtualizedLinuxRouter
from repro.testbed.images import ImageRegistry, default_registry
from repro.testbed.node import Node
from repro.testbed.power import IpmiController

from repro.testbed.topology import Topology
from repro.testbed.transport import SshTransport

__all__ = [
    "TestbedSetup",
    "build_pos_pair",
    "build_vpos_pair",
    "RUN_EPOCH_BASE",
    "RUN_EPOCH_STRIDE",
    "RUN_SEED_STRIDE",
]

#: Simulated time each run's clock is aligned to: run *k* always starts
#: at exactly ``RUN_EPOCH_BASE + k * RUN_EPOCH_STRIDE`` seconds.  Pinning
#: runs to canonical absolute epochs makes every timestamp inside a run a
#: bit-identical float regardless of which runs (on which worker) came
#: before it — the keystone of ``--jobs N`` determinism.
RUN_EPOCH_BASE = 1000.0
RUN_EPOCH_STRIDE = 100.0

#: Stride between per-run seed blocks (a prime, so run seeds never
#: collide with the small hand-picked component offsets within a block).
RUN_SEED_STRIDE = 7919


@dataclass
class TestbedSetup:
    """Everything an experiment script needs to drive a testbed."""

    platform: str
    sim: Simulator
    topology: Topology
    nodes: Dict[str, Node]
    loadgen: MoonGen
    router: LinuxRouter
    images: ImageRegistry
    hypervisor: Optional[Hypervisor] = None
    bridges: List[LinuxBridge] = field(default_factory=list)
    #: Base seed all per-run component seeds are derived from.
    seed: int = 0
    #: Statistics snapshot taken at the start of the current run; the
    #: DuT measurement script reports per-run deltas against it.
    run_baseline: Optional[dict] = None

    def begin_run(self, run_index: int) -> None:
        """Isolate the upcoming run from all execution history.

        Called by the controller before each measurement run (the
        *run-isolation hook*).  Three steps:

        1. **Epoch alignment** — fast-forward the simulator to the
           run's canonical epoch (``RUN_EPOCH_BASE + index * STRIDE``),
           draining every leftover event (in-flight frames, backlogs,
           pause releases) of the previous run along the way.  Every
           run thus starts at the same absolute simulated time under
           any job partition, so float arithmetic inside the run is
           bit-identical.
        2. **Reseeding** — every stochastic component restarts from a
           seed derived only from the testbed seed and the run index.
        3. **Baseline snapshot** — cumulative DuT counters are recorded
           so measurement scripts can report this run's deltas.
        """
        epoch = RUN_EPOCH_BASE + RUN_EPOCH_STRIDE * run_index
        if self.hypervisor is not None:
            # Stop the quantum timer first so the fast-forward does not
            # grind through thousands of idle preemption events; the
            # reseed below restarts it phase-aligned to the epoch.
            self.hypervisor.stop()
        if self.sim.now > epoch:
            raise ExperimentError(
                f"run {run_index}: simulated time {self.sim.now:.3f}s is "
                f"already past the run epoch {epoch:.3f}s; increase "
                f"RUN_EPOCH_STRIDE"
            )
        if self.sim.now < epoch:
            self.sim.run(until=epoch)
        seed0 = self.seed + RUN_SEED_STRIDE * (run_index + 1)
        reseed_router = getattr(self.router, "reseed", None)
        if reseed_router is not None:
            reseed_router(seed0)
        if self.hypervisor is not None:
            self.hypervisor.reseed(seed0 + 1)
        self.loadgen.reseed(seed0 + 2)
        self.run_baseline = {
            "router": self.router.stats.snapshot(),
            "nics": {
                port.name: port.stats.snapshot() for port in self.router.ports
            },
        }

    @property
    def loadgen_node(self) -> Node:
        """The node acting as load generator."""
        return self.nodes[self._role_names()[0]]

    @property
    def dut_node(self) -> Node:
        """The node acting as device under test."""
        return self.nodes[self._role_names()[1]]

    def _role_names(self):
        if self.platform == "pos":
            return ("riga", "tartu")
        return ("vriga", "vtartu")

    def describe(self) -> dict:
        """Full setup record for the experiment artifacts."""
        info = {
            "platform": self.platform,
            "topology": self.topology.describe(),
            "nodes": {name: node.describe() for name, node in self.nodes.items()},
            "dut_model": self.router.describe(),
        }
        if self.bridges:
            info["bridges"] = [bridge.describe() for bridge in self.bridges]
        return info


def _make_host_with_nics(
    sim: Simulator,
    name: str,
    nic_class,
    interfaces=("eno1", "eno2"),
    line_rate_bps: float = 10e9,
    **host_kwargs,
) -> SimHost:
    host = SimHost(name, interfaces=list(interfaces), **host_kwargs)
    for iface_name, iface in host.interfaces.items():
        iface.nic = nic_class(sim, f"{name}.{iface_name}", line_rate_bps=line_rate_bps)
    return host


def _install_moongen_command(host: SimHost, sim: Simulator, moongen: MoonGen) -> None:
    """Expose MoonGen as a shell command on the load generator.

    Lets pure command-script experiments (the exportable artifact-folder
    form) drive the generator::

        moongen --rate 100000 --size 64 --duration 0.3 [--flows N]

    The command blocks until the run (plus drain time) completed and
    prints the MoonGen report, which the capture machinery stores and
    the evaluation parser understands.
    """

    def handler(args):
        from repro.loadgen.moongen import format_report

        options = {"rate": None, "size": None, "duration": None,
                   "flows": "1", "interval": None}
        index = 0
        while index < len(args):
            flag = args[index]
            if not flag.startswith("--") or flag[2:] not in options:
                return 2, f"moongen: unknown argument {flag!r}"
            if index + 1 >= len(args):
                return 2, f"moongen: {flag} expects a value"
            options[flag[2:]] = args[index + 1]
            index += 2
        missing = [key for key in ("rate", "size", "duration")
                   if options[key] is None]
        if missing:
            return 2, "moongen: missing " + ", ".join(f"--{m}" for m in missing)
        try:
            rate = float(options["rate"])
            size = int(options["size"])
            duration = float(options["duration"])
            flows = int(options["flows"])
            interval = (
                float(options["interval"]) if options["interval"] else duration / 5
            )
        except ValueError as exc:
            return 2, f"moongen: bad value: {exc}"
        try:
            job = moongen.start(
                rate_pps=rate, frame_size=size, duration_s=duration,
                interval_s=interval, flows=flows,
            )
            until = sim.now + duration + 0.05
            job.check_drained(until)
        except Exception as exc:  # noqa: BLE001 - report as command failure
            return 1, f"moongen: {exc}"
        sim.run(until=until)
        return 0, format_report(job).rstrip("\n")

    host.register_command("moongen", handler)


def _make_node(name: str, host: SimHost, power_class=IpmiController) -> Node:
    return Node(
        name,
        host=host,
        power=power_class(host),
        transport=SshTransport(host),
    )


def build_pos_pair(
    sim: Optional[Simulator] = None,
    images: Optional[ImageRegistry] = None,
    link_kind: str = "direct",
    link_kwargs: Optional[dict] = None,
    seed: int = 0,
) -> TestbedSetup:
    """The hardware testbed of the case study (Fig. 3a).

    ``link_kind`` selects the interconnect between LoadGen and DuT —
    the default direct wiring, or the optical-L1 / cut-through switch
    models for the isolation experiments of Sec. 7.
    """
    sim = sim or Simulator()
    images = images or default_registry()
    loadgen_host = _make_host_with_nics(sim, "riga", HardwareNic)
    dut_host = _make_host_with_nics(sim, "tartu", HardwareNic)

    router = LinuxRouter(sim, name="tartu-router")
    router.add_port(dut_host.interfaces["eno1"].nic)
    router.add_port(dut_host.interfaces["eno2"].nic)
    router.gate = lambda: dut_host.forwarding_enabled

    moongen = MoonGen(
        sim,
        tx_nic=loadgen_host.interfaces["eno1"].nic,
        rx_nic=loadgen_host.interfaces["eno2"].nic,
        seed=seed + 2,
    )
    _install_moongen_command(loadgen_host, sim, moongen)

    topology = Topology(sim, controller_name="kaunas")
    nodes = {
        "riga": topology.add_node(_make_node("riga", loadgen_host)),
        "tartu": topology.add_node(_make_node("tartu", dut_host)),
    }
    topology.wire("riga", "eno1", "tartu", "eno1", kind=link_kind, **(link_kwargs or {}))
    topology.wire("tartu", "eno2", "riga", "eno2", kind=link_kind, **(link_kwargs or {}))
    topology.validate()
    return TestbedSetup(
        platform="pos",
        sim=sim,
        topology=topology,
        nodes=nodes,
        loadgen=moongen,
        router=router,
        images=images,
        seed=seed,
    )


def build_vpos_pair(
    sim: Optional[Simulator] = None,
    images: Optional[ImageRegistry] = None,
    seed: int = 0,
) -> TestbedSetup:
    """The virtual testbed of the case study (Fig. 3b).

    Two KVM guests with virtio NICs, joined by two Linux bridges on the
    physical host, a hypervisor preempting the DuT guest's vCPU, and a
    virtualization cost model on the forwarding path.  ``seed`` makes
    each measurement run's stochastic behaviour reproducible.
    """
    sim = sim or Simulator()
    images = images or default_registry()
    loadgen_host = _make_host_with_nics(
        sim, "vriga", VirtioNic, cpu_model="KVM vCPU (pinned)", cores=4, memory_gb=8
    )
    dut_host = _make_host_with_nics(
        sim, "vtartu", VirtioNic, cpu_model="KVM vCPU (pinned)", cores=4, memory_gb=8
    )

    router = VirtualizedLinuxRouter(sim, name="vtartu-router", seed=seed)
    router.add_port(dut_host.interfaces["eno1"].nic)
    router.add_port(dut_host.interfaces["eno2"].nic)
    router.gate = lambda: dut_host.forwarding_enabled

    hypervisor = Hypervisor(sim, seed=seed + 1)
    hypervisor.attach(router)

    moongen = MoonGen(
        sim,
        tx_nic=loadgen_host.interfaces["eno1"].nic,
        rx_nic=loadgen_host.interfaces["eno2"].nic,
        seed=seed + 2,
    )
    _install_moongen_command(loadgen_host, sim, moongen)

    # Two Linux bridges on the physical host connect the guests: one for
    # the forward direction, one for the return path, mirroring the
    # direct wiring of the hardware testbed.
    bridges: List[LinuxBridge] = []
    for index, (a_host, a_port, b_host, b_port) in enumerate(
        [
            (loadgen_host, "eno1", dut_host, "eno1"),
            (dut_host, "eno2", loadgen_host, "eno2"),
        ]
    ):
        bridge = LinuxBridge(sim, name=f"br{index}")
        side_a = Nic(sim, f"br{index}.vnet0")
        side_b = Nic(sim, f"br{index}.vnet1")
        bridge.add_port(side_a)
        bridge.add_port(side_b)
        DirectWire(sim, a_host.interfaces[a_port].nic, side_a, length_m=0.0)
        DirectWire(sim, side_b, b_host.interfaces[b_port].nic, length_m=0.0)
        bridges.append(bridge)

    topology = Topology(sim, controller_name="vkaunas")
    nodes = {
        "vriga": topology.add_node(_make_node("vriga", loadgen_host)),
        "vtartu": topology.add_node(_make_node("vtartu", dut_host)),
    }
    # Node-level wiring is through the bridges (recorded in describe()),
    # so no direct Topology wires are added here.
    return TestbedSetup(
        platform="vpos",
        sim=sim,
        topology=topology,
        nodes=nodes,
        loadgen=moongen,
        router=router,
        images=images,
        hypervisor=hypervisor,
        bridges=bridges,
        seed=seed,
    )
