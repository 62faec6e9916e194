"""The paper's case study (Sec. 5 / Appendix A) as a pos experiment.

MoonGen on the LoadGen measures the forwarding performance of a Linux
router (the DuT) for two packet sizes over a sweep of offered rates.
The *same* experiment definition runs on both platforms — pos (the
bare-metal testbed model) and vpos (the virtual clone) — with only the
variable files and the node names differing, which is exactly the
property the paper demonstrates.

The appendix's loop file defines two parameters: ``pkt_sz`` (64 and
1500 B) and ``pkt_rate`` (30 entries, 10 000 … 300 000 pps), yielding a
60-run cross product on vpos.  The hardware sweep of Fig. 3a extends
the rates to 2 Mpps.
"""

from __future__ import annotations

import hashlib
import json

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro import cache as _runcache
from repro.core import envcache
from repro.core.allocation import Allocator
from repro.core.calendar import Calendar
from repro.core.controller import Controller, ExperimentHandle
from repro.core.errors import ExperimentError, SimulationError
from repro.core.experiment import Experiment, Role
from repro.core.results import ResultStore
from repro.core.scheduler import WorkerEnv, WorkerWorld
from repro.core.scripts import CommandScript, PythonScript, ScriptContext
from repro.core.variables import Variables
from repro.loadgen.moongen import format_report, latency_histogram_csv
from repro.testbed.scenarios import TestbedSetup, build_pos_pair, build_vpos_pair

__all__ = [
    "VPOS_RATES",
    "POS_RATES",
    "PACKET_SIZES",
    "CaseStudyEnvironment",
    "build_environment",
    "build_case_study_experiment",
    "case_study_worker_env",
    "run_case_study",
]

#: Appendix A: "30 entries for the packet rate (10 000 to 300 000 packets/s)".
VPOS_RATES: List[int] = [10_000 * step for step in range(1, 31)]

#: Fig. 3a sweeps the hardware DuT into overload: up to 2 Mpps.
POS_RATES: List[int] = [100_000 * step for step in range(1, 21)]

#: "packets with different sizes (64 and 1500 B)".
PACKET_SIZES: Tuple[int, int] = (64, 1500)


# --------------------------------------------------------------------------
# scripts
# --------------------------------------------------------------------------

def _dut_setup_commands() -> List[str]:
    """The DuT setup: enable routing, bring both ports up."""
    return [
        "sysctl -w net.ipv4.ip_forward=1",
        "ip link set $DUT_PORT0 up",
        "ip link set $DUT_PORT1 up",
        "ip addr add 10.0.0.1/24 dev $DUT_PORT0",
        "ip addr add 10.0.1.1/24 dev $DUT_PORT1",
        "-ethtool $DUT_PORT0",
        "pos barrier setup-done",
    ]


def _loadgen_setup_commands() -> List[str]:
    """The LoadGen setup: bring the generator ports up."""
    return [
        "ip link set $LG_PORT0 up",
        "ip link set $LG_PORT1 up",
        "-ethtool $LG_PORT0",
        "pos barrier setup-done",
    ]


def _loadgen_measurement(ctx: ScriptContext) -> dict:
    """Run MoonGen for one (pkt_sz, pkt_rate) instance.

    Uploads the MoonGen log (and, when hardware timestamping is
    available, the latency histogram) exactly like the original
    measurement.sh drives MoonGen and collects its output.
    """
    setup: TestbedSetup = ctx.setup
    if setup is None:
        raise ExperimentError("case-study measurement needs the testbed setup")
    rate = int(ctx.variables["pkt_rate"])
    size = int(ctx.variables["pkt_sz"])
    duration = float(ctx.variables.get("duration", 0.3))
    interval = float(ctx.variables.get("interval", 0.1))
    drain = float(ctx.variables.get("drain", 0.05))
    job = setup.loadgen.start(
        rate_pps=rate, frame_size=size, duration_s=duration, interval_s=interval
    )
    until = setup.sim.now + duration + drain
    try:
        job.check_drained(until)
    except SimulationError as exc:
        raise ExperimentError(
            f"run {ctx.run_index}: {exc} (the 'drain' variable is {drain}s)"
        ) from exc
    setup.sim.run(until=until)
    ctx.tools.upload("moongen.log", format_report(job))
    if job.timestamping and job.latency_samples_s:
        ctx.tools.upload("histogram.csv", latency_histogram_csv(job))
    ctx.tools.log(
        f"run {ctx.run_index}: rate={rate} size={size} "
        f"tx={job.tx_packets} rx={job.rx_packets}"
    )
    ctx.tools.barrier("run-done")
    return {"tx": job.tx_packets, "rx": job.rx_packets}


def _dut_measurement(ctx: ScriptContext) -> None:
    """Capture DuT-side state after the run: counters and stats.

    Counters are reported as *this run's* deltas against the baseline
    snapshot the run-isolation hook took at run start, so the uploaded
    numbers are a pure function of the run — identical no matter how
    many runs preceded it or which parallel worker executed it.  Without
    a baseline (a standalone script invocation outside the controller
    loop) the cumulative counters are reported, as ethtool would.
    """
    setup: TestbedSetup = ctx.setup
    if setup is None:
        raise ExperimentError("case-study measurement needs the testbed setup")
    result = ctx.tools.run("ip link show")
    del result  # captured automatically into commands.log
    ctx.tools.run("sysctl net.ipv4.ip_forward")
    stats = setup.router.stats.snapshot()
    nic_stats = {
        port.name: port.stats.snapshot() for port in setup.router.ports
    }
    baseline = getattr(setup, "run_baseline", None)
    if baseline is not None:
        stats = {
            key: value - baseline["router"].get(key, 0)
            for key, value in stats.items()
        }
        nic_stats = {
            name: {
                key: value - baseline["nics"].get(name, {}).get(key, 0)
                for key, value in counters.items()
            }
            for name, counters in nic_stats.items()
        }
        lines = ["router forwarding statistics (this run):"]
    else:
        lines = ["router forwarding statistics (cumulative):"]
    for key, value in stats.items():
        lines.append(f"  {key}: {value}")
    for name, counters in nic_stats.items():
        lines.append(f"nic {name}:")
        for key, value in counters.items():
            lines.append(f"  {key}: {value}")
    ctx.tools.upload("dut-stats.txt", "\n".join(lines) + "\n")
    ctx.tools.barrier("run-done")


# --------------------------------------------------------------------------
# experiment & environment
# --------------------------------------------------------------------------

def _shell_loadgen_measurement_commands() -> list:
    """The measurement.sh form of the LoadGen script: pure commands.

    The ``moongen`` command exposed on the load-generator host runs the
    generator and prints its report; the capture machinery collects it,
    and the evaluation loader extracts it from ``commands.log``.  This
    form is exportable as a publishable artifact folder
    (:func:`repro.core.expdir.write_experiment_dir`).
    """
    return [
        "moongen --rate $pkt_rate --size $pkt_sz --duration $duration",
        "pos barrier run-done",
    ]


def _shell_dut_measurement_commands() -> list:
    return [
        "ip link show",
        "sysctl net.ipv4.ip_forward",
        "pos barrier run-done",
    ]


def build_case_study_experiment(
    platform: str = "pos",
    rates: Optional[Sequence[int]] = None,
    sizes: Sequence[int] = PACKET_SIZES,
    duration_s: float = 0.3,
    interval_s: float = 0.1,
    image: Tuple[str, str] = ("debian-buster", "20201012T000000Z"),
    script_style: str = "python",
) -> Experiment:
    """Assemble the case-study experiment for one platform.

    ``script_style`` selects the measurement-script form: ``python``
    (callables driving the generator API, with latency histograms) or
    ``shell`` (pure command scripts using the host's ``moongen``
    command — the form that exports to a publishable artifact folder).
    """
    if platform not in ("pos", "vpos"):
        raise ExperimentError(f"unknown platform {platform!r} (pos or vpos)")
    if script_style not in ("python", "shell"):
        raise ExperimentError(
            f"unknown script_style {script_style!r} (python or shell)"
        )
    if rates is None:
        rates = POS_RATES if platform == "pos" else VPOS_RATES
    loadgen_node, dut_node = (
        ("riga", "tartu") if platform == "pos" else ("vriga", "vtartu")
    )
    variables = Variables(
        global_vars={
            "duration": duration_s,
            "interval": interval_s,
            "platform": platform,
        },
        local_vars={
            "loadgen": {"LG_PORT0": "eno1", "LG_PORT1": "eno2"},
            "dut": {"DUT_PORT0": "eno1", "DUT_PORT1": "eno2"},
        },
        loop_vars={"pkt_sz": list(sizes), "pkt_rate": list(rates)},
    )
    if script_style == "python":
        loadgen_measurement: object = PythonScript(
            "loadgen-measurement", _loadgen_measurement
        )
        dut_measurement: object = PythonScript(
            "dut-measurement", _dut_measurement
        )
    else:
        loadgen_measurement = CommandScript(
            "loadgen-measurement", _shell_loadgen_measurement_commands()
        )
        dut_measurement = CommandScript(
            "dut-measurement", _shell_dut_measurement_commands()
        )
    roles = [
        Role(
            name="loadgen",
            node=loadgen_node,
            setup=CommandScript("loadgen-setup", _loadgen_setup_commands()),
            measurement=loadgen_measurement,
            image=image,
        ),
        Role(
            name="dut",
            node=dut_node,
            setup=CommandScript("dut-setup", _dut_setup_commands()),
            measurement=dut_measurement,
            image=image,
            boot_parameters={"isolcpus": "1-11", "intel_iommu": "on"},
        ),
    ]
    return Experiment(
        name=f"linux-router-forwarding-{platform}",
        roles=roles,
        variables=variables,
        duration_s=3 * 3600.0,  # the appendix: "runs for approximately 3 h"
        description=(
            "Forwarding performance of a Linux router for 64 B and 1500 B "
            f"packets over a rate sweep, measured with MoonGen on {platform}."
        ),
    )


@dataclass
class CaseStudyEnvironment:
    """A ready-to-run testbed: setup, calendar, allocator, controller."""

    platform: str
    setup: TestbedSetup
    calendar: Calendar
    allocator: Allocator
    results: ResultStore
    controller: Controller


def build_environment(
    platform: str,
    result_root: str,
    seed: int = 0,
    clock: Optional[Callable[[], float]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    fault_plan=None,
    cache_dir: Optional[str] = None,
) -> CaseStudyEnvironment:
    """Build the full environment for one platform.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) instruments
    every node's power and transport layer with the seeded injection
    plane and attaches the injector to the controller, so planned
    faults strike by run index and are recorded in the inventory.

    ``cache_dir`` (default: the ``POS_RUN_CACHE_DIR`` environment
    variable, else off) attaches a content-addressed run cache
    (:mod:`repro.cache`): a repeated (scenario, assignment, seed) point
    is served from the cache with zero simulator events and a
    byte-identical artifact tree.
    """
    # Kill switches are resolved once per world, here: hot paths read
    # the cached resolution instead of hitting os.environ per run.
    envcache.refresh_all()
    if platform == "pos":
        setup = build_pos_pair(seed=seed)
    elif platform == "vpos":
        setup = build_vpos_pair(seed=seed)
    else:
        raise ExperimentError(f"unknown platform {platform!r} (pos or vpos)")
    injector = None
    if fault_plan is not None:
        from repro.faults.injector import install_fault_plan

        injector = install_fault_plan(setup.nodes, fault_plan)
    run_cache = None
    cache_root = _runcache.resolve_cache_dir(cache_dir)
    if cache_root is not None and injector is None:
        run_cache = _runcache.RunCache(
            cache_root,
            scope={
                "code_epoch": _runcache.CODE_EPOCH,
                "platform": platform,
                "seed": seed,
                "testbed": setup.describe(),
            },
        )
    calendar = Calendar(clock=clock)
    allocator = Allocator(calendar, setup.nodes)
    results = ResultStore(result_root, clock=clock)
    # The same fields the run cache fingerprints (minus the scenario
    # content, which lives in experiment.yml/inventory.yml already):
    # recorded in telemetry.json so `pos diff` can attribute deltas
    # between two result trees to an identified input change.
    testbed_digest = hashlib.sha256(
        json.dumps(setup.describe(), sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    controller = Controller(
        allocator,
        setup.images,
        results,
        inventory_extra=lambda: {"testbed": setup.describe()},
        progress=progress,
        fault_injector=injector,
        run_cache=run_cache,
        provenance={
            "code_epoch": _runcache.CODE_EPOCH,
            "platform": platform,
            "seed": seed,
            "testbed": testbed_digest,
        },
    )
    return CaseStudyEnvironment(
        platform=platform,
        setup=setup,
        calendar=calendar,
        allocator=allocator,
        results=results,
        controller=controller,
    )


def _build_worker_world(
    platform: str, seed: int = 0, fault_plan=None
) -> WorkerWorld:
    """Build one parallel worker's isolated testbed world.

    Module-level on purpose: the :class:`WorkerEnv` recipe crosses the
    process boundary by reference.  Each call produces a *fresh* world —
    its own simulator, hosts, router, generator, and (when a fault plan
    is attached) its own injector copy — sharing nothing with the
    parent's or any sibling's.
    """
    # A fresh world re-reads the kill switches: cached env resolutions
    # belong to a world, and a spawned worker process may have inherited
    # a parent's cache alongside a changed environment.
    envcache.refresh_all()
    if platform == "pos":
        setup = build_pos_pair(seed=seed)
    elif platform == "vpos":
        setup = build_vpos_pair(seed=seed)
    else:
        raise ExperimentError(f"unknown platform {platform!r} (pos or vpos)")
    injector = None
    if fault_plan is not None:
        from repro.faults.injector import install_fault_plan

        injector = install_fault_plan(setup.nodes, fault_plan)
    return WorkerWorld(
        nodes=setup.nodes,
        images=setup.images,
        context_extra={"setup": setup},
        fault_injector=injector,
    )


def case_study_worker_env(
    platform: str, seed: int = 0, fault_plan=None
) -> WorkerEnv:
    """The :class:`WorkerEnv` recipe for parallel case-study execution."""
    return WorkerEnv(
        factory=_build_worker_world,
        kwargs={"platform": platform, "seed": seed, "fault_plan": fault_plan},
    )


def run_case_study(
    platform: str,
    result_root: str,
    rates: Optional[Sequence[int]] = None,
    sizes: Sequence[int] = PACKET_SIZES,
    duration_s: float = 0.3,
    interval_s: float = 0.1,
    seed: int = 0,
    user: str = "user",
    max_runs: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    script_style: str = "python",
    on_error: str = "abort",
    fault_plan=None,
    resume_path: Optional[str] = None,
    jobs: Optional[int] = None,
    agents: Optional[int] = None,
    transport: str = "loopback",
    dist_fault_plan=None,
    cache_dir: Optional[str] = None,
) -> ExperimentHandle:
    """Execute the whole case study on one platform, end to end.

    ``on_error`` selects the run-failure policy (abort, continue,
    recover), ``fault_plan`` attaches a seeded fault-injection plan, and
    ``resume_path`` continues a killed execution from its run journal
    instead of starting a fresh result folder.

    ``jobs`` (default: the ``POS_JOBS`` environment variable, else 1)
    runs the measurement cross product as per-run tasks on warm
    per-worker worlds: that many worker processes, each owning an
    isolated testbed world set up once, execute one run per task and
    stream each outcome back as it ends; the result tree is
    byte-identical to a sequential execution.

    ``agents`` (default: the ``POS_AGENTS`` environment variable, else
    0 = off) instead fans the runs out to that many node-agent daemons
    on the fault-tolerant distributed plane (:mod:`repro.dist`) over
    the given ``transport``; ``dist_fault_plan`` injects seeded chaos
    (agent kills, message drop/duplicate/delay) into that plane only.
    The result tree stays byte-identical to a sequential execution for
    any agent count and crash schedule.

    ``cache_dir`` attaches the content-addressed run cache: repeated
    (scenario, assignment, seed) points are replayed from it with zero
    simulator events and byte-identical artifacts (see
    :mod:`repro.cache`).

    Returns the experiment handle; ``handle.result_path`` is the result
    folder ready for evaluation and publication.
    """
    env = build_environment(
        platform, result_root, seed=seed, clock=clock, progress=progress,
        fault_plan=fault_plan, cache_dir=cache_dir,
    )
    experiment = build_case_study_experiment(
        platform=platform,
        rates=rates,
        sizes=sizes,
        duration_s=duration_s,
        interval_s=interval_s,
        script_style=script_style,
    )
    worker_env = case_study_worker_env(platform, seed=seed, fault_plan=fault_plan)
    try:
        if resume_path is not None:
            handle = env.controller.resume(
                experiment,
                resume_path,
                user=user,
                on_error=on_error,
                max_runs=max_runs,
                setup_context_extra={"setup": env.setup},
                jobs=jobs,
                worker_env=worker_env,
                agents=agents,
                transport=transport,
                dist_fault_plan=dist_fault_plan,
            )
        else:
            handle = env.controller.run(
                experiment,
                user=user,
                on_error=on_error,
                max_runs=max_runs,
                setup_context_extra={"setup": env.setup},
                jobs=jobs,
                worker_env=worker_env,
                agents=agents,
                transport=transport,
                dist_fault_plan=dist_fault_plan,
            )
    finally:
        if env.setup.hypervisor is not None:
            env.setup.hypervisor.stop()
    return handle
