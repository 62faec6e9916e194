"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import os

import pytest

from repro.core.calendar import Calendar
from repro.core.envcache import refresh_all
from repro.testbed.scenarios import build_pos_pair, build_vpos_pair


def tree(root, exclude=()):
    """Relative path -> file bytes for every file under ``root`` whose
    name is not in ``exclude``."""
    contents = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name in exclude:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


@pytest.fixture(autouse=True)
def _fresh_env_switches():
    """Re-resolve cached kill switches around every test.

    Kill switches (POS_NETSIM_BATCH, POS_TELEMETRY, ...) are resolved
    once per world and cached; tests that set them via monkeypatch need
    the cache dropped on both sides of the test body.
    """
    refresh_all()
    yield
    refresh_all()


@pytest.fixture
def frozen_clock():
    """A deterministic clock advancing one second per call."""
    counter = itertools.count(1_600_000_000)
    return lambda: float(next(counter))


@pytest.fixture
def calendar(frozen_clock):
    return Calendar(clock=frozen_clock)


@pytest.fixture
def pos_setup():
    """The hardware two-node testbed, freshly built."""
    return build_pos_pair()


@pytest.fixture
def vpos_setup():
    """The virtual two-node testbed, freshly built (seeded)."""
    setup = build_vpos_pair(seed=42)
    yield setup
    if setup.hypervisor is not None:
        setup.hypervisor.stop()


def boot_and_configure(setup):
    """Boot both nodes and run the canonical DuT/LoadGen configuration."""
    dut_name = "tartu" if setup.platform == "pos" else "vtartu"
    lg_name = "riga" if setup.platform == "pos" else "vriga"
    for name in (lg_name, dut_name):
        node = setup.nodes[name]
        node.set_image(setup.images.resolve("debian-buster", "latest"))
        node.reset()
    dut = setup.nodes[dut_name]
    for command in (
        "sysctl -w net.ipv4.ip_forward=1",
        "ip link set eno1 up",
        "ip link set eno2 up",
    ):
        result = dut.execute(command)
        assert result.ok, result.stdout
    lg = setup.nodes[lg_name]
    for command in ("ip link set eno1 up", "ip link set eno2 up"):
        assert lg.execute(command).ok
    return setup
