"""Once-per-world resolution of environment kill switches.

Three planes expose an environment kill switch: ``POS_NETSIM_BATCH``
(the batched fast path), ``POS_TELEMETRY`` (every deterministic
observation artifact) and ``POS_DISPATCH_LOG`` (the evidence
sidecars).  Their original implementations consulted ``os.environ``
on every call, which puts a dictionary lookup and a string compare on
per-run hot paths — once per measurement job in the fast path, once
per run in the telemetry plane.  An :class:`EnvSwitch` resolves the
variable once and caches the boolean; the call syntax is unchanged
(instances are callable), so ``enabled()`` reads exactly as before.

The kill switches keep working because every context that may legally
change the environment re-arms the cache:

* :func:`refresh_all` is called when a worker world is built (workers
  inherit the parent's environment at fork/spawn time; re-reading it
  once per world is the contract the name promises);
* the test suite re-arms all switches around every test (autouse
  fixture in ``tests/conftest.py``), so ``monkeypatch.setenv`` behaves
  as if the switches were uncached;
* code that mutates ``os.environ`` mid-process (benchmarks pitting the
  two paths against each other) calls :meth:`EnvSwitch.refresh`
  explicitly.
"""

from __future__ import annotations

import os
from typing import List

__all__ = ["EnvSwitch", "refresh_all"]

_UNSET = object()


class EnvSwitch:
    """A cached kill switch: on unless the variable equals ``"0"``."""

    _registry: List["EnvSwitch"] = []

    def __init__(self, var: str):
        self.var = var
        self._value = _UNSET
        EnvSwitch._registry.append(self)

    def __call__(self) -> bool:
        value = self._value
        if value is _UNSET:
            value = self._value = os.environ.get(self.var) != "0"
        return value

    def refresh(self) -> None:
        """Forget the cached value; the next call re-reads the environment."""
        self._value = _UNSET

    @classmethod
    def refresh_all(cls) -> None:
        for switch in cls._registry:
            switch.refresh()


def refresh_all() -> None:
    """Re-arm every registered switch (new world, changed environment)."""
    EnvSwitch.refresh_all()
