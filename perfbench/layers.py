"""Outside-in per-layer timing for the traced run.

Timing wrappers are installed from here on the public functions of each
layer's classes — no file of the program changes. Each wrapper counts
its call and keeps a shared stack, so a layer's *self* time is the wall
time its calls spent minus the time of the wrapped calls they made
(into any layer). Time in the benchmark's own code between wrapped
calls is the ``bench`` layer, so the self times of all layers sum to
the wall time of the traced phase.

Wrappers are installed before a world is built (the program binds
some methods at construction) and counted only while
:attr:`Profile.active` is set — during the measured ops, not set-up or
the end-of-episode checks. :func:`uninstall` puts every original class
attribute back and proves it by identity.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from collections import Counter
from typing import Any, Callable

from repro.calendar.meetings import MeetingManager
from repro.calendar.service import CalendarService
from repro.datastore.store import RelationalStore
from repro.kernel.directory import DirectoryClient
from repro.kernel.engine import SyDEngine
from repro.kernel.links import SyDLinks
from repro.kernel.listener import SyDListener
from repro.kernel.sharding import ShardedDirectoryClient
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import EventScheduler
from repro.txn.coordinator import NegotiationCoordinator
from repro.txn.locks import LockManager
from repro.util.trace import Tracer

#: every public function defined on the class itself
PUBLIC = None

#: layer -> [(class, method names or PUBLIC)]
TARGETS: dict[str, list[tuple[type, tuple[str, ...] | None]]] = {
    "calendar": [(MeetingManager, PUBLIC), (CalendarService, PUBLIC)],
    "txn": [
        (NegotiationCoordinator, ("execute", "execute_multi", "recover")),
        (LockManager, PUBLIC),
    ],
    "kernel": [
        (SyDEngine, PUBLIC),
        (SyDListener, ("handle_invoke",)),
        (DirectoryClient, PUBLIC),
        (ShardedDirectoryClient, PUBLIC),
        (SyDLinks, PUBLIC),
    ],
    "net": [(Transport, ("rpc", "rpc_many", "rpc_hedged", "send"))],
    "datastore": [
        (RelationalStore, ("insert", "get", "select", "update", "delete", "count")),
    ],
    "sim": [(EventScheduler, ("run_until",))],
    "obs": [(Tracer, PUBLIC), (MetricsRegistry, PUBLIC)],
}

#: layers in report order; ``bench`` is the driver's own time
LAYERS = (*TARGETS, "bench")

#: call families counted separately inside a layer
FAMILIES = {
    (SyDEngine, None): "engine",
    (SyDListener, None): "dispatch",
    (DirectoryClient, None): "dir",
    (ShardedDirectoryClient, None): "dir",
    (SyDLinks, None): "link",
    (LockManager, None): "lock",
    (NegotiationCoordinator, "execute_multi"): "negotiation",
    (RelationalStore, "insert"): "write",
    (RelationalStore, "update"): "write",
    (RelationalStore, "delete"): "write",
    (RelationalStore, "select"): "select",
}


def _names(cls: type, names: tuple[str, ...] | None) -> list[str]:
    if names is not None:
        return list(names)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Profile:
    """Counts and self times gathered by the wrappers."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: wall seconds of the outermost wrapped calls (the rest is bench)
        self.top_s = 0.0
        #: wall seconds the profile was active
        self.window_s = 0.0
        self.committed = 0
        self.select_rows = 0
        self._stack: list[list[float]] = []
        self._opened = 0.0

    def start(self) -> None:
        self._opened = time.perf_counter()
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.window_s += time.perf_counter() - self._opened
        if self._stack:
            raise RuntimeError("wrapped call stack not empty at stop")

    def finish(self) -> None:
        """Charge the unwrapped remainder of the window to ``bench``."""
        self.self_s["bench"] = self.window_s - self.top_s

    def wrap(self, layer: str, family: str | None, fn: Callable) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        key = family or layer

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
                calls[layer] += 1
                if key != layer:
                    calls[key] += 1
            if family == "negotiation" and result.ok:
                self.committed += 1
            elif family == "select":
                self.select_rows += len(result)
            return result

        return timed


def targets():
    """Every (layer, class, method name) the traced run wraps."""
    for layer, entries in TARGETS.items():
        for cls, names in entries:
            for name in _names(cls, names):
                yield layer, cls, name


def install(profile: Profile) -> list[tuple[type, str, Any]]:
    """Wrap every target; returns the originals for :func:`uninstall`."""
    originals = []
    for layer, cls, name in targets():
        original = vars(cls)[name]
        family = FAMILIES.get((cls, name)) or FAMILIES.get((cls, None))
        originals.append((cls, name, original))
        setattr(cls, name, profile.wrap(layer, family, original))
    return originals


def uninstall(originals: list[tuple[type, str, Any]]) -> None:
    """Restore every class attribute; raises unless each is the original."""
    for cls, name, original in reversed(originals):
        setattr(cls, name, original)
    for cls, name, original in originals:
        if vars(cls)[name] is not original:
            raise RuntimeError(f"{cls.__name__}.{name} was not restored")


class GcMeter:
    """Collections and pause time, measured via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._t0 = 0.0
        self.active = False

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._t0

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)
