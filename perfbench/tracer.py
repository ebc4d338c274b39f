"""Span tracer that wraps fotasim's public functions from outside the package.

Every public module-level function and every public method of every class
defined in a ``fotasim`` module is replaced, at each module binding it is
reachable under, by a wrapper that opens a span around the call.  A span's
parent is the span that was open when it started, and every span of one
operation descends from that operation's root span.  Spans are folded into
per-name totals as they close, so memory stays flat however long the run:
a span's self time is its duration minus the time its child spans cover,
and the root's self time is the time no wrapped function accounts for.

A few wrappers also count what the call did (bytes, sectors, idle bus
steps, ...).  :meth:`Tracer.uninstall` restores every original binding, and
an untraced run never installs the tracer at all.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter
from enum import Enum
from types import FunctionType, ModuleType

from fotasim.canbus import CanError
from fotasim.flashmodel import MASS_ERASE_APPLICATION, REGION_APPLICATION

PACKAGE = "fotasim"


class Account:
    """Totals for one phase of a run (set-up, operations, checks)."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.walls: list[float] = []
        self.unattributed_s = 0.0

    @property
    def roots(self) -> int:
        return len(self.walls)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def package_modules() -> list[ModuleType]:
    package = importlib.import_module(PACKAGE)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1]


class Tracer:
    def __init__(self) -> None:
        self.account = Account()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- running -------------------------------------------------------------

    def run(self, account: Account, fn, *args):
        """Call ``fn`` under a root span charged to ``account``."""
        self.account = account
        root = [0.0]
        self._stack.append(root)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - start
            self._stack.pop()
            account.walls.append(wall)
            account.unattributed_s += wall - root[0]

    def _span(self, label, fn):
        stack = self._stack
        perf = time.perf_counter
        tracer = self
        name_of = label if callable(label) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf() - start
                stack.pop()
                stack[-1][0] += wall
                name = name_of(args) if name_of else label
                account = tracer.account
                account.calls[name] += 1
                account.self_s[name] += wall - child[0]

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        targets: dict[object, object] = {}
        for module in modules:
            if module.__name__ == PACKAGE:
                continue
            short = _short(module.__name__)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if isinstance(obj, FunctionType) and obj.__module__ == module.__name__ \
                        and obj.__name__ == name:
                    targets[obj] = self._span(f"{short}.{name}", self._probe(short, name, obj))
                elif isinstance(obj, type) and obj.__module__ == module.__name__ \
                        and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_methods(short, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = targets.get(obj) if isinstance(obj, FunctionType) else None
                if wrapper is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)

    def _wrap_methods(self, short: str, cls: type) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{short}.{cls.__name__}.{name}"
            if isinstance(member, FunctionType) and member.__name__ == name:
                label = _run_tick_label if qual == "simruntime.Node.run_tick" else qual
                wrapped = self._span(label, self._probe(short, f"{cls.__name__}.{name}", member))
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._span(qual, member.__func__))
            else:
                continue
            self._restore.append((cls, name, member))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- counting probes -----------------------------------------------------

    def _probe(self, short: str, name: str, fn):
        """Return ``fn`` itself, or a stand-in that also counts its effect."""
        make = _PROBES.get(f"{short}.{name}")
        return make(self, fn) if make else fn


def _run_tick_label(args) -> str:
    # The host node's run_tick advances the campaign generator, so its self
    # time is the orchestrator's work; an ECU's is the simulated runtime's.
    if args[0].role == "host":
        return "orchestrator.campaign"
    return "simruntime.Node.run_tick." + args[0].role


def _counting(key_of):
    """Probe factory: ``key_of(args, kwargs, result)`` yields
    ``(counter, amount)`` pairs to add after each successful call."""
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer.account.counts
            for key, amount in key_of(args, kwargs, result):
                counts[key] += amount
            return result
        return probe
    return make


def _erase_effect(args, kwargs, duration):
    device, start = args[0], args[1]
    count = args[2] if len(args) > 2 else kwargs.get("count", 1)
    if start == MASS_ERASE_APPLICATION:
        # Read the layout's fields directly: its methods are wrapped too,
        # and the probe must not add calls the program never made.
        app = device.layout.regions[REGION_APPLICATION]
        count = sum(1 for s in device.layout.sectors if s.start >= app.start and s.end <= app.end)
    return (("flashmodel.erase.sectors", count), ("flashmodel.busy_sim_us", duration))


def _recv_probe(tracer: Tracer, fn):
    @functools.wraps(fn)
    def probe(endpoint):
        try:
            msg = fn(endpoint)
        except CanError:
            tracer.account.counts["canbus.transport_errors"] += 1
            raise
        if msg is not None:
            tracer.account.counts["canbus.recv_segmented.hits"] += 1
        return msg
    return probe


def _run_tick_probe(tracer: Tracer, fn):
    @functools.wraps(fn)
    def probe(node):
        if (node.role == "ecu" and not node.pending_reset
                and node.world.clock_us < node.busy_until_us):
            tracer.account.counts["simruntime.stall_ticks"] += 1
        return fn(node)
    return probe


def _unlock_probe(tracer: Tracer, fn):
    # client_unlock is a generator function: count the handshake when the
    # generator returns its UnlockResult.
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        result = yield from fn(*args, **kwargs)
        counts = tracer.account.counts
        counts["uds.handshakes"] += 1
        counts["uds.handshake_sim_us"] += result.duration_us
        return result
    return probe


_PROBES = {
    "canbus.recv_segmented": _recv_probe,
    "canbus.Bus.step": _counting(
        lambda a, k, r: (("simruntime.idle_ticks", 1 if r[1] == 0 else 0),)),
    "simruntime.Node.run_tick": _run_tick_probe,
    "integrity.crc32": _counting(lambda a, k, r: (("integrity.crc32.bytes", len(a[0])),)),
    "flashmodel.FlashDevice.erase_sectors": _counting(_erase_effect),
    "flashmodel.FlashDevice.program": _counting(
        lambda a, k, r: (("flashmodel.program.bytes", len(a[2])),
                         ("flashmodel.busy_sim_us", r))),
    "flashmodel.FlashDevice.read": _counting(
        lambda a, k, r: (("flashmodel.read.bytes", len(r[0])),)),
    "delta.build_delta": _counting(
        lambda a, k, r: (("delta.tuples", sum(len(e.tuples) for e in r.entries)),)),
    "delta.encode_package": _counting(lambda a, k, r: (("delta.package_bytes", len(r)),)),
    "uds.client_unlock": _unlock_probe,
}
