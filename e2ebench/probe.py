"""Instrumentation the benchmark wraps around the program's public APIs.

Nothing here edits the program: a :class:`Probe` patches named methods
on the program's classes for the duration of a ``with`` block and
restores them afterwards. Three things are recorded:

- **client ops** — every call into a client-facing generator method
  (``DynamoClient.put`` and friends), with its simulated start and end
  and whether it raised. ``game_day`` takes its op count, acked count
  and simulated latencies from these, because the scenario issues its
  writes itself.
- **instances** — every ``Simulator``, ``DynamoCluster`` and
  ``LogShippingSystem`` built inside the block, so the benchmark can
  read event counts and replica stores the scenario would otherwise
  keep to itself.
- **spans** (only with ``spans=True``) — one per call into a layer
  boundary: name, host start and end, the host seconds the call's own
  coroutine was running (``busy``), the span that caused it, and the id
  of the client op it belongs to. ``Endpoint.call`` invocations and
  failures are counted too.

:func:`layer_profile` turns a ``cProfile`` run into self time and call
counts per ``repro`` package.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import inspect
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The program's packages the benchmark attributes work to, in the order
#: the per-layer table prints them.
LAYERS = (
    "sim", "net", "resilience", "dynamo", "cart", "workload", "chaos",
    "failover", "logship", "storage", "cluster",
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: float
    end: float = 0.0
    busy: float = 0.0
    sim_start: float = 0.0
    sim_end: float = 0.0
    ok: bool = True
    result: Any = None
    sim: Any = None
    is_op: bool = False

    def to_json(self, origin: float) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "op": self.op, "start": self.start - origin,
            "end": self.end - origin, "busy": self.busy,
            "sim_start": self.sim_start, "sim_end": self.sim_end,
            "ok": self.ok,
        }


@dataclass
class OpRecord:
    """One client op seen through a patched method (simulated seconds)."""

    name: str
    sim_start: float
    sim_end: float
    ok: bool


@dataclass
class Probe:
    """Patches the program's classes while active; see the module doc.

    ``ops`` names the client-op methods as ``(class, method)`` pairs;
    ``bounds`` names further layer-boundary methods that only get spans.
    """

    ops: Tuple[Tuple[type, str], ...] = ()
    bounds: Tuple[Tuple[type, str], ...] = ()
    spans: bool = False
    records: List[OpRecord] = field(default_factory=list)
    instances: List[Any] = field(default_factory=list)
    span_log: List[Span] = field(default_factory=list)
    rpc_calls: int = 0
    rpc_failed: int = 0
    _current: Optional[Span] = None
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    _saved: List[Tuple[type, str, Any]] = field(default_factory=list)

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Probe":
        from repro.dynamo.cluster import DynamoCluster
        from repro.logship import LogShippingSystem
        from repro.net.rpc import Endpoint
        from repro.sim.scheduler import Simulator

        for cls in (Simulator, DynamoCluster, LogShippingSystem):
            self._patch(cls, "__init__", self._registering)
        for cls, name in self.ops:
            self._patch(cls, name, functools.partial(self._wrapping, op=True))
        if self.spans:
            for cls, name in self.bounds:
                self._patch(cls, name, functools.partial(self._wrapping, op=False))
            self._patch(Endpoint, "call", self._counting_rpc)
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, make: Callable[..., Any]) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(make(original, f"{cls.__name__}.{name}")))

    # -- wrappers -------------------------------------------------------

    def _registering(self, original: Callable[..., Any], _label: str) -> Callable[..., Any]:
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            self.instances.append(obj)
        return init

    def _counting_rpc(self, original: Callable[..., Any], _label: str) -> Callable[..., Any]:
        def call(*args: Any, **kwargs: Any) -> Any:
            self.rpc_calls += 1
            try:
                return (yield from original(*args, **kwargs))
            except Exception:
                self.rpc_failed += 1
                raise
        return call

    def _wrapping(self, original: Callable[..., Any], label: str, op: bool) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(original):
            def generator_method(obj: Any, *args: Any, **kwargs: Any) -> Any:
                span = self.open(label, op, getattr(obj, "sim", None))
                return self.drive(original(obj, *args, **kwargs), span)
            return generator_method

        def method(obj: Any, *args: Any, **kwargs: Any) -> Any:
            span = self.open(label, op, getattr(obj, "sim", None))
            previous, self._current = self._current, span
            started = time.perf_counter()
            try:
                span.result = original(obj, *args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                self._leave(span, previous, started, done=True)
            return span.result
        return method

    # -- spans ----------------------------------------------------------

    def open(self, name: str, op: bool, sim: Any = None) -> Span:
        """Start a span under the one now running; a client op with no
        client op above it starts a new op id."""
        parent = self._current
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            op=parent.op if parent is not None else None,
            start=time.perf_counter(),
            sim=sim,
            is_op=op,
        )
        if op and span.op is None:
            span.op = span.id
        span.sim_start = sim.now if sim is not None else 0.0
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.sim_end = span.sim.now if span.sim is not None else 0.0
        span.sim = None  # a kept span must not keep its simulator alive
        if span.is_op and span.op == span.id:
            self.records.append(
                OpRecord(span.name, span.sim_start, span.sim_end, span.ok)
            )
        if self.spans:
            self.span_log.append(span)

    def op(self, name: str, gen: Any, sim: Any) -> Any:
        """Run a driver's own request generator as a client op."""
        return self.drive(gen, self.open(name, True, sim))

    def drive(self, gen: Any, span: Span) -> Iterator[Any]:
        """Run ``gen`` as ``span``: forward every send and throw, and bill
        only the host time spent inside ``gen`` itself to ``span.busy``."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            previous, self._current = self._current, span
            started = time.perf_counter()
            try:
                item = gen.throw(error) if error is not None else gen.send(value)
            except StopIteration as stop:
                span.result = stop.value
                self._leave(span, previous, started, done=True)
                return stop.value
            except BaseException:
                span.ok = False
                self._leave(span, previous, started, done=True)
                raise
            self._leave(span, previous, started, done=False)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()  # abandoned, not finished: no outcome to record
                raise
            except BaseException as exc:  # forwarded into gen
                value, error = None, exc

    def _leave(self, span: Span, previous: Optional[Span], started: float, done: bool) -> None:
        span.busy += time.perf_counter() - started
        self._current = previous
        if done:
            self.close(span)


# ----------------------------------------------------------------------
# cProfile attribution


def package_of(filename: str) -> str:
    """``sim`` for ``.../src/repro/sim/events.py``; ``other`` outside
    the program's packages (stdlib, the benchmark itself)."""
    marker = "/repro/"
    index = filename.replace("\\", "/").rfind(marker)
    if index < 0:
        return "other"
    rest = filename[index + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "repro"


def layer_profile(profile: cProfile.Profile) -> Dict[str, Any]:
    """Self seconds and call counts per package, plus per-function call
    counts keyed ``package:function``.

    A built-in (``len``, ``list.append``) has no file, so its self time
    and calls go to the packages of its callers, split in proportion to
    the calls each caller made.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    functions: Dict[str, int] = {}
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename == "~":
            total = sum(edge[1] for edge in callers.values()) or 1
            for caller, edge in callers.items():
                share = edge[1] / total
                package = package_of(caller[0])
                self_s[package] = self_s.get(package, 0.0) + tottime * share
                calls[package] = calls.get(package, 0.0) + ncalls * share
            continue
        package = package_of(filename)
        self_s[package] = self_s.get(package, 0.0) + tottime
        calls[package] = calls.get(package, 0.0) + ncalls
        key = f"{package}:{name}"
        functions[key] = functions.get(key, 0) + ncalls
    return {
        "self_s": self_s,
        "calls": calls,
        "functions": functions,
        "total_calls": sum(entry[1] for entry in stats.values()),
        "total_self_s": sum(entry[2] for entry in stats.values()),
    }
