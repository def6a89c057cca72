"""The traced pass: spans around the calls into each layer.

Wrappers are installed from here, around the layer entry points, before a
deployment is built.  Every call is a span — name (``<layer>.<entry>``),
start, end, parent.  One thread runs everything, so a stack gives the
parent; the root span is the kernel/loop run or, under it, the actor
callback, which is the identifier spans of one message share until
lifecycle ids exist inside the program.  A layer's self time is its spans'
durations minus the part their child spans cover.

Module-level functions are bound at import by ``from x import f``, so
:func:`install` rebinds the name in every loaded ``repro`` module that
holds the original.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

#: spans kept for the JSON-lines dump; the per-name aggregates cover all
SPAN_LIMIT = 50_000


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_time: Dict[str, float] = defaultdict(float)
        #: (id, parent id, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._next_id = 0
        #: live counts that are not spans (the ``EventLoop.schedule`` wrapper
        #: keeps them)
        self.events_scheduled = 0
        self.heap_peak = 0

    def _open(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, child_time, start = frame
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child_time
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark opens by hand."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (header line first)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "spans": len(self.spans), "dropped": self.dropped,
                "calls": dict(self.calls),
                "self_time_s": dict(self.self_time)}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                layer, entry = name.split(".", 1)
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": entry, "start": start, "end": end}) + "\n")


# -- the entry points -----------------------------------------------------------

#: methods, patched on their class: (module, class, method, span name)
METHODS = (
    ("repro.sim.events", "EventLoop", "run", "sim.EventLoop.run"),
    ("repro.sim.network", "Network", "send", "sim.Network.send"),
    ("repro.env.rtbackend", "RealtimeRuntime", "run",
     "env.RealtimeRuntime.run"),
    ("repro.env.rtbackend", "InProcessTransport", "send",
     "env.InProcessTransport.send"),
    ("repro.env.tcp", "TcpTransport", "send", "env.TcpTransport.send"),
    ("repro.bcast.replica", "Replica", "on_message",
     "bcast.Replica.on_message"),
    ("repro.bcast.client", "GroupProxy", "submit", "bcast.GroupProxy.submit"),
    ("repro.bcast.client", "GroupProxy", "handle_reply",
     "bcast.GroupProxy.handle_reply"),
    ("repro.core.node", "ByzCastApplication", "execute",
     "core.ByzCastApplication.execute"),
    ("repro.core.relay", "QuorumMerge", "push", "core.QuorumMerge.push"),
    ("repro.core.client", "MulticastClient", "amulticast",
     "core.MulticastClient.amulticast"),
    ("repro.core.client", "MulticastClient", "aread",
     "core.MulticastClient.aread"),
    ("repro.core.client", "MulticastClient", "on_message",
     "core.MulticastClient.on_message"),
    ("repro.apps.kvstore", "ShardStateMachine", "apply",
     "apps.ShardStateMachine.apply"),
    ("repro.apps.kvstore", "ShardStateMachine", "read",
     "apps.ShardStateMachine.read"),
    ("repro.workload.clients", "_DriverBase", "_send",
     "workload.Driver.send"),
    # the benchmark's own host-speed samples, so that they are not booked
    # as self time of the loop they interrupt
    ("bench.hostspeed", "HostSpeed", "sample", "bench.yardstick"),
)

#: module-level functions: (defining module, function, span name)
FUNCTIONS = (
    ("repro.crypto.digest", "digest", "crypto.digest"),
    ("repro.crypto.digest", "canonical_bytes", "crypto.canonical_bytes"),
    ("repro.crypto.signatures", "sign", "crypto.sign"),
    ("repro.crypto.signatures", "verify", "crypto.verify"),
    ("repro.crypto.mac", "mac_vector", "crypto.mac_vector"),
    ("repro.crypto.mac", "verify_mac_vector", "crypto.verify_mac_vector"),
    ("repro.env.wire", "encode", "env.wire.encode"),
    ("repro.env.wire", "decode", "env.wire.decode"),
    ("repro.env.codec", "encode", "env.json.encode"),
    ("repro.env.codec", "decode", "env.json.decode"),
)

#: deferred actor callbacks (``Actor.work`` jobs and ``Actor.set_timer``
#: timers) become spans named after the actor's class; this maps the class
#: to its layer
ACTOR_LAYERS = {"Replica": "bcast", "MulticastClient": "core"}


def _import(module: str):
    __import__(module)
    return sys.modules[module]


def install(tracer: Tracer) -> None:
    """Wrap every entry point.  Call once, before building a deployment."""
    for module, cls_name, method, name in METHODS:
        cls = getattr(_import(module), cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), name))

    for module, function, name in FUNCTIONS:
        original = getattr(_import(module), function)
        traced = tracer.wrap(original, name)
        # the wire and JSON codecs both call their functions encode/decode,
        # so match on identity, never on the name alone
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, traced)

    actor = _import("repro.env.actor").Actor
    for method in ("work", "set_timer"):
        setattr(actor, method, _defer_as_span(tracer, getattr(actor, method),
                                              method))

    loop = _import("repro.sim.events").EventLoop
    schedule = loop.schedule

    def counted_schedule(self, delay, callback):
        tracer.events_scheduled += 1
        event = schedule(self, delay, callback)
        pending = self.pending
        if pending > tracer.heap_peak:
            tracer.heap_peak = pending
        return event

    loop.schedule = counted_schedule


def _defer_as_span(tracer: Tracer, original: Callable, kind: str) -> Callable:
    names: Dict[type, str] = {}

    def deferred(self, amount, callback):
        name = names.get(type(self))
        if name is None:
            layer = next((ACTOR_LAYERS[c.__name__] for c in type(self).__mro__
                          if c.__name__ in ACTOR_LAYERS), "env")
            name = names[type(self)] = (
                f"{layer}.{type(self).__name__}.{kind}")
        return original(self, amount, tracer.wrap(callback, name))

    return deferred
