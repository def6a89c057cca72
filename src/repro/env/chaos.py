"""Chaos-engineering transport: seeded fault injection over any backend.

:class:`ChaosTransport` is a decorator conforming to the
:class:`~repro.env.api.Transport` protocol.  It wraps any inner transport —
the simulator's :class:`~repro.sim.network.Network`, the real-time
:class:`~repro.env.rtbackend.InProcessTransport`, or the socket-backed
:class:`~repro.env.tcp.TcpTransport` — and injects faults *above* the
inner transport's own shaping, so the same chaos semantics hold on every
execution backend.  It is the only place a message is lost: the transports
themselves only deliver and delay.

* **drops** — i.i.d. message loss at ``drop_rate``;
* **duplication** — a second delivery of the same payload at ``dup_rate``;
* **corruption** — one ``bytes`` field (a signature tag or digest) of the
  payload gets a bit flipped at ``corrupt_rate``, exercising the protocol's
  signature/digest rejection paths; payloads with no ``bytes`` field are
  dropped instead (there is nothing to corrupt that a checksum would catch);
* **extra delay / reordering** — at ``delay_rate`` a message is held back a
  random extra interval before reaching the inner transport, which reorders
  it relative to later traffic on the same link;
* **link flapping** — :meth:`flap_link` toggles a partition on and off;
* **burst windows** — :meth:`burst` raises the rates for a bounded window
  and restores them afterwards;
* **targeted slowdown** — :meth:`delay_endpoint` adds a fixed extra delay
  to all traffic touching one endpoint (e.g. the current leader).

Every injected event is counted on the shared monitor under ``chaos.*``
keys.  All randomness comes from a dedicated seeded stream, so under the
simulation backend a chaos run is exactly as reproducible as a fault-free
one, and wrapping a transport without enabling any rate is a no-op for the
golden traces.

Use :func:`install_chaos` to wrap a runtime's transport in place *before*
building a deployment on it.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.env.api import Clock, Transport
from repro.env.monitor import Monitor


@dataclass
class ChaosConfig:
    """Tunable chaos rates (all probabilities are i.i.d. per message).

    Attributes:
        drop_rate: probability a message is silently discarded.
        dup_rate: probability a message is delivered twice.
        corrupt_rate: probability one ``bytes`` field of the payload gets a
            flipped bit (un-corruptible payloads are dropped instead).
        delay_rate: probability a message is held back before the inner
            transport sees it (which may reorder it on its link).
        delay_min: lower bound of the sampled extra delay, seconds.
        delay_max: upper bound of the sampled extra delay, seconds.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_min: float = 0.001
    delay_max: float = 0.05

    RATE_FIELDS = ("drop_rate", "dup_rate", "corrupt_rate", "delay_rate")


def corrupt_payload(payload: Any, rng: random.Random) -> Tuple[Any, bool]:
    """Flip one bit in one randomly chosen ``bytes`` field of ``payload``.

    Walks frozen dataclasses and tuples recursively, collects every
    non-empty ``bytes`` leaf (signature tags, digests), and rebuilds the
    payload with a single bit flipped in one of them.  Returns
    ``(corrupted, True)``, or ``(payload, False)`` when the payload carries
    no ``bytes`` field at all — the caller should treat that case as a drop.
    """
    paths = []

    def walk(obj: Any, path: Tuple) -> None:
        if isinstance(obj, bytes) and obj:
            paths.append(path)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), path + (("f", f.name),))
        elif isinstance(obj, tuple):
            for index, value in enumerate(obj):
                walk(value, path + (("i", index),))

    walk(payload, ())
    if not paths:
        return payload, False
    target = paths[rng.randrange(len(paths))]

    def rebuild(obj: Any, path: Tuple) -> Any:
        if not path:
            data = bytearray(obj)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            return bytes(data)
        kind, key = path[0]
        if kind == "f":
            return dataclasses.replace(obj, **{key: rebuild(getattr(obj, key), path[1:])})
        return tuple(
            rebuild(value, path[1:]) if index == key else value
            for index, value in enumerate(obj)
        )

    return rebuild(payload, target), True


class ChaosTransport:
    """A :class:`~repro.env.api.Transport` decorator injecting faults.

    Args:
        inner: the wrapped transport; registration, sites, partitions and
            final delivery all delegate to it.
        clock: the runtime's clock, used for delayed (re-ordered) delivery,
            burst windows and link flapping.
        config: initial chaos rates (default: everything off).
        rng: seeded stream factory; chaos draws from its own ``"chaos"``
            stream so enabling chaos never perturbs the inner transport's
            latency draws.
        monitor: shared monitor; injected events are counted as ``chaos.*``.
    """

    def __init__(
        self,
        inner: Transport,
        clock: Clock,
        config: Optional[ChaosConfig] = None,
        rng: Any = None,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self._inner = inner
        self._clock = clock
        self.config = config if config is not None else ChaosConfig()
        self.monitor = monitor if monitor is not None else Monitor()
        # rng is a SeededRng-like stream factory; chaos owns its own named
        # stream so enabling it never perturbs the inner transport's draws.
        self._rng = rng.stream("chaos") if rng is not None else random.Random(0)
        self._endpoint_delay: Dict[str, float] = {}

    @property
    def inner(self) -> Transport:
        """The wrapped transport."""
        return self._inner

    # -- Transport protocol (delegation) -----------------------------------

    def register(self, actor: Any, site: str = "site0") -> None:
        self._inner.register(actor, site)
        # The inner transport re-pointed the actor at itself; re-attach so
        # outgoing traffic keeps flowing through the chaos layer.
        actor.network = self

    def site_of(self, name: str) -> str:
        return self._inner.site_of(name)

    def endpoints(self) -> Tuple[str, ...]:
        return self._inner.endpoints()

    def partition(self, a: str, b: str, *, sites: bool = False) -> None:
        self._inner.partition(a, b, sites=sites)

    def heal(self, a: str, b: str, *, sites: bool = False) -> None:
        self._inner.heal(a, b, sites=sites)

    def heal_all(self) -> None:
        self._inner.heal_all()

    def shutdown(self) -> None:
        """Forward lifecycle teardown to inner transports that need it."""
        fn = getattr(self._inner, "shutdown", None)
        if fn is not None:
            fn()

    # -- chaos injection ----------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        cfg = self.config
        rng = self._rng
        if cfg.drop_rate and rng.random() < cfg.drop_rate:
            self.monitor.count("chaos.dropped")
            return
        if cfg.corrupt_rate and rng.random() < cfg.corrupt_rate:
            payload, corrupted = corrupt_payload(payload, rng)
            if corrupted:
                self.monitor.count("chaos.corrupted")
            else:
                self.monitor.count("chaos.dropped")
                return
        copies = 1
        if cfg.dup_rate and rng.random() < cfg.dup_rate:
            copies = 2
            self.monitor.count("chaos.duplicated")
        extra = self._endpoint_delay.get(src, 0.0) + self._endpoint_delay.get(dst, 0.0)
        if cfg.delay_rate and rng.random() < cfg.delay_rate:
            extra += rng.uniform(cfg.delay_min, cfg.delay_max)
            self.monitor.count("chaos.delayed")
        for _ in range(copies):
            if extra > 0:
                self._clock.schedule(
                    extra, partial(self._inner.send, src, dst, payload))
            else:
                self._inner.send(src, dst, payload)

    # -- scheduled chaos ops -------------------------------------------------

    def burst(self, duration: float, **rates: float) -> None:
        """Raise chaos rates for ``duration`` seconds, then restore them.

        ``rates`` are :class:`ChaosConfig` field names.  Windows must not
        overlap (the nemesis generator emits disjoint windows); overlapping
        bursts would restore each other's elevated values.
        """
        for name in rates:
            if name not in ChaosConfig.RATE_FIELDS:
                raise ValueError(f"unknown chaos rate {name!r}")
        saved = {name: getattr(self.config, name) for name in rates}
        for name, value in rates.items():
            setattr(self.config, name, value)
        self.monitor.count("chaos.burst")

        def restore() -> None:
            for name, value in saved.items():
                setattr(self.config, name, value)

        self._clock.schedule(duration, restore)

    def delay_endpoint(self, name: str, extra: float,
                       duration: Optional[float] = None) -> None:
        """Add ``extra`` seconds to every message from/to ``name``.

        With ``duration``, the slowdown clears automatically; otherwise call
        :meth:`clear_delay` (or :meth:`calm`).
        """
        self._endpoint_delay[name] = extra
        self.monitor.count("chaos.endpoint_delayed")
        if duration is not None:
            self._clock.schedule(duration, lambda: self.clear_delay(name))

    def clear_delay(self, name: str) -> None:
        """Remove the targeted slowdown for ``name``.  Idempotent."""
        self._endpoint_delay.pop(name, None)

    def flap_link(self, a: str, b: str, period: float, cycles: int) -> None:
        """Partition/heal the ``a``–``b`` link ``cycles`` times.

        Each cycle is ``period`` seconds down followed by ``period`` seconds
        up; the link always ends healed.
        """
        if cycles <= 0:
            return
        for cycle in range(cycles):
            start = 2 * period * cycle

            def down() -> None:
                self._inner.partition(a, b)
                self.monitor.count("chaos.flap")

            self._clock.schedule(start, down)
            self._clock.schedule(start + period, lambda: self._inner.heal(a, b))

    def calm(self) -> None:
        """Reset every chaos rate and targeted delay to zero.

        Scheduled by the nemesis at its horizon so a soak run can quiesce;
        does *not* heal inner-transport partitions (the nemesis schedules
        its own heals, and scripted partitions stay under caller control).
        """
        for name in ChaosConfig.RATE_FIELDS:
            setattr(self.config, name, 0.0)
        self._endpoint_delay.clear()
        self.monitor.count("chaos.calm")


def install_chaos(runtime, config: Optional[ChaosConfig] = None) -> ChaosTransport:
    """Wrap ``runtime``'s transport in a :class:`ChaosTransport`, in place.

    Must run *before* building a deployment on the runtime so every actor
    registers through (and sends through) the chaos layer.  Returns the
    wrapper; the inner transport stays reachable as ``chaos.inner``.
    """
    if runtime.transport is None:
        raise ValueError("runtime has no transport to wrap")
    chaos = ChaosTransport(
        runtime.transport,
        clock=runtime.clock,
        config=config,
        rng=runtime.rng,
        monitor=runtime.monitor,
    )
    runtime.network = chaos
    return chaos
