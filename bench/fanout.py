"""One repeat of ``rt_tcp_fanout``: the transport under a broadcast load.

One ``TcpTransport`` sender broadcasts MAC-vectored ``Propose`` batches to
receiver hosts over loopback sockets (binary wire), a fixed window of
batches in flight.  Each receiver checks its link's MAC tag on every
delivery — the receive-side gate of batch authentication — and reads the
latency off a ``perf_counter`` stamp carried in the payload.  Throughput
counts *requests* delivered (batch deliveries x requests per batch).

The work is fixed, not the time: a repeat asked for ``duration`` seconds
sends ``BATCH_RATE x duration`` batches however long that takes.  The
program's memo caches are sized in entries and hold whole batches, so peak
memory follows the number of batches sent; a time-boxed run would make it
follow the host's speed.

Outputs are checked twice: in line, every delivery must arrive in FIFO
order with a valid tag; after the run, a strided sample of the delivered
batches is compared for equality against batches regenerated from the
seed.
"""

from __future__ import annotations

import asyncio
import resource
import time
from typing import Callable, Dict, List, Optional

from repro.crypto.cache import cache_stats
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import mac_vector, verify_mac_vector
from repro.env.tcp import TcpTransport

from bench.deploy import latency_stats
from bench.hostspeed import Ticker
from bench.probes import REQUESTS_PER_BATCH, batch_factory

RECEIVERS = 2
#: batches a repeat sends per second it was asked to measure (the baseline
#: box sustains a little more, so a repeat lasts about that long)
BATCH_RATE = 250
#: batches in flight (summed over links: WINDOW x RECEIVERS deliveries)
WINDOW = 32
#: every n-th delivery per receiver is kept for the equality check
KEEP_EVERY = 16
DRAIN = 3.0
SENDER = "rt-send0"


class Sink:
    """Receiver endpoint: verifies, times and counts every delivery."""

    def __init__(self, name: str, registry: KeyRegistry) -> None:
        self.name = name
        self.network = None
        self.registry = registry
        self.delivered = 0
        self.next_cid = 0
        self.problems: List[str] = []
        #: (arrival perf_counter, latency seconds) per delivery
        self.arrivals: List[tuple] = []
        self.kept: List[object] = []

    def receive(self, src: str, payload) -> None:
        now = time.perf_counter()
        batch, vector, stamp = payload
        if batch.cid != self.next_cid:
            self.problems.append(
                f"{self.name}: got cid {batch.cid}, expected {self.next_cid}")
        self.next_cid = batch.cid + 1
        if not verify_mac_vector(self.registry, src, self.name, batch, vector):
            self.problems.append(f"{self.name}: bad MAC on cid {batch.cid}")
        if batch.cid % KEEP_EVERY == 0:
            self.kept.append(batch)
        self.delivered += 1
        self.arrivals.append((now, now - stamp))


class Source:
    """Sender endpoint: transports require a registered local actor."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.network = None

    def receive(self, src: str, payload) -> None:
        pass


def run(seed: int, warmup: float, duration: float,
        mark_setup: Callable[[], float], tracer=None,
        expect: Optional[Callable[[int], object]] = None) -> Dict:
    """Run one repeat.  ``expect`` overrides the batches the equality check
    regenerates (the tests corrupt it to show the check bites)."""
    aloop = asyncio.new_event_loop()
    transports: List[TcpTransport] = []
    try:
        directory: Dict = {}
        sites: Dict[str, str] = {}
        registry = KeyRegistry()
        sender = TcpTransport(aloop, directory=directory,
                              site_directory=sites, wire="binary")
        hosts = [TcpTransport(aloop, directory=directory,
                              site_directory=sites, wire="binary")
                 for _ in range(RECEIVERS)]
        transports = [sender, *hosts]
        source = Source(SENDER)
        sender.register(source)
        sinks = [Sink(f"rt-recv{k}", registry) for k in range(RECEIVERS)]
        for host, sink in zip(hosts, sinks):
            host.register(sink)
        make = batch_factory(seed)
        dests = [sink.name for sink in sinks]
        marks: Dict[str, float] = {}

        async def drive():
            for transport in transports:
                await transport.start()
            sent = 0
            cid = 0

            def delivered() -> int:
                return sum(sink.delivered for sink in sinks)

            async def pump(batches: int) -> None:
                nonlocal sent, cid
                for _ in range(batches):
                    batch = make(cid)
                    vector = mac_vector(registry, SENDER, dests, batch)
                    payload = (batch, vector, time.perf_counter())
                    for dst in dests:
                        sender.send(SENDER, dst, payload)
                    sent += RECEIVERS
                    cid += 1
                    while delivered() < sent - WINDOW * RECEIVERS:
                        await asyncio.sleep(0)

            marks["setup_s"] = mark_setup()
            ticker = Ticker(aloop.call_later, aloop.time)
            marks["start"] = time.perf_counter()
            await pump(max(1, round(BATCH_RATE * warmup)))
            marks["lo"] = time.perf_counter()
            await pump(max(1, round(BATCH_RATE * duration)))
            marks["hi"] = time.perf_counter()
            deadline = marks["hi"] + DRAIN
            while delivered() < sent and time.perf_counter() < deadline:
                await asyncio.sleep(0.002)
            marks["end"] = time.perf_counter()
            ticker.stop()
            return sent, ticker

        driven = time.perf_counter()
        if tracer is not None:
            with tracer.span("env.asyncio_loop"):
                sent, ticker = aloop.run_until_complete(drive())
        else:
            sent, ticker = aloop.run_until_complete(drive())
        driven_wall = time.perf_counter() - driven

        lo, hi = marks["lo"], marks["hi"]
        window = [lat for sink in sinks for t, lat in sink.arrivals
                  if lo <= t <= hi]
        completed = sum(sink.delivered for sink in sinks)
        run_wall = marks["end"] - marks["start"]
        per_batch = REQUESTS_PER_BATCH
        problems = [p for sink in sinks for p in sink.problems]
        expect = expect if expect is not None else make
        mismatched = [
            f"{sink.name}: delivered batch {batch.cid} differs from the "
            "batch generated from the seed"
            for sink in sinks for batch in sink.kept
            if batch != expect(batch.cid)]
        counters = {}
        for transport in transports:
            for key, value in transport.monitor.snapshot().items():
                counters[key] = counters.get(key, 0) + value
        return {
            "setup_s": marks["setup_s"],
            "run_wall_s": run_wall,
            "driven_wall_s": driven_wall,
            "clock": "wall",
            "window_s": hi - lo,
            "offered_s": hi - marks["start"],
            "attempted": sent * per_batch,
            "completed": completed * per_batch,
            "failed": (sent - completed) * per_batch,
            "ops_in_window": len(window) * per_batch,
            "throughput_msgs_per_s": len(window) * per_batch / (hi - lo),
            "host_msgs_per_s": completed * per_batch / run_wall,
            "frames_per_s": len(window) / (hi - lo),
            "latency_global_p50_ms": 0.0,
            "global_ops_in_window": 0,
            **latency_stats(window),
            "host_speed": ticker.speed.factor(),
            "counters": counters,
            "cache": cache_stats(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks": {"fifo_and_mac": problems,
                       "payload_equality": mismatched},
            "equality_sample": sum(len(sink.kept) for sink in sinks),
        }
    finally:
        for transport in transports:
            transport.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.01))
        aloop.close()
