"""Measured rt fast path: wire-codec cells over the real asyncio/TCP stack.

Where the sim matrix (:mod:`repro.perf.runner`) measures the *protocol*
under a calibrated cost model, these cells measure the *transport*: one
sender host broadcasting signed proposal batches to receiver hosts over
real TCP sockets through :class:`~repro.env.tcp.TcpTransport`, once per
wire codec.  The workload is the protocol's steady-state shape — a
32-request ``Propose`` whose commands carry opaque byte payloads, plus the
batch's MAC vector (:func:`repro.crypto.mac_vector`, one digest per batch,
one 16-byte tag per link) — so a cell's throughput is the full pipeline:
construct → digest → MAC → encode (once, memoised) → frame →
socket → stream reassembly → decode, per receiver.

``rt_binary_mixed`` gates on ``RT_WIRE_SPEEDUP`` x ``rt_json_mixed``'s
throughput via the cross-name gate in
:func:`repro.perf.baseline.compare` — the acceptance bar for the binary
codec (docs/WIRE.md).  Cells are wall-clock: numbers vary with the host
and are *not* bit-reproducible, so per-cell regression tolerances never
apply to them (the committed baselines carry no rt cells); only the
codec-vs-codec ratio, which divides out machine speed, gates.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto import KeyRegistry, cache as _crypto_cache, mac_vector
from repro.env.tcp import TcpTransport
from repro.perf.baseline import CellResult

#: throughput multiple ``rt_binary_mixed`` must reach over
#: ``rt_json_mixed`` (ISSUE 9 acceptance bar; docs/WIRE.md)
RT_WIRE_SPEEDUP = 2.0

#: the rt cell CI's bench-smoke job runs (with ``--compare``, so the
#: speedup gate is checked against the json cell from the same run)
RT_SMOKE_CELLS = ("rt_json_mixed", "rt_binary_mixed")


@dataclass(frozen=True)
class RtCell:
    """One wire-codec point of the rt transport benchmark."""

    name: str
    wire: str                      # "json" | "binary"
    receivers: int = 2
    requests_per_batch: int = 32
    #: size of the opaque command payload carried by each request
    blob_bytes: int = 2048
    warmup: float = 0.3
    duration: float = 1.2
    #: flow-control window: batches in flight before the sender yields
    window: int = 32
    #: cross-name gate, same contract as :class:`BenchCell`
    baseline: Optional[str] = None
    speedup: Optional[float] = None
    #: wall-clock cells never carry meaningful p95s — compare() must not
    #: read their latency as a regression signal
    saturated: bool = True


RT_MATRIX: List[RtCell] = [
    RtCell(name="rt_json_mixed", wire="json"),
    RtCell(name="rt_binary_mixed", wire="binary",
           baseline="rt_json_mixed", speedup=RT_WIRE_SPEEDUP),
]


class _Sink:
    """Receiver endpoint: counts deliveries, keeps the last payload alive."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.network = None
        self.delivered = 0
        self.last = None

    def receive(self, src: str, payload) -> None:
        self.delivered += 1
        self.last = payload


class _Source:
    """Sender endpoint: transports require a registered local actor."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.network = None

    def receive(self, src: str, payload) -> None:  # pragma: no cover
        pass


def _batch_factory(cell: RtCell):
    """A ``make(i) -> Propose`` closure with payload blobs precomputed.

    Blob construction is workload *generation*, not transport work, so the
    byte payloads are built once up front; every call still constructs a
    fresh ``Propose``/``Request`` object graph so the memoised encode
    path is exercised honestly (one cold encode per batch, reused
    across the ``receivers`` links).
    """
    from repro.bcast.messages import Propose, Request
    from repro.crypto.signatures import Signature

    blobs = [bytes([i % 256]) * cell.blob_bytes for i in range(64)]
    nreq = cell.requests_per_batch
    sigs = [Signature(f"bench-c{j}", bytes(16)) for j in range(nreq)]

    def make(i: int):
        reqs = tuple(
            Request("g1", f"bench-c{j}", i,
                    ("put", f"key-{i}-{j}", blobs[(i + j) % 64]), sigs[j])
            for j in range(nreq))
        return Propose("g1", 0, i, reqs, "g1/r0")

    return make


def run_rt_cell(cell: RtCell, optimised: bool = True) -> CellResult:
    """Run one rt transport cell and collapse it to a :class:`CellResult`.

    Throughput is batch *deliveries* per second across all receiver links
    (a broadcast to ``receivers`` peers that all arrive counts
    ``receivers`` times).  Latency stats are zero: the cell is a
    closed-loop saturation measurement, not a service-time probe.
    """
    _crypto_cache.configure(optimised)
    _crypto_cache.clear_caches()
    try:
        throughput, delivered, wall = _run(cell)
    finally:
        _crypto_cache.configure(True)
    return CellResult(
        name=cell.name,
        throughput=throughput,
        completed=delivered,
        latency_ms={"mean": 0.0, "median": 0.0, "p95": 0.0, "p99": 0.0},
        wall_seconds=wall,
        max_retained=0,
    )


def _run(cell: RtCell):
    aloop = asyncio.new_event_loop()
    try:
        directory: Dict = {}
        sites: Dict[str, str] = {}
        sender = TcpTransport(aloop, directory=directory,
                              site_directory=sites, wire=cell.wire)
        hosts = [TcpTransport(aloop, directory=directory,
                              site_directory=sites, wire=cell.wire)
                 for _ in range(cell.receivers)]
        source = _Source("rt-send0")
        sender.register(source)
        sinks = []
        for k, host in enumerate(hosts):
            sink = _Sink(f"rt-recv{k}")
            host.register(sink)
            sinks.append(sink)
        registry = KeyRegistry()
        make = _batch_factory(cell)
        dests = [sink.name for sink in sinks]
        fanout = len(dests)

        async def drive():
            await sender.start()
            for host in hosts:
                await host.start()

            sent = 0
            i = 0

            async def pump(until: float):
                nonlocal sent, i
                limit = cell.window * fanout
                while time.perf_counter() < until:
                    batch = make(i)
                    vec = mac_vector(registry, source.name, dests, batch)
                    payload = (batch, vec)
                    for dst in dests:
                        sender.send(source.name, dst, payload)
                    sent += fanout
                    i += 1
                    if i % 8 == 0:
                        while (sum(s.delivered for s in sinks)
                               < sent - limit):
                            await asyncio.sleep(0)

            await pump(time.perf_counter() + cell.warmup)
            base = sum(s.delivered for s in sinks)
            t0 = time.perf_counter()
            await pump(t0 + cell.duration)
            # drain in-flight frames so the window doesn't clip the count
            deadline = time.perf_counter() + 2.0
            while (sum(s.delivered for s in sinks) < sent
                   and time.perf_counter() < deadline):
                await asyncio.sleep(0.005)
            wall = time.perf_counter() - t0
            delivered = sum(s.delivered for s in sinks) - base
            return delivered, wall

        delivered, wall = aloop.run_until_complete(drive())
        sender.shutdown()
        for host in hosts:
            host.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.01))
        throughput = delivered / wall if wall > 0 else 0.0
        return throughput, delivered, wall
    finally:
        aloop.close()
