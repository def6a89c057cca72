"""Optional TCP transport for the real-time backend.

A :class:`TcpTransport` plays the role of one *host*: it owns a set of
local endpoints, one listening socket, and lazily-opened outgoing
connections to peer hosts.  Frames are length-prefixed ``(src, dst,
payload)`` routing tuples in either wire codec — tagged JSON
(:mod:`repro.env.codec`, the default) or the struct-packed binary format
(:mod:`repro.env.wire`), selected per host with ``wire="binary"`` (every
host of a deployment must agree).  Several hosts share a plain *directory*
dict mapping endpoint names to ``(host, port)`` addresses — in tests the
directory is a shared in-memory dict, in a real deployment it would be
distributed configuration.  A second shared dict, the *site directory*,
maps endpoint names to site labels so site-level partitions apply across
hosts.

Messages to local endpoints short-circuit through the ready queue;
messages to remote endpoints go through one ordered outbound queue per
peer host, so per-link FIFO holds across the socket as well.  Partition
semantics match the in-process transport: pair- and site-blocked traffic
is dropped at the sender and counted as ``net.partitioned``.  The
transport applies no latency model and loses nothing on its own; loss is
:class:`~repro.env.chaos.ChaosTransport`'s.

Robustness: outbound pumps survive connection loss — they reconnect with
capped exponential backoff plus jitter (``net.reconnect`` counted) and
re-send the frame that failed mid-write.  A pump that exhausts
``CONNECT_RETRIES`` gives up (``net.connect_failed``), discarding queued
frames as ``net.blackholed``; the next send to that address respawns the
pump with a fresh backoff cycle instead of enqueueing into a dead link
forever.  Inbound connections parse frames from a single compacted
``bytearray`` (no per-frame re-slicing); an undecodable frame body is
counted as ``net.bad_frame`` and skipped (framing stays in sync), while a
corrupt length prefix — unresyncable — drops the connection.  Outbound
writes are zero-copy: the payload body is handed to
``writelines`` between the route-prefix buffers without concatenation.
:meth:`TcpTransport.shutdown` drains pending outbound queues (bounded)
before cancelling the pumps.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.env.codec import get_codec
from repro.env.links import LinkTable
from repro.env.monitor import Monitor

#: how often an outbound connection (re)tries before giving up
CONNECT_RETRIES = 40
CONNECT_BACKOFF = 0.05
#: reconnect backoff is capped here (seconds, before jitter)
MAX_BACKOFF = 1.0
#: how long shutdown() waits for outbound queues to flush
DRAIN_TIMEOUT = 0.5
#: frames coalesced into one writelines() call per flush
WRITE_BATCH = 64


class TcpTransport(LinkTable):
    """One host's endpoints behind a TCP listener (length-prefixed frames).

    The :class:`~repro.env.links.LinkTable` holds this host's *local*
    endpoints; :meth:`register` also publishes them to the shared
    directories, and :meth:`site_of` falls back to the site directory for
    endpoints on other hosts.
    """

    def __init__(
        self,
        aloop: asyncio.AbstractEventLoop,
        monitor: Optional[Monitor] = None,
        directory: Optional[Dict[str, Tuple[str, int]]] = None,
        site_directory: Optional[Dict[str, str]] = None,
        host: str = "127.0.0.1",
        wire: str = "json",
    ) -> None:
        super().__init__(monitor if monitor is not None else Monitor())
        self._aloop = aloop
        self.directory = directory if directory is not None else {}
        #: endpoint name -> site label, shared across hosts like the address
        #: directory so site partitions can resolve *remote* endpoints
        self.site_directory = (site_directory if site_directory is not None
                               else {})
        self.host = host
        self.wire = wire
        self._codec = get_codec(wire)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._out_queues: Dict[Tuple[str, int], asyncio.Queue] = {}
        self._out_tasks: Dict[Tuple[str, int], asyncio.Task] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self, port: int = 0) -> int:
        """Bind the listening socket; publishes local endpoints and returns
        the bound port.  Must run on the runtime's asyncio loop."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for name in self._endpoints:
            self.directory[name] = (self.host, self.port)
        return self.port

    def shutdown(self) -> None:
        """Drain outbound queues (bounded), cancel pumps, close the listener."""
        if (not self._aloop.is_closed() and not self._aloop.is_running()
                and self._out_queues):
            try:
                self._aloop.run_until_complete(
                    asyncio.wait_for(self.drain(), DRAIN_TIMEOUT))
            except (asyncio.TimeoutError, RuntimeError):
                pass  # best effort: undelivered frames are dropped below
        for task in self._out_tasks.values():
            task.cancel()
        self._out_tasks.clear()
        self._out_queues.clear()
        if self._server is not None:
            self._server.close()
            self._server = None

    async def drain(self) -> None:
        """Wait until every outbound queue has been flushed to its socket."""
        while any(not q.empty() for q in self._out_queues.values()):
            await asyncio.sleep(0.01)

    # -- registration ------------------------------------------------------

    def register(self, actor: Any, site: str = "site0") -> None:
        super().register(actor, site)
        self.site_directory[actor.name] = site
        if self.port is not None:
            self.directory[actor.name] = (self.host, self.port)

    def site_of(self, name: str) -> str:
        entry = self._endpoints.get(name)
        if entry is not None:
            return entry[1]
        return self.site_directory.get(name, "site0")

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        if src not in self._endpoints:
            raise NetworkError(f"unknown source endpoint {src!r}")
        local = dst in self._endpoints
        if not local and dst not in self.directory:
            raise NetworkError(f"unknown destination endpoint {dst!r}")
        self.monitor.count("net.sent")
        if (src, dst) in self._blocked_pairs:
            self.monitor.count("net.partitioned")
            return
        if self._blocked_sites and (
                (self.site_of(src), self.site_of(dst)) in self._blocked_sites):
            self.monitor.count("net.partitioned")
            return
        if local:
            actor = self._endpoints[dst][0]
            self._aloop.call_soon(actor.receive, src, payload)
            return
        address = self.directory[dst]
        # frame_route_parts encodes the payload once (memoised) and only
        # splices the per-recipient route buffers — a broadcast never
        # re-walks the messages in the payload.
        self._outbound(address).put_nowait(
            self._codec.frame_route_parts(src, dst, payload))

    # -- plumbing ----------------------------------------------------------

    def _outbound(self, address: Tuple[str, int]) -> asyncio.Queue:
        queue = self._out_queues.get(address)
        if queue is None:
            queue = asyncio.Queue()
            self._out_queues[address] = queue
        task = self._out_tasks.get(address)
        if task is None or task.done():
            # First send to this address — or its pump gave up on an
            # unreachable peer and died.  Respawn with a fresh backoff
            # cycle; without this, every later frame to the address would
            # sit in a queue nobody drains.
            self._out_tasks[address] = self._aloop.create_task(
                self._pump(address, queue)
            )
        return queue

    async def _connect(self, address: Tuple[str, int]):
        """Open a connection with capped exponential backoff plus jitter.

        The jitter factor, in [0.5, 1.5), is a crc32 of (this host, the
        peer, the attempt): hosts retrying one peer de-synchronize without
        a random draw.
        """
        for attempt in range(CONNECT_RETRIES):
            try:
                _, writer = await asyncio.open_connection(*address)
                return writer
            except OSError:
                backoff = min(CONNECT_BACKOFF * (2 ** attempt), MAX_BACKOFF)
                key = f"{self.host}:{self.port}>{address}:{attempt}"
                jitter = (zlib.crc32(key.encode()) % 1024) / 1024.0
                await asyncio.sleep(backoff * (0.5 + jitter))
        self.monitor.count("net.connect_failed")
        return None

    async def _pump(self, address: Tuple[str, int], queue: asyncio.Queue) -> None:
        """One ordered writer per peer host (per-link FIFO over the socket).

        Survives connection loss: the frame that failed mid-write is kept
        and re-sent over a fresh connection, so per-link FIFO holds across
        reconnects too.  Queue entries are tuples of buffers
        (``frame_route_parts``); up to ``WRITE_BATCH`` frames are coalesced
        into a single ``writelines`` call per flush.
        """
        writer = None
        pending: List[Tuple[bytes, ...]] = []
        try:
            while True:
                if writer is None:
                    writer = await self._connect(address)
                    if writer is None:
                        # Peer stayed unreachable; give up on this link and
                        # account for every frame it swallows.  The next
                        # send respawns the pump (see _outbound).
                        lost = len(pending)
                        while not queue.empty():
                            queue.get_nowait()
                            lost += 1
                        if lost:
                            self.monitor.count("net.blackholed", lost)
                        return
                if not pending:
                    pending.append(await queue.get())
                    while (len(pending) < WRITE_BATCH
                           and not queue.empty()):
                        pending.append(queue.get_nowait())
                try:
                    # Entries are part-tuples from frame_route_parts, but a
                    # single pre-joined frame (bytes) is accepted too.
                    writer.writelines(
                        [part for parts in pending
                         for part in (parts if isinstance(parts, tuple)
                                      else (parts,))])
                    await writer.drain()
                    pending.clear()
                except ConnectionError:
                    self.monitor.count("net.reconnect")
                    writer.close()
                    writer = None
        except asyncio.CancelledError:
            pass
        finally:
            if writer is not None:
                writer.close()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        buffer = bytearray()

        def bad_frame(exc: NetworkError) -> None:
            # Undecodable body inside intact framing: count, skip, resync
            # at the next length prefix — one poisoned frame cannot take
            # down the link or the frames around it.
            self.monitor.count("net.bad_frame")

        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buffer += chunk
                messages, ok = self._codec.drain_frames(
                    buffer, on_bad=bad_frame)
                for message in messages:
                    # A frame that decodes but is not a (src, dst, payload)
                    # routing tuple must not crash the reader task.
                    if not (isinstance(message, tuple) and len(message) == 3):
                        self.monitor.count("net.bad_frame")
                        continue
                    src, dst, payload = message
                    entry = self._endpoints.get(dst)
                    if entry is None:
                        self.monitor.count("net.misrouted")
                        continue
                    entry[0].receive(src, payload)
                if not ok:
                    # Corrupt length prefix: the stream cannot be resynced,
                    # drop the connection (the peer's pump reconnects).
                    self.monitor.count("net.bad_frame")
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()
