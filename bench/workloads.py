"""The seven named workloads.

Each deployment workload is a :class:`repro.scenario.ScenarioSpec`; the
benchmark materialises it through ``repro.scenario.build`` (the one
construction path).  ``--seed`` is the only workload-generation input: it
becomes the spec's seed, from which the deployment derives every client's
random stream, the network jitter and the key material.

The protocol section is the same everywhere — the system as it is meant to
run: adaptive batching and memoisation on, four consensus instances in
flight, a checkpoint every 64 cids, the ``bench`` cost model
(``BENCH_SCALE`` = 10), f = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.runtime.environments import bench_batch_delay
from repro.scenario.spec import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

PROTOCOL = ProtocolSpec(
    adaptive_batching=True,
    max_in_flight=4,
    checkpoint_interval=64,
    costs="bench",
    batch_delay=bench_batch_delay(),
)

#: the ``run_seconds`` of BENCHMARK.json the windows below are sized for
REFERENCE_SECONDS = 12

TWO_LEVEL = TopologySpec(groups=2, layout="two_level", latency="lan")
PAPER_TREE = TopologySpec(groups=4, layout="paper", latency="lan")
PAPER_TREE_WAN = TopologySpec(groups=4, layout="paper", latency="wan",
                              sites="wan_spread")


@dataclass(frozen=True)
class Crash:
    """Crash the current leader of the tree's root group ``after`` of the
    way into the measurement window."""

    after: float

    def at(self, warmup: float, duration: float) -> float:
        return warmup + self.after * duration


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``sim`` (virtual clock), ``rt`` (asyncio, in-process transport) or
    #: ``fanout`` (one TcpTransport sender over loopback sockets)
    kind: str
    warmup: float
    #: measurement window of one repeat at the reference ``--seconds``
    #: (``REFERENCE_SECONDS``), in clock seconds: virtual on sim — sized so
    #: the repeats together take about that long in wall time on the box
    #: the baseline was measured on — and wall on rt
    duration: float
    #: fresh subprocesses per measurement; the run's numbers are their
    #: median.  Two on sim, where the second is also the determinism check
    #: and only the host metrics vary; four on the wall clock
    repeats: int
    topology: Optional[TopologySpec] = None
    load: Optional[WorkloadSpec] = None
    app: str = "none"
    crash: Optional[Crash] = None

    @property
    def clock(self) -> str:
        return "virtual" if self.kind == "sim" else "wall"

    def window(self, seconds: float) -> Tuple[float, float]:
        """(warmup, duration) of one repeat when asked for ``seconds``."""
        scale = seconds / REFERENCE_SECONDS
        return self.warmup * min(1.0, max(scale, 0.5)), self.duration * scale

    def spec(self, seed: int, warmup: float, duration: float) -> ScenarioSpec:
        """The scenario of one repeat (deployment workloads only)."""
        load = replace(self.load, client_prefix="bench-c",
                       warmup=warmup, duration=duration)
        return ScenarioSpec(
            name=self.name, topology=self.topology, workload=load,
            protocol=PROTOCOL, app=self.app,
            backend="sim" if self.kind == "sim" else "rt", seed=seed,
        ).check()


WORKLOADS = (
    Workload(
        name="local_lan", kind="sim", warmup=1.0, duration=2.0, repeats=2,
        topology=TWO_LEVEL,
        load=WorkloadSpec(clients=96, loop="closed", destinations="local"),
        why="single-group messages on a 2-level tree, 96 closed-loop "
            "clients: repro.bcast ordering does all the work and repro.core "
            "relays nothing (Fig. 4/5 local case, single-group baseline)",
    ),
    Workload(
        name="global_tree", kind="sim", warmup=0.5, duration=0.8, repeats=2,
        topology=PAPER_TREE,
        load=WorkloadSpec(clients=48, loop="closed", destinations="global"),
        why="uniform pairs on the Fig. 1(a) 3-level tree: every op crosses "
            "the lca plus relay hops with f+1 merge, so repro.core relay "
            "amplification dominates and ordering is the minority",
    ),
    Workload(
        name="mixed_wan", kind="sim", warmup=2.0, duration=16.0, repeats=2,
        topology=PAPER_TREE_WAN,
        load=WorkloadSpec(clients=32, loop="closed", destinations="mixed",
                          local_parts=10, global_parts=1),
        why="Table I WAN matrix, one replica per region: latency is message "
            "delays x RTT, so CPU-side work must not move virtual latency "
            "here while a step-count reduction shows fully",
    ),
    Workload(
        name="kv_read90", kind="sim", warmup=1.0, duration=2.5, repeats=2,
        topology=TWO_LEVEL, app="sharded_kv",
        load=WorkloadSpec(clients=24, loop="open", rate=100.0,
                          key_dist="zipfian", read_ratio=0.9,
                          read_mode="optimistic"),
        why="sharded KV, zipfian keys, open loop at half the ordered "
            "path's capacity, 90% optimistic f+1 reads beside 10% ordered "
            "writes: a read-path gain that taxes writes shows as p95 up",
    ),
    Workload(
        name="leader_crash", kind="sim", warmup=0.5, duration=6.0,
        repeats=2,
        topology=TWO_LEVEL, crash=Crash(after=1 / 3),
        load=WorkloadSpec(clients=16, loop="open", rate=20.0,
                          destinations="mixed", local_parts=10,
                          global_parts=1),
        why="open loop keeps sending on schedule while the auxiliary "
            "group has no leader: the only workload that executes "
            "repro.bcast.regency, seen in latency_mean_ms and bcast.outage_ms",
    ),
    Workload(
        name="rt_mixed", kind="rt", warmup=1.0, duration=3.0, repeats=4,
        topology=PAPER_TREE,
        load=WorkloadSpec(clients=16, loop="closed", destinations="mixed",
                          local_parts=10, global_parts=1),
        why="asyncio backend, no cost model: real crypto and real Python "
            "per message, so hot-path work must show here as user-visible "
            "latency and throughput (closed loop: see bench/README.md)",
    ),
    Workload(
        name="rt_tcp_fanout", kind="fanout", warmup=0.5, duration=3.0,
        repeats=4,
        why="one TcpTransport sender broadcasting MAC-vectored 32 x 2 KiB "
            "Propose batches over loopback: the only place bytes hit a "
            "socket; repro.env.wire/tcp and repro.crypto.mac do all the "
            "work",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
