"""Environment presets: the paper's LAN and WAN (§V-B).

LAN: a cluster with ~0.1 ms RTT between nodes (§V-B1) — modelled as 50 µs
one-way with 20 % jitter.

WAN: Amazon EC2 across four regions — California (CA), North Virginia (VA),
Frankfurt (EU) and Tokyo (JP) — with the pairwise latencies of **Table I**.
The paper reports them as "latency in milliseconds between pairs of
regions"; consistent with typical EC2 inter-region numbers we interpret
them as round-trip times and use half as one-way delay.

Cost models: :func:`calibrated_costs` targets the paper's absolute
reference points (≈19.5k msgs/s per group, ``K(h) ≈ 9500`` msgs/s for an
auxiliary group relaying global traffic, ≈4 ms single-client LAN latency).
Saturation experiments in Python are expensive at those rates, so the
benchmark suite uses :func:`bench_costs` — every CPU cost multiplied by
:data:`BENCH_SCALE` — with client counts scaled down accordingly; all
*ratios* between protocols and configurations are preserved.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.bcast.config import CostModel
from repro.env import JitterLatency, MatrixLatency

#: the four EC2 regions of §V-B2 (R1..R4)
REGIONS: Tuple[str, ...] = ("CA", "VA", "EU", "JP")

#: Table I — inter-region latency in milliseconds (interpreted as RTT)
TABLE1_RTT_MS: Dict[Tuple[str, str], float] = {
    ("EU", "CA"): 165.0,
    ("EU", "VA"): 88.0,
    ("EU", "JP"): 239.0,
    ("CA", "VA"): 70.0,
    ("CA", "JP"): 112.0,
    ("VA", "JP"): 175.0,
}

#: factor by which benchmark cost models are slowed down (see module doc)
BENCH_SCALE = 10.0


def lan_latency_model(jitter: float = 0.2) -> JitterLatency:
    """The LAN of §V-B1: 0.1 ms RTT (50 µs one-way) with jitter."""
    return JitterLatency(0.00005, jitter)


def wan_latency_model(jitter: float = 0.05) -> MatrixLatency:
    """The WAN of §V-B2: Table I as a one-way latency matrix (RTT / 2),
    in seconds."""
    matrix = {
        pair: rtt_ms / 2.0 / 1000.0 for pair, rtt_ms in TABLE1_RTT_MS.items()
    }
    return MatrixLatency(matrix, local=0.00005, jitter=jitter)


def wan_site_assigner(group_id: str, replica_index: int) -> str:
    """§V-B3: each process of a group in a different region."""
    return REGIONS[replica_index % len(REGIONS)]


def calibrated_costs() -> CostModel:
    """The CPU cost model matching the paper's reference points."""
    return CostModel()


def scale_costs(model: CostModel, factor: float) -> CostModel:
    """A cost model with every service time multiplied by ``factor``."""
    return CostModel(
        **{
            field.name: getattr(model, field.name) * factor
            for field in dataclasses.fields(CostModel)
        }
    )


def bench_costs() -> CostModel:
    """The slowed-down cost model used by the benchmark suite."""
    return scale_costs(calibrated_costs(), BENCH_SCALE)


def soak_costs() -> CostModel:
    """Cheap calibrated-shape cost model so sim soaks stay fast in wall time.

    (The chaos harness's model — exposed here so scenario specs can name
    it with ``protocol.costs: "soak"`` without importing the harness.)
    """
    return CostModel(
        request_recv=2e-6,
        propose_fixed=2e-5,
        propose_per_msg=2e-6,
        validate_fixed=2e-5,
        validate_per_msg=2e-6,
        vote_recv=2e-6,
        execute_per_msg=2e-6,
        reply_per_msg=2e-6,
        relay_per_dest=2e-6,
    )


def bench_batch_delay(scale: float = BENCH_SCALE) -> float:
    """The leader batch delay the benchmark's workload definitions still set.

    Inert: ``ProtocolSpec.batch_delay`` is accepted and ignored, because
    leaders batch naturally (``Replica._maybe_propose``) with no batch
    timer.  Kept, with its old value of 0.2 ms at paper scale, only until
    the benchmark's workloads stop importing it.
    """
    return 0.0002 * scale
