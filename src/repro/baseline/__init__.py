"""The paper's non-genuine comparison protocol (§V-A3).

:class:`~repro.baseline.naive.BaselineDeployment` is the 2-level atomic
multicast: one auxiliary group orders *all* messages (local and global)
and re-broadcasts them into the destination target groups, which order
them again before delivering (the "double ordering" every Baseline message
pays, §V-H).

The other comparison protocol, plain BFT-SMaRt, needs no code of its own:
it is a :class:`~repro.core.deployment.ByzCastDeployment` over the one
group g1 (``protocol.kind: "bftsmart"``), which orders every message
alone, as ByzCast orders a local message.
"""

from repro.baseline.naive import BaselineClient, BaselineDeployment

__all__ = [
    "BaselineDeployment",
    "BaselineClient",
]
