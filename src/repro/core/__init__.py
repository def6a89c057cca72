"""ByzCast: the Byzantine fault-tolerant atomic multicast protocol (§III).

Public surface:

* :class:`~repro.core.tree.OverlayTree` — the group overlay tree (reach,
  children, lowest common ancestor, heights).
* :class:`~repro.core.node.ByzCastApplication` — Algorithm 1, run as the
  replicated application of every group.
* :class:`~repro.core.client.MulticastClient` — the ``a-multicast`` client.
* :class:`~repro.core.deployment.ByzCastDeployment` — builds a whole system
  (groups, tree, network) in one simulation.
"""

from repro.core.tree import OverlayTree
from repro.core.messages import WireMulticast, MulticastReply
from repro.core.relay import QuorumMerge
from repro.core.node import ByzCastApplication
from repro.core.client import MulticastClient
from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import (
    check_acyclic_order,
    check_agreement,
    check_all,
    check_integrity,
    check_prefix_order,
    check_validity,
)

__all__ = [
    "OverlayTree",
    "WireMulticast",
    "MulticastReply",
    "QuorumMerge",
    "ByzCastApplication",
    "MulticastClient",
    "ByzCastDeployment",
    "check_agreement",
    "check_integrity",
    "check_validity",
    "check_prefix_order",
    "check_acyclic_order",
    "check_all",
]
