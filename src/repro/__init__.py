"""ByzCast — Byzantine Fault-Tolerant Atomic Multicast (DSN 2018).

A complete reproduction of the ByzCast system: a partially genuine BFT
atomic multicast built from per-group instances of FIFO BFT atomic
broadcast arranged in an overlay tree, plus every substrate it needs — a
deterministic discrete-event simulator, a BFT-SMaRt-style broadcast engine,
the comparison protocols, the overlay-tree optimizer, workload generators,
fault injection, and an experiment harness reproducing the paper's tables
and figures.

Quickstart::

    from repro import ByzCastDeployment, OverlayTree, destination

    tree = OverlayTree.paper_tree()            # Fig. 1(a)
    dep = ByzCastDeployment(tree)
    client = dep.add_client("c1")
    client.amulticast(destination("g2", "g3"), payload=("tx", 42))
    dep.run(until=5.0)
    print(dep.delivered_sequences("g2"))

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
reproduction of each table and figure of the paper's evaluation.

The root re-exports the protocol itself; the comparison protocols
(:mod:`repro.baseline`), the applications (:mod:`repro.apps`) and the
optimizer (:mod:`repro.optimizer`) are imported from their packages, so
``import repro`` does not load them.
"""

from repro.types import (
    ClientId,
    Destination,
    GroupId,
    MessageId,
    MulticastMessage,
    ProcessId,
    destination,
)
from repro.errors import (
    ConfigurationError,
    CryptoError,
    NetworkError,
    OptimizationError,
    ProtocolError,
    ReproError,
    SimulationError,
    TreeError,
    WorkloadError,
)
from repro.core import (
    ByzCastApplication,
    ByzCastDeployment,
    MulticastClient,
    OverlayTree,
)
from repro.bcast import (
    Application,
    BroadcastConfig,
    BroadcastGroup,
    CostModel,
    GroupProxy,
    Replica,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # types
    "ProcessId",
    "GroupId",
    "ClientId",
    "Destination",
    "destination",
    "MessageId",
    "MulticastMessage",
    # errors
    "ReproError",
    "ConfigurationError",
    "TreeError",
    "SimulationError",
    "NetworkError",
    "CryptoError",
    "ProtocolError",
    "OptimizationError",
    "WorkloadError",
    # core
    "OverlayTree",
    "ByzCastApplication",
    "ByzCastDeployment",
    "MulticastClient",
    # broadcast substrate
    "BroadcastConfig",
    "CostModel",
    "BroadcastGroup",
    "Replica",
    "GroupProxy",
    "Application",
]
