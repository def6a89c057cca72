"""The non-genuine 2-level Baseline atomic multicast (§V-A3).

One auxiliary group atomically broadcasts **every** message — local or
global — and then re-broadcasts it into the destination target groups,
which order it again before delivering (each target replica acts once
``f + 1`` auxiliary replicas' copies are ordered, exactly like a ByzCast
relay hop).  The paper implements Baseline with the same machinery as
ByzCast's 2-level tree, just without the genuine shortcut for local
messages, and we do the same: :class:`BaselineDeployment` *is* a ByzCast
deployment over a flat tree whose clients always enter at the root.

Consequences the evaluation draws out (and the benchmarks assert):

* every message pays the double ordering — local latency ≈ global latency
  ≈ 2× a single BFT-SMaRt group (Figs. 6(a)-8);
* the sequencer group caps total throughput, so adding target groups barely
  helps (Fig. 4(a));
* local messages queue behind global ones — the convoy effect (Fig. 6/10).
"""

from __future__ import annotations

from typing import List

from repro.core.client import MulticastClient
from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.types import MulticastMessage


class BaselineClient(MulticastClient):
    """A Baseline client: every message enters at the sequencer group."""

    def _entry_group(self, message: MulticastMessage) -> str:
        return self.tree.root


class BaselineDeployment(ByzCastDeployment):
    """One ordering (sequencer) group over plain target groups.

    A :class:`~repro.core.deployment.ByzCastDeployment` over a flat tree
    whose clients enter at the root and whose target replicas accept
    relays from any ancestor; ``aux_group`` exposes the sequencer for
    tests and fault injection.
    """

    client_class = BaselineClient
    app_kwargs = {"accept_any_ancestor": True}

    def __init__(self, targets: List[str], **kwargs) -> None:
        super().__init__(OverlayTree.two_level(list(targets), root="h1"),
                         **kwargs)

    @property
    def aux_group(self):
        """The sequencer group ordering every message."""
        return self.groups["h1"]
