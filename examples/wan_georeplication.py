#!/usr/bin/env python3
"""Geo-replicated ByzCast across four regions (the paper's WAN, §V-B2/H).

Deploys the 2-level tree with every replica of every group in a different
EC2 region (CA, VA, EU, JP — latencies from Table I), so the system
tolerates the loss of an entire region.  One client per region multicasts
local and global messages; the output shows how inter-region round-trips
dominate latency and how ByzCast's local messages avoid the second
ordering round.

Run:  python examples/wan_georeplication.py
"""

from __future__ import annotations

from repro import ByzCastDeployment, OverlayTree, destination
from repro.metrics.stats import summarize
from repro.runtime.environments import (
    REGIONS,
    TABLE1_RTT_MS,
    wan_latency_model,
    wan_site_assigner,
)

TARGETS = ["g1", "g2", "g3", "g4"]


def main() -> None:
    print("Inter-region RTTs (Table I):")
    for (a, b), rtt in sorted(TABLE1_RTT_MS.items()):
        print(f"  {a} <-> {b}: {rtt:.0f} ms")

    tree = OverlayTree.two_level(TARGETS)
    deployment = ByzCastDeployment(
        tree,
        latency=wan_latency_model(),
        sites=wan_site_assigner,           # replica i of each group -> region i
    )
    clients = {}
    for region in REGIONS:
        clients[region] = deployment.add_client(f"client-{region}", site=region)

    # Each regional client sends a few local and a few global messages.
    for region, client in clients.items():
        for j in range(3):
            client.amulticast(destination("g1"), payload=("local", region, j))
        for j in range(2):
            client.amulticast(destination("g2", "g3"),
                              payload=("global", region, j))
    deployment.run(until=60.0)

    print("\nPer-region client latency (median over its messages):")
    for region, client in clients.items():
        assert client.pending() == 0, f"client in {region} did not finish"
        local = [lat for msg, lat in client.completions if msg.is_local]
        global_ = [lat for msg, lat in client.completions if msg.is_global]
        print(f"  {region}: local {summarize(local).median * 1000:6.1f} ms   "
              f"global {summarize(global_).median * 1000:6.1f} ms")

    # Survive the loss of an entire region: crash every replica in JP.
    print("\nCrashing every replica in region JP (one per group) ...")
    for group in deployment.groups.values():
        for index, replica in enumerate(group.replicas):
            if wan_site_assigner(group.config.group_id, index) == "JP":
                replica.crash()
    survivor = clients["CA"]
    survivor.amulticast(destination("g1", "g4"), payload=("after-region-loss",))
    deployment.run(until=120.0)
    assert survivor.pending() == 0
    message, latency = survivor.completions[-1]
    print(f"multicast after region loss completed in {latency * 1000:.1f} ms")
    print("OK: the deployment tolerates the failure of a whole region.")


if __name__ == "__main__":
    main()
