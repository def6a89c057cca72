#!/usr/bin/env python3
"""Live group reconfiguration: replace a replica without stopping service.

BFT-SMaRt (and therefore each ByzCast group) supports ordered membership
changes (§IV).  This demo runs a single broadcast group under client load,
then has the view manager swap a replica for a standby: the change is
totally ordered with the traffic, the standby catches up by state
transfer, and clients never notice.

Run:  python examples/reconfiguration_demo.py
"""

from __future__ import annotations

from repro.bcast.app import EchoApplication
from repro.bcast.client import GroupProxy
from repro.bcast.config import BroadcastConfig
from repro.bcast.group import BroadcastGroup
from repro.bcast.messages import Reply
from repro.bcast.reconfig import View, ViewManager
from repro.bcast.replica import Replica
from repro.crypto.keys import KeyRegistry
from repro.env import Actor, JitterLatency, make_runtime


class Client(Actor):
    def __init__(self, name, runtime, config, registry):
        super().__init__(name, runtime)
        self.proxy = GroupProxy(self, config.group_id, config.replicas,
                                config.f, registry)
        self.results = []

    def submit(self, command):
        self.proxy.submit(command, self.results.append)

    def on_message(self, src, payload):
        if isinstance(payload, Reply):
            self.proxy.handle_reply(src, payload)


def main() -> None:
    runtime = make_runtime(
        "sim", latency=JitterLatency(0.00005),
        seed=1, trace_capacity=20000)
    network = runtime.transport
    registry = KeyRegistry()
    config = BroadcastConfig(
        group_id="g1",
        replicas=("g1/r0", "g1/r1", "g1/r2", "g1/r3"),
        f=1,
        request_timeout=0.5,
    )
    group = BroadcastGroup.build(runtime, config, registry,
                                 app_factory=lambda name: EchoApplication())
    initial_view = View(config.replicas, config.f)

    # A standby replica, outside the initial view.
    standby = Replica("g1/r4", config, runtime, registry, EchoApplication(),
                      view=initial_view)
    network.register(standby)
    admin = ViewManager("g1", runtime, initial_view, registry)
    network.register(admin)
    client = Client("client", runtime, config, registry)
    network.register(client)

    group.start()
    standby.start()

    print("Phase 1: 10 requests under the initial membership")
    for j in range(10):
        client.submit(("phase1", j))
    runtime.run(until=1.0)
    print(f"  completed: {len(client.results)}; "
          f"standby executed: {len(standby.app.executed)} (not a member)")

    print("\nPhase 2: view manager swaps g1/r3 -> g1/r4 during traffic")
    new_members = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    admin.reconfigure(new_members)
    for j in range(10):
        client.submit(("phase2", j))
    runtime.run(until=6.0)
    client.proxy.update_replicas(new_members, config.f)
    runtime.run(until=8.0)

    print(f"  completed: {len(client.results)} / 20")
    print(f"  old member g1/r3 active: {group.replica('g1/r3').active}")
    print(f"  standby  g1/r4 active: {standby.active}")
    print(f"  standby executed {len(standby.app.executed)} commands "
          "(caught up via state transfer)")
    assert len(client.results) == 20
    assert standby.active and not group.replica("g1/r3").active
    assert standby.app.executed == group.replica("g1/r0").app.executed

    print("\nPhase 3: the new membership keeps making progress")
    for j in range(5):
        client.submit(("phase3", j))
    runtime.run(until=12.0)
    print(f"  completed: {len(client.results)} / 25")
    assert len(client.results) == 25
    print("OK: membership changed mid-stream with zero lost requests.")


if __name__ == "__main__":
    main()
