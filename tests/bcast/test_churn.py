"""Membership churn: scale cycles, reconfig/regency races, retirement.

Directed coverage for the elastic-membership hardening: growing and
shrinking a group with ``Reconfig.new_f``, a reconfiguration racing a
regency change at pipeline depth > 1, the leader leaving mid-window, the
joiner state-transfer backoff, and permanent decommissioning.
"""

from __future__ import annotations

from repro.bcast.app import EchoApplication
from repro.bcast.reconfig import View, ViewManager
from repro.bcast.replica import Replica
from tests.helpers import Harness, make_config


class ChurnHarness(Harness):
    """Harness with standby replicas (g1/r4, r5, ...) and a view manager."""

    def __init__(self, standbys: int = 1, **kwargs):
        super().__init__(**kwargs)
        initial = View(self.config.replicas, self.config.f)
        self.standbys = []
        for i in range(standbys):
            standby = Replica(
                name=f"g1/r{4 + i}",
                config=self.config,
                runtime=self.runtime,
                registry=self.registry,
                app=EchoApplication(),
                view=initial,
            )
            self.network.register(standby)
            self.standbys.append(standby)
        self.admin = ViewManager("g1", self.runtime, initial,
                                 self.registry)
        self.network.register(self.admin)

    def start_all(self):
        self.group.start()
        for standby in self.standbys:
            standby.start()


def test_scale_cycle_grows_then_shrinks_the_group():
    h = ChurnHarness(standbys=3)
    client = h.add_client()
    for j in range(5):
        client.submit(("pre", j))
    h.start_all()
    h.loop.run(until=1.0)

    # Scale up: f=1 -> f=2, membership 4 -> 7 in one ordered command.
    grown = h.config.replicas + tuple(s.name for s in h.standbys)
    confirmed = []
    h.admin.reconfigure(grown, callback=lambda r: confirmed.append("up"),
                        new_f=2)
    h.loop.run(until=8.0)
    assert confirmed == ["up"]
    for replica in h.group.replicas:
        assert replica.active
        assert replica.view.replicas == grown and replica.view.f == 2
    for standby in h.standbys:
        assert standby.active
        assert standby.view.replicas == grown and standby.view.f == 2

    client.proxy.update_replicas(grown, 2)
    for j in range(5):
        client.submit(("mid", j))
    h.loop.run(until=14.0)
    assert len(client.results) == 10

    # Scale down: back to the original four, f=2 -> f=1.
    h.admin.reconfigure(h.config.replicas,
                        callback=lambda r: confirmed.append("down"), new_f=1)
    h.loop.run(until=20.0)
    assert confirmed == ["up", "down"]
    for replica in h.group.replicas:
        assert replica.active
        assert replica.view.replicas == h.config.replicas
        assert replica.view.f == 1
    for standby in h.standbys:
        assert not standby.active

    client.proxy.update_replicas(h.config.replicas, 1)
    for j in range(5):
        client.submit(("post", j))
    h.loop.run(until=26.0)
    assert len(client.results) == 15
    sequences = [r.app.executed for r in h.group.replicas]
    assert all(seq == sequences[0] for seq in sequences)
    # The departed standbys hold a consistent prefix of the log.
    for standby in h.standbys:
        executed = standby.app.executed
        assert executed == sequences[0][: len(executed)]


def test_reconfig_racing_regency_change_pipelined():
    h = ChurnHarness(standbys=1, config=make_config(max_in_flight=4))
    client = h.add_client()
    h.start_all()
    for j in range(8):
        client.submit(("pre", j))
    h.loop.run(until=0.3)

    # Crash the regency-0 leader mid-window, then immediately order a
    # membership change: the Reconfig must be ordered under the new regency
    # while the synchronization phase is still converging.
    h.group.replicas[0].crash()
    new_members = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")  # r3 -> r4 swap
    confirmed = []
    h.admin.reconfigure(new_members, callback=lambda r: confirmed.append(r))
    for j in range(4):
        client.submit(("post", j))
    h.loop.run(until=30.0)

    assert confirmed, "reconfiguration never confirmed across the race"
    assert len(client.results) == 12
    survivors = [h.group.replicas[1], h.group.replicas[2], h.standbys[0]]
    for replica in survivors:
        assert replica.active
        assert replica.view.replicas == new_members
    sequences = [r.app.executed for r in survivors]
    assert all(seq == sequences[0] for seq in sequences)
    assert not h.group.replicas[3].active  # swapped out


def test_leader_leave_mid_window():
    h = ChurnHarness(standbys=1, config=make_config(max_in_flight=4))
    client = h.add_client()
    h.start_all()
    # Fill the pipeline, then remove the current leader via membership
    # change (not a crash): the group must finish the open window under
    # the successor leader the new view designates.
    for j in range(10):
        client.submit(("op", j))
    new_members = ("g1/r1", "g1/r2", "g1/r3", "g1/r4")
    h.admin.reconfigure(new_members)
    h.loop.run(until=20.0)

    client.proxy.update_replicas(new_members, 1)
    for j in range(5):
        client.submit(("late", j))
    h.loop.run(until=30.0)
    assert len(client.results) == 15
    assert not h.group.replicas[0].active
    survivors = list(h.group.replicas[1:]) + [h.standbys[0]]
    sequences = [r.app.executed for r in survivors]
    assert all(seq == sequences[0] for seq in sequences)


def test_lonely_joiner_backs_off_instead_of_hot_looping():
    h = ChurnHarness(standbys=1)
    h.group.start()
    for replica in h.group.replicas:
        replica.crash()  # nobody left to answer state requests
    h.standbys[0].start()
    h.loop.run(until=120.0)

    # request_timeout=0.5 s: a hot joiner would fire ~240 state rounds in
    # 120 s.  The capped exponential backoff (64x) keeps it to a handful.
    assert h.monitor.counters["state.backoff"] >= 3
    assert h.monitor.counters["state.request"] <= 30


def test_decommission_is_permanent_retirement():
    h = ChurnHarness(standbys=1)
    client = h.add_client()
    h.start_all()
    standby = h.standbys[0]
    standby.decommission()  # operator retires the standby before it joins
    assert not standby.active

    # The group still adopts a view naming the retired replica, but
    # replaying that Reconfig must not reactivate it.
    new_members = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    h.admin.reconfigure(new_members)
    client.submit(("op",))
    h.loop.run(until=15.0)
    for replica in h.group.replicas[:3]:
        assert replica.view.replicas == new_members
    assert not standby.active
    assert h.monitor.counters["replica.decommissioned"] == 1
    standby.decommission()  # idempotent: no second departure
    assert h.monitor.counters["replica.decommissioned"] == 1
    assert ("ok", ("op",)) in client.results
