"""Group reconfiguration: ordered membership changes (joins/removals)."""

from __future__ import annotations

import pytest

from repro.bcast.app import EchoApplication
from repro.bcast.messages import Reply
from repro.bcast.reconfig import Reconfig, View, ViewManager, admin_identity
from repro.bcast.replica import Replica
from repro.errors import ConfigurationError
from tests.helpers import Harness


class TestView:
    def test_view_validation(self):
        with pytest.raises(ConfigurationError):
            View(("a", "b", "c"), f=1)  # needs 4
        with pytest.raises(ConfigurationError):
            View(("a", "a", "b", "c"), f=1)

    def test_view_quorum_and_leader(self):
        view = View(("a", "b", "c", "d"), f=1)
        assert view.n == 4
        assert view.quorum == 3
        assert view.leader_of(0) == "a"
        assert view.leader_of(5) == "b"
        assert "a" in view and "x" not in view


class ReconfigHarness(Harness):
    """Harness with a joiner replica and a view manager."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        initial = View(self.config.replicas, self.config.f)
        # A standby replica, not in the initial view.
        self.joiner = Replica(
            name="g1/r4",
            config=self.config,
            runtime=self.runtime,
            registry=self.registry,
            app=EchoApplication(),
            view=initial,
        )
        self.network.register(self.joiner)
        self.admin = ViewManager("g1", self.runtime, initial,
                                 self.registry)
        self.network.register(self.admin)

    def run(self, until=10.0, **kwargs):
        super().run(until=until, **kwargs)

    def start_all(self):
        self.group.start()
        self.joiner.start()


def test_swap_follower_for_joiner():
    h = ReconfigHarness()
    client = h.add_client()
    for j in range(5):
        client.submit(("pre", j))
    h.start_all()
    h.loop.run(until=1.0)
    assert len(client.results) == 5

    # Replace follower r3 with the standby r4.
    new_members = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    confirmed = []
    h.admin.reconfigure(new_members, callback=lambda r: confirmed.append(r))
    h.loop.run(until=5.0)
    assert confirmed, "reconfiguration was not acknowledged"

    # Members adopted the new view; the removed replica deactivated.
    for replica in h.group.replicas[:3]:
        assert replica.view.replicas == new_members
        assert replica.active
    assert not h.group.replicas[3].active
    # The joiner caught up (log replay included the Reconfig) and activated.
    assert h.joiner.active
    assert h.joiner.view.replicas == new_members

    # The group still makes progress, with the joiner participating.
    client.proxy.update_replicas(new_members, h.config.f)
    for j in range(5):
        client.submit(("post", j))
    h.loop.run(until=10.0)
    assert len(client.results) == 10
    assert h.joiner.app.executed == h.group.replicas[0].app.executed
    assert [c for c in h.joiner.app.executed if c[0] == "post"] == [
        ("post", j) for j in range(5)
    ]


def test_swap_leader_triggers_new_schedule():
    h = ReconfigHarness()
    client = h.add_client()
    client.submit(("warm",))
    h.start_all()
    h.loop.run(until=1.0)

    # Remove the regency-0 leader (r0); r4 joins.
    new_members = ("g1/r1", "g1/r2", "g1/r3", "g1/r4")
    h.admin.reconfigure(new_members)
    h.loop.run(until=5.0)
    client.proxy.update_replicas(new_members, h.config.f)
    for j in range(5):
        client.submit(("after", j))
    h.loop.run(until=15.0)
    assert len(client.results) == 6
    survivors = [h.group.replicas[i] for i in (1, 2, 3)] + [h.joiner]
    sequences = [r.app.executed for r in survivors]
    assert all(seq == sequences[0] for seq in sequences)
    # The old leader no longer proposes (deactivated).
    assert not h.group.replicas[0].active


def test_unauthorized_reconfig_rejected():
    h = Harness()
    client = h.add_client()
    # A normal client tries to submit a Reconfig — replicas must not echo
    # the proposal that contains it.
    client.proxy.submit(Reconfig("g1", ("g1/r0", "g1/r1", "g1/r2", "evil")))
    client.submit(("normal",))
    h.run(until=10.0)
    # The honest command still completes (after leader change if needed)...
    assert ("ok", ("normal",)) in client.results
    # ...and no replica changed its view.
    for replica in h.group.replicas:
        assert replica.view.replicas == h.config.replicas


def test_a_departed_replicas_vote_no_longer_confirms_a_reconfig():
    h = ReconfigHarness()
    confirmed = []
    swapped = ("g1/r1", "g1/r2", "g1/r3", "g1/r4")
    h.admin.reconfigure(swapped, confirmed.append)

    def reply(src):
        return Reply("g1", src, h.admin.name, 1, ("ok",))

    h.admin.on_message("g1/r0", reply("g1/r0"))
    h.admin.update_view(swapped, 1)   # r0 leaves before the quorum formed
    h.admin.on_message("g1/r1", reply("g1/r1"))
    assert confirmed == []
    h.admin.on_message("g1/r2", reply("g1/r2"))
    assert confirmed == [("ok",)]


def test_admin_identity_is_namespaced():
    assert admin_identity("g1") == "admin@g1"
    assert admin_identity("g1") != admin_identity("g2")
