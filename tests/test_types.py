"""Unit tests for core value types."""

from __future__ import annotations

import pytest

from repro.types import (
    ClientId,
    MessageId,
    MulticastMessage,
    destination,
)


class TestDestination:
    def test_builds_frozenset(self):
        dst = destination("g1", "g2")
        assert isinstance(dst, frozenset)
        assert dst == {"g1", "g2"}

    def test_deduplicates(self):
        assert destination("g1", "g1") == {"g1"}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            destination()


class TestMulticastMessage:
    def test_local_vs_global(self):
        local = MulticastMessage(MessageId(ClientId("c"), 1), destination("g1"))
        global_ = MulticastMessage(MessageId(ClientId("c"), 2),
                                   destination("g1", "g2"))
        assert local.is_local and not local.is_global
        assert global_.is_global and not global_.is_local

    def test_hashable_identity(self):
        a = MulticastMessage(MessageId(ClientId("c"), 1), destination("g1"),
                             payload=("x",))
        b = MulticastMessage(MessageId(ClientId("c"), 1), destination("g1"),
                             payload=("x",))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_payloads_differ(self):
        a = MulticastMessage(MessageId(ClientId("c"), 1), destination("g1"),
                             payload=("x",))
        b = MulticastMessage(MessageId(ClientId("c"), 1), destination("g1"),
                             payload=("y",))
        assert a != b

    def test_str_representations(self):
        message = MulticastMessage(MessageId(ClientId("c"), 7),
                                   destination("g2", "g1"))
        assert "c:7" in str(message)
        assert "g1,g2" in str(message)


class TestWireRoundTrip:
    def test_message_to_wire_and_back(self):
        from repro.core.messages import WireMulticast

        original = MulticastMessage(
            MessageId(ClientId("alice"), 42),
            destination("g3", "g1"),
            payload=("op", 1),
        )
        wire = WireMulticast.from_message(original)
        assert wire.dst == ("g1", "g3")  # canonical sorted order
        restored = wire.to_message()
        assert restored == original


class TestKeyValueApplication:
    def make(self):
        from repro.bcast.app import KeyValueApplication
        return KeyValueApplication()

    def run_op(self, app, command):
        from repro.bcast.messages import Request
        return app.execute(Request("g", "c", 1, command), ctx=None)

    def test_put_get_delete(self):
        app = self.make()
        assert self.run_op(app, ("put", "k", 1)) == ("ok", None)
        assert self.run_op(app, ("get", "k")) == ("ok", 1)
        assert self.run_op(app, ("del", "k")) == ("ok", 1)
        assert self.run_op(app, ("get", "k")) == ("ok", None)

    def test_cas(self):
        app = self.make()
        self.run_op(app, ("put", "k", 1))
        assert self.run_op(app, ("cas", "k", 1, 2)) == ("ok", True)
        assert self.run_op(app, ("cas", "k", 1, 3)) == ("ok", False)
        assert self.run_op(app, ("get", "k")) == ("ok", 2)

    def test_unknown_op(self):
        app = self.make()
        assert self.run_op(app, ("frobnicate",))[0] == "error"

    def test_determinism_across_replicas(self):
        ops = [("put", "a", 1), ("cas", "a", 1, 2), ("del", "b"),
               ("put", "b", 3), ("get", "a")]
        first, second = self.make(), self.make()
        for op in ops:
            assert self.run_op(first, op) == self.run_op(second, op)
        assert first.store == second.store
