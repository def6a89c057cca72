"""Tests for the multi-channel ordering service (ledger)."""

from __future__ import annotations

import pytest

from repro.apps.ledger import (
    ChannelLedger,
    OrderingService,
    cross_channel_order_consistent,
)
from repro.errors import ConfigurationError
from tests.helpers import FAST_COSTS

CHANNELS = ["payments", "trades", "audit"]


def make_service(**kwargs) -> OrderingService:
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.5)
    return OrderingService(CHANNELS, **kwargs)


class TestChannelLedgerUnit:
    def test_append_and_verify(self):
        ledger = ChannelLedger("ch")
        ledger.append(("c", 1), ("ch",), ("tx1",))
        ledger.append(("c", 2), ("ch",), ("tx2",))
        assert ledger.height == 2
        assert ledger.verify_chain()

    def test_tamper_detection_payload(self):
        ledger = ChannelLedger("ch")
        ledger.append(("c", 1), ("ch",), ("tx1",))
        ledger.append(("c", 2), ("ch",), ("tx2",))
        tampered = ledger.entries[0]
        object.__setattr__(tampered, "payload", ("evil",))
        assert not ledger.verify_chain()

    def test_tamper_detection_reorder(self):
        ledger = ChannelLedger("ch")
        ledger.append(("c", 1), ("ch",), ("tx1",))
        ledger.append(("c", 2), ("ch",), ("tx2",))
        ledger.entries.reverse()
        assert not ledger.verify_chain()

    def test_cross_channel_consistency_helper(self):
        a, b = ChannelLedger("a"), ChannelLedger("b")
        a.append(("c", 1), ("a", "b"), ("x",))
        a.append(("c", 2), ("a", "b"), ("y",))
        b.append(("c", 1), ("a", "b"), ("x",))
        b.append(("z", 9), ("b",), ("local",))
        b.append(("c", 2), ("a", "b"), ("y",))
        assert cross_channel_order_consistent(a, b)
        b.entries[0], b.entries[2] = b.entries[2], b.entries[0]
        assert not cross_channel_order_consistent(a, b)


class TestOrderingService:
    def test_single_channel_transactions(self):
        service = make_service()
        client = service.client("c1")
        for index in range(5):
            client.submit_tx(["payments"], ("pay", index))
        assert service.run_until_quiescent()
        ledger = service.ledger("payments")
        assert ledger.height == 5
        assert ledger.verify_chain()
        assert [e.payload for e in ledger.entries] == [
            ("pay", i) for i in range(5)
        ]
        assert service.ledger("trades").height == 0

    def test_cross_channel_transaction_on_both_chains(self):
        service = make_service()
        client = service.client("c1")
        client.submit_tx(["payments", "trades"], ("settle", 1))
        assert service.run_until_quiescent()
        pay, trade = service.ledger("payments"), service.ledger("trades")
        assert pay.height == 1 and trade.height == 1
        assert pay.entries[0].txid == trade.entries[0].txid
        assert service.verify_all() == []

    def test_concurrent_clients_consistent_cross_order(self):
        service = make_service()
        clients = [service.client(f"c{i}") for i in range(3)]
        for index, client in enumerate(clients):
            for j in range(4):
                client.submit_tx(["payments", "trades"], ("swap", index, j))
                client.submit_tx(["payments"], ("local-pay", index, j))
                client.submit_tx(["audit", "trades"], ("note", index, j))
        assert service.run_until_quiescent()
        assert service.verify_all() == []
        # Shared transactions appear in the same relative order everywhere.
        pay, trade = service.ledger("payments"), service.ledger("trades")
        assert cross_channel_order_consistent(pay, trade)
        assert pay.height == 24   # 12 swaps + 12 local
        assert trade.height == 24  # 12 swaps + 12 notes
        assert service.ledger("audit").height == 12

    def test_commit_result_reports_height_and_hash(self):
        service = make_service()
        client = service.client("c1")
        confirmed = []
        client.submit_tx(["audit"], ("evt",), callback=lambda message,
                         latency, results: confirmed.append(results))
        assert service.run_until_quiescent()
        (results,) = confirmed
        kind, height, entry_hash = results["audit"]
        assert kind == "committed"
        assert height == 0
        assert entry_hash == service.ledger("audit").entries[0].entry_hash

    def test_rejects_unknown_channel_config(self):
        from repro.core.tree import OverlayTree

        with pytest.raises(ConfigurationError):
            OrderingService(["nope"], tree=OverlayTree.two_level(["a", "b"]))
        with pytest.raises(ConfigurationError):
            OrderingService([])

    def test_byzantine_replica_cannot_fork_the_chain(self):
        """A corrupted replica's ledger diverges locally, but clients only
        accept f+1 matching commit results — the honest chain wins."""
        service = make_service()
        client = service.client("c1")
        client.submit_tx(["payments"], ("a",))
        assert service.run_until_quiescent()
        # Corrupt one replica's chain.
        bad = service._ledgers["payments"][0]
        bad.entries.clear()
        confirmed = []
        client.submit_tx(["payments"], ("b",), callback=lambda message,
                         latency, results: confirmed.append(results))
        assert service.run_until_quiescent()
        (results,) = confirmed
        kind, height, entry_hash = results["payments"]
        # The confirmed result reflects the honest replicas (height 1),
        # not the corrupted one (which would report height 0).
        assert height == 1
