#!/usr/bin/env python3
"""A multi-channel blockchain ordering service on ByzCast.

The paper motivates BFT atomic multicast with blockchain systems (§I), and
BFT-SMaRt itself became an ordering service for Hyperledger Fabric [32].
Plain per-channel ordering cannot put one transaction *atomically* on
several channels' chains in a consistent relative order — atomic multicast
can, and this demo shows it:

* three channels (payments, trades, audit), each a BFT group with a
  hash-chained ledger replicated 4 ways;
* single-channel transactions take the genuine fast path;
* cross-channel transactions land on every involved chain exactly once,
  and any two chains agree on the relative order of shared transactions;
* the final audit recomputes every hash chain and cross-checks the chains.

Run:  python examples/ordering_service.py
"""

from __future__ import annotations

from repro.apps.ledger import OrderingService, cross_channel_order_consistent

CHANNELS = ["payments", "trades", "audit"]


def main() -> None:
    service = OrderingService(CHANNELS)
    alice = service.client("alice")
    bank = service.client("bank")

    # Single-channel traffic (fast path: only that channel's group orders).
    for index in range(4):
        alice.submit_tx(["payments"], ("pay", "alice->bob", 10 + index))
        bank.submit_tx(["audit"], ("kyc-check", index))

    # Cross-channel: a trade settles atomically on trades AND payments,
    # with a regulatory record on audit.
    alice.submit_tx(["payments", "trades"], ("settle", "trade-1", 500))
    bank.submit_tx(["payments", "trades", "audit"], ("flag", "trade-1"))
    alice.submit_tx(["trades"], ("quote", "xyz", 7))

    ok = service.run_until_quiescent()
    assert ok, "transactions did not all commit"

    for channel in CHANNELS:
        ledger = service.ledger(channel)
        print(f"{channel}: height {ledger.height}, "
              f"head {ledger.head_hash.hex()[:16]}…")
        for entry in ledger.entries:
            scope = "x-chan" if len(entry.channels) > 1 else "local "
            print(f"   #{entry.height} [{scope}] {entry.payload} "
                  f"(tx {entry.txid[0]}:{entry.txid[1]})")

    print("\nAudit:")
    problems = service.verify_all()
    print(f"  hash chains intact + cross-channel order consistent: "
          f"{'yes' if not problems else problems}")
    assert problems == []
    pay, trades = service.ledger("payments"), service.ledger("trades")
    assert cross_channel_order_consistent(pay, trades)
    shared = set(pay.txids()) & set(trades.txids())
    print(f"  transactions shared by payments & trades: {len(shared)} — "
          "identical relative order on both chains.")


if __name__ == "__main__":
    main()
