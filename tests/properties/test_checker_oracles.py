"""The linear order checkers against their quadratic originals.

Each ``*_oracle`` below is the checker as first written, kept verbatim as
the specification: on any delivery record the linear checker in
:mod:`repro.core.invariants` must report exactly what the oracle reports,
in the same order.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.invariants import check_validity
from repro.types import ClientId, MessageId, MulticastMessage, destination

GROUPS = ("g1", "g2", "g3")


def _key(message):
    return (message.mid.sender, message.mid.seq)


def check_validity_oracle(sequences, sent):
    """Rebuilds a key set per (message, group, replica)."""
    violations = []
    for message in sent:
        for group in message.dst:
            replicas = sequences.get(group, [])
            for index, sequence in enumerate(replicas):
                if _key(message) not in {_key(m) for m in sequence}:
                    violations.append(
                        f"message {_key(message)} missing at {group} replica {index}"
                    )
    return violations


@st.composite
def runs(draw):
    """Sent messages and, per group, replicas delivering any of them."""
    sent = [
        MulticastMessage(
            mid=MessageId(ClientId(draw(st.sampled_from("ab"))), seq),
            dst=destination(*draw(st.sets(st.sampled_from(GROUPS),
                                          min_size=1))))
        for seq in range(draw(st.integers(0, 8)))
    ]
    delivered = st.lists(st.sampled_from(sent), max_size=10) if sent \
        else st.just([])
    sequences = {
        group: draw(st.lists(delivered, max_size=4))
        for group in draw(st.sets(st.sampled_from(GROUPS)))
    }
    return sequences, sent


@given(runs())
def test_validity_reports_what_the_oracle_reports(run):
    sequences, sent = run
    assert check_validity(sequences, sent) == \
        check_validity_oracle(sequences, sent)
