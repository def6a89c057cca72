"""The linear order checkers against their quadratic originals.

Each ``*_oracle`` below is the checker as first written, kept verbatim as
the specification.  On any delivery record the linear checker in
:mod:`repro.core.invariants` must report a violation iff its oracle does:
``check_validity`` exactly what the oracle reports, in the same order;
``check_prefix_order`` one of the oracle's pairs per disagreeing group
pair; ``check_acyclic_order`` a node that lies on a cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from hypothesis import given, strategies as st

from repro.core.invariants import (
    GroupSequences,
    _first_replica_orders,
    check_acyclic_order,
    check_prefix_order,
    check_validity,
)
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


def check_prefix_order_oracle(sequences: GroupSequences) -> List[str]:
    """Messages with common destinations are delivered in one relative order.

    Uses the first replica of each group (run :func:`check_agreement` first).
    Missing deliveries are the business of :func:`check_validity`; this
    checker only compares relative orders of commonly delivered pairs.
    """
    orders = _first_replica_orders(sequences)
    positions: Dict[str, Dict[Tuple, int]] = {
        group: {key: index for index, key in enumerate(order)}
        for group, order in orders.items()
    }
    violations = []
    groups = sorted(orders)
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            common = sorted(set(positions[g]) & set(positions[h]))
            for a_index, m in enumerate(common):
                for m2 in common[a_index + 1:]:
                    g_order = positions[g][m] < positions[g][m2]
                    h_order = positions[h][m] < positions[h][m2]
                    if g_order != h_order:
                        violations.append(
                            f"groups {g}/{h} disagree on order of {m} and {m2}"
                        )
    return violations


def check_acyclic_order_oracle(sequences: GroupSequences) -> List[str]:
    """The global delivery relation ``<`` contains no cycle.

    Builds the union of every group's delivery order and searches for a
    cycle with an iterative DFS (no recursion limits on large runs).
    """
    orders = _first_replica_orders(sequences)
    edges: Dict[Tuple, Set[Tuple]] = {}
    for order in orders.values():
        for i in range(len(order)):
            edges.setdefault(order[i], set())
            for j in range(i + 1, len(order)):
                edges[order[i]].add(order[j])
                edges.setdefault(order[j], set())
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    for start in edges:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[Tuple, Iterable]] = [(start, iter(edges[start]))]
        color[start] = GREY
        while stack:
            node, iterator = stack[-1]
            advanced = False
            for neighbour in iterator:
                if color[neighbour] == GREY:
                    return [f"cycle in delivery order through {neighbour}"]
                if color[neighbour] == WHITE:
                    color[neighbour] = GREY
                    stack.append((neighbour, iter(edges[neighbour])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []


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


@st.composite
def reordered_runs(draw):
    """Every group delivers all sent messages, each in its own order: the
    order checkers' violations are the common case here."""
    sent = [MulticastMessage(mid=MessageId(ClientId("a"), seq),
                             dst=destination(*GROUPS))
            for seq in range(draw(st.integers(2, 6)))]
    return {group: [draw(st.permutations(sent))] for group in GROUPS}, sent


@given(runs())
def test_validity_reports_what_the_oracle_reports(run):
    sequences, sent = run
    assert check_validity(sequences, sent) == \
        check_validity_oracle(sequences, sent)


@given(st.one_of(runs(), reordered_runs()))
def test_prefix_order_reports_a_pair_the_oracle_reports(run):
    """One violation per disagreeing group pair, the first mismatch of
    their restricted orders, where the oracle lists every pair."""
    sequences, __ = run
    linear = check_prefix_order(sequences)
    oracle = check_prefix_order_oracle(sequences)
    assert set(linear) <= set(oracle)

    def group_pairs(violations):
        return {line.split()[1] for line in violations}

    assert group_pairs(linear) == group_pairs(oracle)
    assert len(linear) == len(group_pairs(oracle))


@given(st.one_of(runs(), reordered_runs()))
def test_acyclic_order_finds_a_cycle_iff_the_oracle_does(run):
    sequences, __ = run
    linear = check_acyclic_order(sequences)
    assert bool(linear) == bool(check_acyclic_order_oracle(sequences))
    if linear:
        # the node it names lies on a cycle of the delivery relation
        named = [key for order in _first_replica_orders(sequences).values()
                 for key in order
                 if linear == [f"cycle in delivery order through {key}"]]
        assert _on_a_cycle(sequences, named[0])


def _on_a_cycle(sequences, node) -> bool:
    """Whether ``node`` reaches itself in the union of the groups' orders."""
    later: Dict[Tuple, Set[Tuple]] = {}
    for order in _first_replica_orders(sequences).values():
        for i, key in enumerate(order):
            later.setdefault(key, set()).update(order[i + 1:])
    seen: Set[Tuple] = set()
    frontier = list(later.get(node, ()))
    while frontier:
        key = frontier.pop()
        if key == node:
            return True
        if key not in seen:
            seen.add(key)
            frontier.extend(later.get(key, ()))
    return False
