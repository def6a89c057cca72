"""Checkers for the atomic multicast properties of §II-B.

These functions inspect the a-delivery records collected during a run and
return human-readable violation descriptions (empty list = property holds).
They are used by the test suite (including the property-based suite and the
fault-injection suite) and are part of the public API so downstream users
can validate their own deployments and extensions.

The run should be quiescent (all submitted multicasts completed) before
checking Validity; safety properties (Agreement relative order, Integrity,
Prefix/Acyclic order) are checkable at any cut.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.types import MulticastMessage

#: per-group delivery orders: group id → per-replica message sequences
GroupSequences = Mapping[str, Sequence[Sequence[MulticastMessage]]]


def _key(message: MulticastMessage) -> Tuple:
    return (message.mid.sender, message.mid.seq)


def check_agreement(sequences: GroupSequences) -> List[str]:
    """All correct replicas of one group deliver the same sequence."""
    violations = []
    for group, replicas in sequences.items():
        canonical = None
        for index, sequence in enumerate(replicas):
            keys = [_key(m) for m in sequence]
            if canonical is None:
                canonical = keys
            elif keys != canonical:
                violations.append(
                    f"group {group}: replica {index} delivered {keys}, "
                    f"expected {canonical}"
                )
    return violations


def check_integrity(sequences: GroupSequences,
                    sent: Iterable[MulticastMessage]) -> List[str]:
    """At-most-once delivery, only at destinations, only sent messages."""
    sent_by_key = {_key(m): m for m in sent}
    violations = []
    for group, replicas in sequences.items():
        for index, sequence in enumerate(replicas):
            seen: Set[Tuple] = set()
            for message in sequence:
                key = _key(message)
                if key in seen:
                    violations.append(
                        f"group {group}: replica {index} delivered {key} twice"
                    )
                seen.add(key)
                origin = sent_by_key.get(key)
                if origin is None:
                    violations.append(
                        f"group {group}: delivered never-multicast message {key}"
                    )
                elif group not in origin.dst:
                    violations.append(
                        f"group {group}: delivered {key} not addressed to it"
                    )
    return violations


def check_validity(sequences: GroupSequences,
                   sent: Iterable[MulticastMessage]) -> List[str]:
    """Every sent message is delivered by every destination group.

    Only meaningful once the run is quiescent.
    """
    delivered = {
        group: [{_key(m) for m in sequence} for sequence in replicas]
        for group, replicas in sequences.items()
    }
    violations = []
    for message in sent:
        key = _key(message)
        for group in message.dst:
            for index, keys in enumerate(delivered.get(group, ())):
                if key not in keys:
                    violations.append(
                        f"message {key} missing at {group} replica {index}"
                    )
    return violations


def _first_replica_orders(sequences: GroupSequences) -> Dict[str, List[Tuple]]:
    return {
        group: [_key(m) for m in replicas[0]] if replicas else []
        for group, replicas in sequences.items()
    }


def check_prefix_order(sequences: GroupSequences) -> List[str]:
    """Messages with common destinations are delivered in one relative order.

    Uses the first replica of each group (run :func:`check_agreement` first).
    Missing deliveries are the business of :func:`check_validity`; this
    checker only compares relative orders of commonly delivered pairs.
    Two groups agree on every such pair iff their orders restricted to the
    common messages are equal lists, so each group pair costs one pass and
    reports its first mismatch.  A message delivered twice counts at its
    last position.
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
            in_g, in_h = (
                [key for index, key in enumerate(orders[a])
                 if positions[a][key] == index and key in positions[b]]
                for a, b in ((g, h), (h, g)))
            for m, m2 in zip(in_g, in_h):
                if m != m2:
                    m, m2 = sorted((m, m2))
                    violations.append(
                        f"groups {g}/{h} disagree on order of {m} and {m2}")
                    break
    return violations


def check_acyclic_order(sequences: GroupSequences) -> List[str]:
    """The global delivery relation ``<`` contains no cycle.

    Each group's order is a chain, so its consecutive pairs (the chain's
    transitive reduction) reach everything its full relation reaches: the
    union of those O(deliveries) edges has a cycle iff ``<`` has one.  An
    iterative DFS (no recursion limits on large runs) searches for it.
    """
    edges: Dict[Tuple, Set[Tuple]] = {}
    for order in _first_replica_orders(sequences).values():
        for node in order:
            edges.setdefault(node, set())
        for before, after in zip(order, order[1:]):
            edges[before].add(after)
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


def check_all(sequences: GroupSequences, sent: Iterable[MulticastMessage],
              quiescent: bool = True) -> List[str]:
    """Run every checker; returns the concatenated violation list."""
    sent = list(sent)
    violations = []
    violations += check_agreement(sequences)
    violations += check_integrity(sequences, sent)
    if quiescent:
        violations += check_validity(sequences, sent)
    violations += check_prefix_order(sequences)
    violations += check_acyclic_order(sequences)
    return violations
