"""Property-based tests for trees, canonicalization, FIFO, and statistics."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bcast.fifo import PendingPool, SenderTracker
from repro.bcast.messages import Request
from repro.core.tree import OverlayTree
from repro.crypto.digest import canonical_bytes
from repro.metrics.stats import percentile


# -- random trees -------------------------------------------------------------


@st.composite
def random_trees(draw):
    """A random valid overlay tree over 2-6 target groups."""
    n_targets = draw(st.integers(min_value=2, max_value=6))
    targets = [f"g{i}" for i in range(n_targets)]
    # Random partition of targets into 1..3 branches.
    n_branches = draw(st.integers(min_value=1, max_value=min(3, n_targets)))
    assignment = [draw(st.integers(min_value=0, max_value=n_branches - 1))
                  for _ in targets]
    # Ensure each branch non-empty by forcing the first n_branches targets.
    for index in range(n_branches):
        assignment[index] = index
    branches = {}
    for target, branch in zip(targets, assignment):
        branches.setdefault(branch, []).append(target)
    if len(branches) == 1:
        return OverlayTree.two_level(targets), targets
    parents = {}
    for branch_index, members in branches.items():
        if len(members) == 1:
            parents[members[0]] = "root"
        else:
            aux = f"h{branch_index + 2}"
            parents[aux] = "root"
            for member in members:
                parents[member] = aux
    return OverlayTree(parents, targets), targets


@st.composite
def tree_and_destination(draw):
    tree, targets = draw(random_trees())
    size = draw(st.integers(min_value=1, max_value=len(targets)))
    dst = draw(st.permutations(targets))[:size]
    return tree, frozenset(dst)


@given(tree_and_destination())
@settings(max_examples=200, deadline=None)
def test_lca_is_common_ancestor_and_lowest(case):
    tree, dst = case
    lca = tree.lca(dst)
    # lca reaches every destination.
    assert dst <= tree.reach(lca)
    # No child of the lca reaches all destinations (lowest-ness).
    for child in tree.children(lca):
        assert not dst <= tree.reach(child)


@given(tree_and_destination())
@settings(max_examples=200, deadline=None)
def test_involved_groups_contains_destination_and_lca(case):
    tree, dst = case
    involved = tree.involved_groups(dst)
    assert dst <= involved
    assert tree.lca(dst) in involved
    # Every involved group lies on a root-path of some destination.
    for group in involved:
        assert any(group in tree.ancestors(d) for d in dst)


@given(tree_and_destination())
@settings(max_examples=200, deadline=None)
def test_route_children_covers_all_destinations(case):
    tree, dst = case
    lca = tree.lca(dst)
    routed = tree.route_children(lca, dst)
    covered = set()
    for child in routed:
        covered |= tree.reach(child) & dst
    if lca in dst:
        covered.add(lca)
    assert covered == dst


# -- canonicalization ----------------------------------------------------------

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.text(max_size=12),
    st.binary(max_size=12),
)
values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=12,
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_canonical_bytes_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(values, values)
@settings(max_examples=300, deadline=None)
def test_canonical_bytes_separates_distinct_values(a, b):
    def norm(v):
        if isinstance(v, bool):
            return ("bool", v)  # canonical form type-tags bools vs ints
        if isinstance(v, (list, tuple)):
            # ... and lists vs tuples, as the wire does
            return (type(v).__name__, tuple(norm(x) for x in v))
        if isinstance(v, dict):
            return ("map", tuple(sorted((k, norm(x)) for k, x in v.items())))
        return v

    if norm(a) != norm(b):
        assert canonical_bytes(a) != canonical_bytes(b)
    else:
        assert canonical_bytes(a) == canonical_bytes(b)


# -- FIFO pool -----------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 15)),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_admissible_batches_always_fifo(arrivals, max_batch):
    pool = PendingPool()
    tracker = SenderTracker()
    for sender, seq in arrivals:
        pool.add(Request("g", sender, seq, ()))
    delivered = {}
    for _ in range(10):
        batch = pool.admissible_batch(tracker, max_batch)
        if not batch:
            break
        assert len(batch) <= max_batch
        for request in batch:
            expected = delivered.get(request.sender, tracker.last(request.sender)) + 1
            assert request.seq == expected
            delivered[request.sender] = request.seq
            tracker.advance(request.sender, request.seq)
            pool.remove(request.sender, request.seq)


# -- percentile ------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
       st.floats(min_value=0, max_value=100))
@settings(max_examples=300, deadline=None)
def test_percentile_bounded_and_monotone(samples, p):
    value = percentile(samples, p)
    assert min(samples) <= value <= max(samples)
    if p >= 1:
        assert percentile(samples, p - 1) <= value
