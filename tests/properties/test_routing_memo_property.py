"""Property: memoised tree routing answers what an uncached walk answers.

``OverlayTree`` remembers ``lca``/``involved_groups``/``route_children``
and the wire's destination check (``destination_problem``) per
destination set.  Over random trees (any depth, targets as inner
nodes too) and random destination sets, in every container type callers
pass: each answer equals a brute-force oracle written from the paper's
definitions on the first call and on every later one, an invalid
destination raises every time, the memo stays within its bound, and a
replica that executed a ``TreeUpdate`` routes on the new tree.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bcast.app import ExecutionContext
from repro.bcast.messages import Request
from repro.bcast.reconfig import admin_identity
from repro.core import tree as tree_module
from repro.core.messages import TreeUpdate
from repro.core.node import ByzCastApplication
from repro.core.tree import OverlayTree
from repro.crypto.keys import KeyRegistry
from repro.errors import TreeError
from tests.helpers import FakeReplica, make_config, wire_for

NODES = [f"n{i}" for i in range(9)]


@st.composite
def trees(draw):
    """A random tree rooted at ``n0``: node ``i`` hangs under a node drawn
    from those before it; leaves are targets, inner nodes may be."""
    size = draw(st.integers(min_value=2, max_value=len(NODES)))
    parents = {NODES[i]: NODES[draw(st.integers(min_value=0, max_value=i - 1))]
               for i in range(1, size)}
    inner = set(parents.values())
    targets = [n for n in NODES[:size]
               if n not in inner or draw(st.booleans())]
    return OverlayTree(parents, targets)


@st.composite
def destinations(draw, tree):
    targets = sorted(tree.targets)
    chosen = draw(st.lists(st.sampled_from(targets), min_size=1,
                           max_size=len(targets), unique=True))
    return tuple(sorted(chosen))


def oracle_lca(tree, dst):
    """The deepest node whose reach covers ``dst``."""
    covering = [n for n in tree.nodes if set(dst) <= tree.reach(n)]
    return max(covering, key=tree.depth)


def oracle_involved(tree, dst):
    """Nodes on the paths from the lca down to each destination."""
    below = tree.subtree(oracle_lca(tree, dst))
    return frozenset(n for n in below
                     if any(n in tree.ancestors(d) for d in dst))


def oracle_route(tree, node, dst):
    return tuple(c for c in tree.children(node) if tree.reach(c) & set(dst))


def spellings(dst):
    """One destination set in every container type callers pass."""
    return (dst, frozenset(dst), list(dst), tuple(reversed(dst)), set(dst),
            iter(dst))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_memoised_answers_equal_the_uncached_walk(data):
    tree = data.draw(trees())
    for __ in range(3):
        dst = data.draw(destinations(tree))
        lca = oracle_lca(tree, dst)
        involved = oracle_involved(tree, dst)
        for __ in range(2):     # a miss, then hits
            for spelled in spellings(dst):
                assert tree.lca(spelled) == lca
            for spelled in spellings(dst):
                assert tree.involved_groups(spelled) == involved
            for node in sorted(tree.nodes):
                for spelled in spellings(dst):
                    assert (tree.route_children(node, spelled)
                            == oracle_route(tree, node, dst))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_invalid_destinations_raise_every_time_and_are_never_remembered(data):
    tree = data.draw(trees())
    good = data.draw(destinations(tree))
    aux = sorted(tree.nodes - tree.targets)
    invalid = [(), ("nowhere",), good + ("nowhere",)]
    invalid += [(aux[0],), good + (aux[0],)] if aux else []
    for dst in invalid:
        for __ in range(3):
            with pytest.raises(TreeError):
                tree.lca(dst)
            with pytest.raises(TreeError):
                tree.involved_groups(dst)
        with pytest.raises(KeyError):
            tree.route_children("nowhere", good)
    assert tree.lca(good) == oracle_lca(tree, good)
    assert set(tree._lca_memo) == {good}
    assert set(tree._involved_memo) == set()
    assert set(tree._route_memo) == set()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_the_memo_never_exceeds_its_bound(data):
    tree = data.draw(trees())
    with mock.patch.object(tree_module, "ROUTE_MEMO_LIMIT", 3):
        for __ in range(12):
            dst = data.draw(destinations(tree))
            spelled = data.draw(st.sampled_from(spellings(dst)[:4]))
            assert tree.lca(spelled) == oracle_lca(tree, dst)
            assert tree.involved_groups(spelled) == oracle_involved(tree, dst)
            node = data.draw(st.sampled_from(sorted(tree.nodes)))
            assert (tree.route_children(node, spelled)
                    == oracle_route(tree, node, dst))
            for memo in (tree._lca_memo, tree._involved_memo,
                         tree._route_memo):
                assert len(memo) <= 3


def parent_problem(tree, dst):
    """The destination checks of ``ByzCastApplication._validate_wire`` as
    they were before the tree answered them, for a tuple of names."""
    if not dst:
        return "empty destination set"
    if list(dst) != sorted(set(dst)):
        return "destinations must be sorted and unique"
    for group in dst:
        if not tree.is_target(group):
            return f"unknown target group {group!r}"
    return None


names = st.sampled_from(NODES + ["nowhere"])
#: what a decoded wire may carry as ``dst``: tuples of names in any order
#: and with repeats, elements that are no name (unhashable ones too), and
#: values that are no tuple
byzantine_dsts = st.one_of(
    st.lists(names, max_size=4).map(tuple),
    st.lists(st.one_of(names, st.integers(), st.none(), st.tuples(names),
                       st.lists(names, max_size=2)), max_size=3).map(tuple),
    st.lists(names, max_size=3), st.frozensets(names, max_size=3),
    st.integers(), st.none(), st.text(max_size=3))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_destination_check_answers_as_the_uncached_checks(data):
    """Valid exactly for a sorted, unique, non-empty tuple of target
    names; for a tuple of names, the parent's reason; anything else is
    refused without raising, the same on every call, and the memo keeps
    hashable tuples only."""
    tree = data.draw(trees())
    drawn = [data.draw(destinations(tree)) for __ in range(2)]
    drawn += [data.draw(byzantine_dsts) for __ in range(4)]
    for __ in range(2):         # a miss, then hits
        for dst in drawn:
            problem = tree.destination_problem(dst)
            valid = (type(dst) is tuple and len(dst) > 0
                     and all(type(group) is str for group in dst)
                     and dst == tuple(sorted(set(dst)))
                     and set(dst) <= tree.targets)
            assert (problem is None) == valid, (dst, problem)
            if type(dst) is tuple and all(type(g) is str for g in dst):
                assert problem == parent_problem(tree, dst)
    assert all(type(key) is tuple for key in tree._problem_memo)
    tree._problem_memo.clear()
    with mock.patch.object(tree_module, "ROUTE_MEMO_LIMIT", 3):
        for dst in drawn:
            tree.destination_problem(dst)
            assert len(tree._problem_memo) <= 3


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_replica_routes_on_the_new_tree_after_a_tree_update(data):
    """Both trees are rooted at ``n0``; the replica under test is the root's,
    so every destination set it may be asked to enter either routes from it
    or is refused — under the tree of the moment, never a remembered one."""
    old, new = data.draw(trees()), data.draw(trees())
    configs = {gid: make_config(gid) for gid in NODES}
    registry = KeyRegistry()
    app = ByzCastApplication("n0", old, configs, registry)
    replica = FakeReplica("n0/r0", configs["n0"])
    ctx = ExecutionContext(replica=replica, time=0.0)
    seqs = iter(range(1, 100))

    def routed(tree, dst):
        """Where a direct submission of ``dst`` is buffered for relay."""
        seq = next(seqs)
        result = app.execute(Request("n0", "client", seq,
                                     wire_for("client", seq, dst)),
                             ctx)
        buffered, app._relay_buffers = set(app._relay_buffers), {}
        if oracle_lca(tree, dst) != "n0":
            assert result[0] == "error" and not buffered
        else:
            # an entry group that is a destination answers with the delivery
            assert result == (("delivered", None) if "n0" in dst
                              else ("ack",))
            assert buffered == set(oracle_route(tree, "n0", dst))

    # one set both trees can route, so the old tree has an answer
    # remembered for exactly what the new tree is asked
    shared = [tuple(sorted(old.targets & new.targets)[:2])]
    shared = [dst for dst in shared if dst]
    for dst in [data.draw(destinations(old)) for __ in range(3)] + shared:
        routed(old, dst)
    update = TreeUpdate(1, new.parent_edges(), tuple(sorted(new.targets)))
    result = app.execute(Request("n0", admin_identity("n0"), 1, update), ctx)
    assert result == ("ok", "tree", 1) and app.tree is not old
    for dst in [data.draw(destinations(new)) for __ in range(3)] + shared:
        routed(new, dst)
