"""The ByzCast overlay tree (§III-B).

Nodes are group ids.  Leaves must be *target* groups (groups messages can be
addressed to); inner nodes are usually *auxiliary* groups, but — as the paper
notes at the end of §III-B — target groups may be inner nodes too, and a
tree may consist of target groups only.

The tree answers the structural queries of Algorithm 1 and of the optimizer:
``children``, ``parent``, ``reach`` (target groups in a subtree), ``lca`` of
a destination set, subtree ``height`` (the ``H(T, d)`` of §III-C, counted in
nodes: a leaf has height 1), and the set of groups involved in a multicast
(``P(T, d)``).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import TreeError

#: answers kept per routing query (``lca``, ``involved_groups``,
#: ``route_children``, ``destination_problem``) and tree.  Workloads reuse
#: few destination sets, so the bound only matters against a client
#: spraying distinct ones: a full memo is dropped whole and refills with
#: what is in use.
ROUTE_MEMO_LIMIT = 4096


def _memo_key(destination: Iterable[str]) -> Hashable:
    """``destination`` itself when it can be a dict key (the hot path
    passes ``wire.dst`` tuples and ``message.dst`` frozensets)."""
    if type(destination) in (tuple, frozenset):
        return destination
    return tuple(destination)


def _remember(memo: Dict, key: Hashable, answer: Any) -> Any:
    if len(memo) >= ROUTE_MEMO_LIMIT:
        memo.clear()
    memo[key] = answer
    return answer


class OverlayTree:
    """An immutable rooted tree over group ids.

    Immutability is what lets the routing queries be answered once per
    destination set: a tree change (:class:`~repro.core.messages.TreeUpdate`)
    builds a new tree, so there is nothing to invalidate.

    Args:
        parents: mapping child-group → parent-group; exactly one group (the
            root) must be absent from the mapping's keys.
        targets: the target groups Γ (addressable destinations).  Every
            target must be a node; every leaf must be a target.
    """

    def __init__(self, parents: Mapping[str, str], targets: Iterable[str]) -> None:
        self._parent: Dict[str, str] = dict(parents)
        self.targets: FrozenSet[str] = frozenset(targets)
        nodes: Set[str] = set(self._parent) | set(self._parent.values()) | set(self.targets)
        if not nodes:
            raise TreeError("tree has no nodes")
        self.nodes: FrozenSet[str] = frozenset(nodes)

        roots = [n for n in nodes if n not in self._parent]
        if len(roots) != 1:
            raise TreeError(f"tree must have exactly one root, found {sorted(roots)}")
        self.root: str = roots[0]

        self._children: Dict[str, List[str]] = {n: [] for n in nodes}
        for child, parent in self._parent.items():
            if parent not in nodes:
                raise TreeError(f"parent {parent!r} of {child!r} is not a node")
            self._children[parent].append(child)
        for children in self._children.values():
            children.sort()

        self._depth: Dict[str, int] = {}
        self._assign_depths()
        self._reach: Dict[str, FrozenSet[str]] = {}
        self._height: Dict[str, int] = {}
        self._compute_reach_and_height(self.root)
        self._validate()
        self._lca_memo: Dict[Hashable, str] = {}
        self._involved_memo: Dict[Hashable, FrozenSet[str]] = {}
        self._route_memo: Dict[Hashable, Tuple[str, ...]] = {}
        self._problem_memo: Dict[Tuple, Optional[str]] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def two_level(cls, targets: Sequence[str], root: str = "h1") -> "OverlayTree":
        """A root auxiliary group with all target groups as its children.

        This is the 2-level tree of the evaluation (§V-B3).
        """
        return cls({t: root for t in targets}, targets)

    @classmethod
    def three_level(
        cls,
        branches: Mapping[str, Sequence[str]],
        root: str = "h1",
    ) -> "OverlayTree":
        """A root over auxiliary branches, each owning some target groups.

        Args:
            branches: mapping auxiliary-group → its target-group children,
                e.g. ``{"h2": ["g1", "g2"], "h3": ["g3", "g4"]}``.
        """
        parents: Dict[str, str] = {}
        targets: List[str] = []
        for aux, leaf_targets in branches.items():
            parents[aux] = root
            for target in leaf_targets:
                parents[target] = aux
                targets.append(target)
        return cls(parents, targets)

    @classmethod
    def paper_tree(cls) -> "OverlayTree":
        """The Fig. 1(a) tree: h1 over h2{g1, g2} and h3{g3, g4}."""
        return cls.three_level({"h2": ["g1", "g2"], "h3": ["g3", "g4"]})

    @classmethod
    def balanced(
        cls,
        targets: Sequence[str],
        fanout: int = 8,
    ) -> "OverlayTree":
        """A balanced tree of auxiliary groups over many target groups.

        Built bottom-up: target groups are chunked ``fanout`` at a time
        under fresh auxiliary groups, then those auxiliaries are chunked in
        turn until a single root remains.  With ``len(targets) <= fanout``
        this degenerates to :meth:`two_level`.  Auxiliary names are
        ``h1``, ``h2``, ... in construction order
        (the root gets the highest number), so the same inputs always
        produce the same tree — scale scenarios stay deterministic.
        """
        targets = list(targets)
        if not targets:
            raise TreeError("need at least one target group")
        if fanout < 2:
            raise TreeError("fanout must be at least 2")
        if len(targets) == 1:
            return cls({}, targets)
        parents: Dict[str, str] = {}
        aux_count = 0
        level: List[str] = list(targets)
        while len(level) > 1:
            next_level: List[str] = []
            for start in range(0, len(level), fanout):
                aux_count += 1
                parent = f"h{aux_count}"
                for node in level[start:start + fanout]:
                    parents[node] = parent
                next_level.append(parent)
            level = next_level
        return cls(parents, targets)

    # -- internal construction -------------------------------------------------

    def _assign_depths(self) -> None:
        for node in self.nodes:
            depth = 0
            cursor: Optional[str] = node
            seen = set()
            while cursor is not None and cursor != self.root:
                if cursor in seen:
                    raise TreeError(f"cycle detected through {cursor!r}")
                seen.add(cursor)
                cursor = self._parent.get(cursor)
                depth += 1
                if depth > len(self.nodes):
                    raise TreeError("parent chain longer than node count — cycle")
            if cursor is None:
                raise TreeError(f"node {node!r} is not connected to the root")
            self._depth[node] = depth

    def _compute_reach_and_height(self, node: str) -> Tuple[FrozenSet[str], int]:
        reach: Set[str] = {node} if node in self.targets else set()
        height = 1
        for child in self._children[node]:
            child_reach, child_height = self._compute_reach_and_height(child)
            reach |= child_reach
            height = max(height, child_height + 1)
        self._reach[node] = frozenset(reach)
        self._height[node] = height
        return self._reach[node], height

    def _validate(self) -> None:
        for target in self.targets:
            if target not in self.nodes:
                raise TreeError(f"target group {target!r} is not in the tree")
        for node in self.nodes:
            if not self._children[node] and node not in self.targets:
                raise TreeError(
                    f"leaf {node!r} is auxiliary — leaves must be target groups"
                )

    # -- queries ----------------------------------------------------------------

    def parent_edges(self) -> Tuple[Tuple[str, str], ...]:
        """Sorted ``(child, parent)`` edges — the canonical wire form.

        ``OverlayTree(dict(edges), targets)`` rebuilds an equal tree, which
        is how :class:`~repro.core.messages.TreeUpdate` ships a tree through
        ordered consensus and checkpoints.
        """
        return tuple(sorted(self._parent.items()))

    def parent(self, node: str) -> Optional[str]:
        """Parent group of ``node`` (None for the root)."""
        return self._parent.get(node)

    def children(self, node: str) -> Tuple[str, ...]:
        """Children of ``node`` in the tree (paper: ``children(x)``)."""
        return tuple(self._children[node])

    def reach(self, node: str) -> FrozenSet[str]:
        """Target groups reachable walking down from ``node`` (``reach(x)``)."""
        return self._reach[node]

    def depth(self, node: str) -> int:
        """Edges from the root to ``node``."""
        return self._depth[node]

    def height(self, node: str) -> int:
        """Nodes on the longest downward path from ``node`` (leaf = 1)."""
        return self._height[node]

    def is_target(self, node: str) -> bool:
        return node in self.targets

    def ancestors(self, node: str) -> Tuple[str, ...]:
        """Path root → ... → ``node``, inclusive."""
        path = [node]
        cursor = node
        while cursor != self.root:
            cursor = self._parent[cursor]
            path.append(cursor)
        return tuple(reversed(path))

    def lca(self, destination: Iterable[str]) -> str:
        """Lowest common ancestor group of a destination set (``lca(m.dst)``)."""
        key = _memo_key(destination)
        known = self._lca_memo.get(key)
        if known is not None:
            return known
        # an invalid destination raises below and is never remembered
        return _remember(self._lca_memo, key, self._find_lca(key))

    def _find_lca(self, destination: Iterable[str]) -> str:
        groups = list(destination)
        if not groups:
            raise TreeError("destination set is empty")
        for group in groups:
            if group not in self.targets:
                raise TreeError(f"destination {group!r} is not a target group")
        paths = [self.ancestors(g) for g in groups]
        shortest = min(len(p) for p in paths)
        lca = self.root
        for level in range(shortest):
            step = paths[0][level]
            if all(path[level] == step for path in paths):
                lca = step
            else:
                break
        return lca

    def destination_problem(self, destination: Any) -> Optional[str]:
        """Why ``destination`` is no wire destination — a non-empty tuple of
        target groups, sorted and unique — or None.

        Memoised per tuple.  Whatever else a Byzantine sender may put in a
        decoded wire — a list, a tuple with an unhashable or a non-string
        element — is refused too; only an unhashable one goes unremembered.
        """
        if type(destination) is not tuple:
            return "destinations must be a tuple"
        try:
            return self._problem_memo[destination]
        except KeyError:
            pass
        except TypeError:
            return "destinations must be target group names"
        if not destination:
            problem = "empty destination set"
        elif any(type(group) is not str for group in destination):
            problem = "destinations must be target group names"
        elif list(destination) != sorted(set(destination)):
            problem = "destinations must be sorted and unique"
        else:
            problem = next((f"unknown target group {group!r}"
                            for group in destination
                            if group not in self.targets), None)
        return _remember(self._problem_memo, destination, problem)

    def destination_height(self, destination: Iterable[str]) -> int:
        """``H(T, d)``: the height of the lca of ``destination`` (§III-C)."""
        return self.height(self.lca(destination))

    def involved_groups(self, destination: Iterable[str]) -> FrozenSet[str]:
        """``P(T, d)``: groups on the paths from lca(d) down to each group in d."""
        key = _memo_key(destination)
        known = self._involved_memo.get(key)
        if known is not None:
            return known
        dst = set(key)
        lca_depth = self._depth[self.lca(key)]
        involved: Set[str] = set()
        for group in dst:
            path = self.ancestors(group)
            involved.update(path[lca_depth:])
        return _remember(self._involved_memo, key, frozenset(involved))

    def route_children(self, node: str, destination: Iterable[str]) -> Tuple[str, ...]:
        """Children of ``node`` whose reach intersects the destination set.

        This is the forwarding rule of Algorithm 1, line 10.
        """
        key = (node, _memo_key(destination))
        known = self._route_memo.get(key)
        if known is not None:
            return known
        dst = set(key[1])
        return _remember(self._route_memo, key, tuple(
            child for child in self._children[node] if self._reach[child] & dst
        ))

    def subtree(self, node: str) -> FrozenSet[str]:
        """All groups in the subtree rooted at ``node`` (inclusive)."""
        members: Set[str] = set()
        stack = [node]
        while stack:
            cursor = stack.pop()
            members.add(cursor)
            stack.extend(self._children[cursor])
        return frozenset(members)

    def to_dot(self) -> str:
        """Graphviz DOT rendering (targets as boxes, auxiliaries as ovals)."""
        lines = ["digraph overlay {"]
        for node in sorted(self.nodes):
            shape = "box" if node in self.targets else "ellipse"
            lines.append(f'  "{node}" [shape={shape}];')
        for child in sorted(self.nodes):
            parent = self._parent.get(child)
            if parent is not None:
                lines.append(f'  "{parent}" -> "{child}";')
        lines.append("}")
        return "\n".join(lines)

    # -- misc ----------------------------------------------------------------------

    @property
    def auxiliaries(self) -> FrozenSet[str]:
        """Groups that are not targets (Λ)."""
        return self.nodes - self.targets

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OverlayTree(root={self.root!r}, nodes={len(self.nodes)})"
