"""Online tree re-planning: the *decide* stage of the adaptation loop.

The :class:`TreePlanner` periodically samples a
:class:`~repro.optimizer.traffic.TrafficCollector`'s demand profile,
scores the deployment's current overlay against the §III-C cost model
(:func:`~repro.optimizer.model.weighted_height`), and re-plans the leaf
assignment when the observed workload would travel measurably fewer hops
on a different tree.  A confirmed improvement crossing the hysteresis
threshold is handed to
:meth:`~repro.faults.elasticity.ElasticityController.tree_update`, which
drives the actual switch through ordered consensus (docs/TREES.md).

:func:`replan` deliberately keeps the auxiliary *skeleton* fixed and only
re-assigns target leaves between the existing auxiliary branches, each
bin keeping its current fanout: the planner's job is routing locality,
not capacity planning (that is :mod:`repro.optimizer.heuristic` /
:mod:`~repro.optimizer.enumerate` territory, whose
:func:`~repro.optimizer.heuristic._cluster_demand` affinity scoring it
reuses).  Under a stationary workload the re-plan is a fixed point — the
clusters re-form identically and ``parent_edges`` compare equal — so the
planner can never oscillate; after a genuine switch it resets the
collector and backs off for a cooldown, so the next decision is made from
post-switch traffic only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.tree import OverlayTree
from repro.optimizer.heuristic import _cluster_demand
from repro.optimizer.model import weighted_height
from repro.optimizer.traffic import TrafficCollector

Demand = Dict[FrozenSet[str], float]


def replan(tree: OverlayTree, demand: Demand) -> Optional[OverlayTree]:
    """Re-assign target leaves to the existing auxiliary bins by co-demand.

    Returns a candidate tree over the same nodes (possibly equal to the
    input), or None when the shape is not re-plannable: a single bin
    (2-level trees are already hop-minimal per destination set), a target
    serving as an inner node, or demand naming unknown groups.
    """
    targets = set(tree.targets)
    for target in targets:
        if tree.children(target):
            return None  # inner-node targets pin the shape (§III-B note)
    for dst in demand:
        if not dst or not set(dst) <= targets:
            return None
    #: the bins: inner nodes that currently parent at least one target,
    #: each keeping exactly its current target fanout
    caps: Dict[str, int] = {}
    for target in targets:
        parent = tree.parent(target)
        if parent is None:
            return None  # single-node tree
        caps[parent] = caps.get(parent, 0) + 1
    if len(caps) < 2:
        return None

    # Greedy affinity clustering (the heuristic's merge loop): grow target
    # clusters by merging the pair with the heaviest mutual demand while
    # the union still fits the largest bin.  Ties break on the lowest
    # cluster-index pair, and clusters hold sorted members, so the same
    # profile always re-plans to the same tree (determinism).
    max_cap = max(caps.values())
    clusters: List[Set[str]] = [{t} for t in sorted(targets)]
    while len(clusters) > len(caps):
        weights = _cluster_demand(clusters, demand)
        merged = False
        for (i, j), weight in sorted(weights.items(),
                                     key=lambda kv: (-kv[1], kv[0])):
            if weight <= 0:
                break
            if len(clusters[i] | clusters[j]) > max_cap:
                continue
            union = clusters[i] | clusters[j]
            clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
            clusters.append(union)
            merged = True
            break
        if not merged:
            break

    # First-fit-decreasing packing of clusters into bins; a cluster too big
    # for every remaining bin spills member-by-member.  All orderings are
    # name-tie-broken, keeping the packing deterministic.
    remaining = dict(sorted(caps.items()))
    placement: Dict[str, str] = {}

    def place(members: List[str], bin_id: str) -> None:
        for member in members:
            placement[member] = bin_id
        remaining[bin_id] -= len(members)

    for cluster in sorted(clusters, key=lambda c: (-len(c), sorted(c))):
        members = sorted(cluster)
        home = None
        for bin_id, cap in sorted(remaining.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            if cap >= len(members):
                home = bin_id
                break
        if home is not None:
            place(members, home)
            continue
        for member in members:  # spill
            bin_id = max(sorted(remaining), key=lambda b: remaining[b])
            place([member], bin_id)

    parents = {child: parent for child, parent in tree.parent_edges()
               if child not in targets}
    parents.update(placement)
    return OverlayTree(parents, tree.targets)


class TreePlanner:
    """Interval-driven re-planning policy with hysteresis and cooldown.

    Every ``interval`` seconds (deployment runtime clock) the planner

    1. refreshes the ``tree.hops`` / ``tree.skew`` gauges,
    2. skips the tick unless the sliding demand window holds
       ``min_samples`` samples and the controller is idle (no churn or
       switch in flight),
    3. re-plans and switches only when
       ``weighted_height(current) / weighted_height(candidate)`` is at
       least ``hysteresis`` *and* the candidate differs — predicted hop
       savings below the threshold never trigger a switch, which is what
       keeps a stationary workload from oscillating.

    Decisions score the demand of the last ``window`` seconds (default
    four intervals), not the whole ring: a workload *migration* must not
    be diluted by hours of stale pre-shift history, or the predicted
    saving never crosses the hysteresis and the planner freezes on the
    first tree it ever chose.
    """

    #: required cost ratio current/candidate before switching (>= 1.0;
    #: predicted savings below this never trigger a switch)
    hysteresis = 1.2

    def __init__(
        self,
        controller,
        collector: TrafficCollector,
        interval: float = 1.0,
        min_samples: int = 48,
        cooldown: float = 2.0,
        window: Optional[float] = None,
    ) -> None:
        self.controller = controller
        self.collector = collector
        self.interval = interval
        self.min_samples = min_samples
        self.cooldown = cooldown
        self.window = window if window is not None else 4.0 * interval
        self.monitor = controller.monitor
        #: decision audit trail: (time, verdict, current-cost, candidate-cost)
        self.decisions: List[Tuple[float, str, float, float]] = []
        #: switches this planner triggered
        self.switches = 0
        self._cooldown_until = float("-inf")
        self._running = False

    def start(self) -> "TreePlanner":
        if not self._running:
            self._running = True
            self.controller.clock.schedule(self.interval, self._tick)
        return self

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------ tick

    def _tick(self) -> None:
        if not self._running:
            return
        self.collector.publish(self.monitor)
        self._decide()
        self.controller.clock.schedule(self.interval, self._tick)

    def _decide(self) -> None:
        now = self.controller.clock.now
        if now < self._cooldown_until:
            return
        if not self.controller.idle():
            return
        demand = self.collector.demand(since=now - self.window)
        if sum(demand.values()) < self.min_samples:
            return
        current = self.controller.deployment.tree
        candidate = replan(current, demand)
        if candidate is None:
            return
        current_cost = weighted_height(current, demand)
        candidate_cost = weighted_height(candidate, demand)
        if (candidate_cost <= 0.0
                or candidate.parent_edges() == current.parent_edges()
                or current_cost / candidate_cost < self.hysteresis):
            self.decisions.append((now, "hold", current_cost, candidate_cost))
            return
        self.decisions.append((now, "switch", current_cost, candidate_cost))
        self.switches += 1
        self.monitor.record("planner", "tree.replan",
                            current=current_cost, candidate=candidate_cost)
        self.controller.tree_update(candidate)
        # Decide the *next* switch from post-switch traffic only.
        self.collector.reset()
        self._cooldown_until = now + self.cooldown
