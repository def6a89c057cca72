"""Elastic membership: churn ops through the ordered reconfiguration path.

The :class:`ElasticityController` turns membership churn into a runnable
fault: ``join``/``leave`` swap a fresh standby replica in for an existing
member (the view always keeps exactly ``3f + 1`` members), ``scale_up`` /
``scale_down`` resize a group by changing ``f`` atomically with the
membership (``Reconfig.new_f``).  Every change flows through the group's
ordered reconfiguration path — a :class:`~repro.bcast.reconfig.ViewManager`
submits the ``Reconfig``, and only after the group confirms it does the
controller

* refresh deployment bookkeeping (``group_configs``, group handles, every
  client's proxy and vote arithmetic), and
* announce the change to the group's overlay parent and children as ordered
  :class:`~repro.core.messages.MembershipUpdate` commands, so the relay
  wiring (child proxies, the f+1 vote merge) switches at one
  consensus boundary on every neighbour replica.

Ops on one group are serialized (one ``Reconfig`` in flight at a time);
ops on different groups proceed concurrently.  Each op acts when called;
timing one is :func:`~repro.faults.injector.schedule_ops`'s, which arms a
``join``/``leave``/``scale_up``/``scale_down``
:class:`~repro.faults.nemesis.NemesisOp` as one call of the method of the
same name, through the deployment's :class:`~repro.env.api.Runtime`
facade, so the same op list runs on the simulator and the real-time
backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.bcast.reconfig import View, ViewManager
from repro.bcast.replica import Replica
from repro.core.messages import MembershipUpdate, TreeUpdate
from repro.core.tree import OverlayTree

#: replicas added per scale step (a view has 3f+1 members, so f -> f+1
#: adds exactly three)
SCALE_STEP = 3


class ElasticityController:
    """Drives membership churn through a deployment's ordered reconfig path."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.monitor = deployment.monitor
        self.clock = deployment.runtime.clock
        self._managers: Dict[str, ViewManager] = {}
        #: per-group FIFO of churn thunks; one Reconfig in flight per group
        self._queues: Dict[str, List[Any]] = {}
        self._busy: Set[str] = set()
        #: names spawned per group, in spawn order (scale_down removes from
        #: the tail, so a cycle returns exactly to the pre-cycle membership)
        self.spawned: Dict[str, List[str]] = {}
        #: confirmed membership changes: (time, kind, group, members-csv)
        self.events: List[Tuple[float, str, str, str]] = []
        #: overlay epoch of the last *confirmed* tree switch (0 = initial)
        self.tree_epoch = 0
        #: confirmed tree switches (count; also recorded in ``events``)
        self.tree_switches = 0
        #: switch in progress (barrier draining or TreeUpdates ordering)
        self._tree_busy = False
        #: switches requested while one was in progress, FIFO
        self._tree_queue: List[OverlayTree] = []
        #: how often the drain barrier re-polls client write-pendings
        self.tree_poll_interval = 0.05

    # ------------------------------------------------------------------- ops

    def join(self, group_id: str, member: Optional[str] = None) -> None:
        """Swap a fresh standby in for ``member`` (default: last member)."""
        self._enqueue(group_id, lambda: self._swap(group_id, member, "join"))

    def leave(self, group_id: str, member: Optional[str] = None) -> None:
        """Remove ``member`` (default: last member), back-filled by a standby."""
        self._enqueue(group_id, lambda: self._swap(group_id, member, "leave"))

    def scale_up(self, group_id: str) -> None:
        """Grow the group to ``f + 1`` (adds three fresh standbys)."""
        self._enqueue(group_id, lambda: self._scale_up(group_id))

    def scale_down(self, group_id: str) -> None:
        """Shrink the group to ``f - 1`` (drops the newest three members)."""
        self._enqueue(group_id, lambda: self._scale_down(group_id))

    def tree_update(self, tree: OverlayTree) -> None:
        """Switch the deployment to a new overlay tree (docs/TREES.md).

        The switch is a drain barrier followed by an ordered
        :class:`~repro.core.messages.TreeUpdate` at *every* group:

        1. pause every client (new writes queue in FIFO order),
        2. wait until no write is in flight anywhere in the tree and no
           churn reconfiguration is awaiting confirmation,
        3. order one ``TreeUpdate`` (same epoch, same edges) through each
           group's ViewManager — churn ops queue behind the switch while
           the updates confirm,
        4. on all-confirmed: flip the deployment/client tree handles and
           resume the clients on the new routing.

        Draining first is what makes order safety trivial: no message is
        ever relayed across two different trees, so FIFO and global order
        hold across the switch by the unchanged per-tree argument.
        Switches serialize; one requested mid-switch runs after.
        """
        current = self.deployment.tree
        if tree.targets != current.targets or tree.nodes != current.nodes:
            raise ValueError(
                "tree updates rewire edges over the existing groups; "
                "group join/leave goes through membership elasticity")
        if self._tree_busy:
            self._tree_queue.append(tree)
            return
        self._tree_busy = True
        for client in self.deployment.clients:
            client.pause()
        self.monitor.record("elasticity", "tree.barrier",
                            epoch=self.tree_epoch + 1)
        self._await_drain(tree)

    def _await_drain(self, tree: OverlayTree) -> None:
        draining = any(c.pending_writes() for c in self.deployment.clients)
        if draining or self._busy:
            self.clock.schedule(self.tree_poll_interval,
                                lambda: self._await_drain(tree))
            return
        self._commit_tree(tree)

    def _commit_tree(self, tree: OverlayTree) -> None:
        epoch = self.tree_epoch + 1
        update = TreeUpdate(epoch, tree.parent_edges(),
                            tuple(sorted(tree.targets)))
        groups = sorted(self.deployment.groups)
        # Churn ops arriving while the updates confirm queue behind the
        # switch (every group reads busy until the epoch is confirmed).
        self._busy.update(groups)
        waiting = set(groups)

        def confirmed(group_id: str) -> None:
            waiting.discard(group_id)
            if waiting:
                return
            self.deployment.tree = tree
            self.tree_epoch = epoch
            self.tree_switches += 1
            for client in self.deployment.clients:
                client.update_tree(tree)
                client.resume()
            self.events.append((self.clock.now, "tree", "*",
                                f"epoch={epoch}"))
            self.monitor.record("elasticity", "tree.switch", epoch=epoch)
            self.monitor.gauge("tree.epoch", float(epoch))
            self._tree_busy = False
            for group_id_ in groups:
                self._finish(group_id_)
            if self._tree_queue:
                self.tree_update(self._tree_queue.pop(0))

        for group_id in groups:
            self._manager(group_id).submit_command(
                update, callback=lambda result, g=group_id: confirmed(g))

    def expected_tree(self) -> Tuple[int, Tuple[Tuple[str, str], ...]]:
        """(epoch, edges) every active correct replica should hold now."""
        return self.tree_epoch, self.deployment.tree.parent_edges()

    def idle(self) -> bool:
        """True when no churn op or tree switch is queued or in flight."""
        return (not self._busy and not self._tree_busy
                and not self._tree_queue
                and not any(self._queues.values()))

    def expected_view(self, group_id: str) -> Tuple[Tuple[str, ...], int]:
        """The membership every active correct replica should hold now."""
        config = self.deployment.group_configs[group_id]
        return config.replicas, config.f

    # ---------------------------------------------------------- the op queue

    def _enqueue(self, group_id: str, thunk) -> None:
        if group_id not in self.deployment.groups:
            raise KeyError(f"unknown group {group_id!r}")
        self._queues.setdefault(group_id, []).append(thunk)
        self._drain(group_id)

    def _drain(self, group_id: str) -> None:
        if group_id in self._busy:
            return
        queue = self._queues.get(group_id)
        if not queue:
            return
        self._busy.add(group_id)
        thunk = queue.pop(0)
        thunk()

    def _finish(self, group_id: str) -> None:
        self._busy.discard(group_id)
        self._drain(group_id)

    # ------------------------------------------------------------- mechanics

    def _manager(self, group_id: str) -> ViewManager:
        manager = self._managers.get(group_id)
        if manager is None:
            dep = self.deployment
            config = dep.group_configs[group_id]
            manager = ViewManager(group_id, dep.runtime,
                                  View(config.replicas, config.f),
                                  dep.registry)
            # co-locate the admin with the group's first replica so WAN
            # site assigners give it a real region
            dep.network.register(manager, site=dep._sites(group_id, 0))
            self._managers[group_id] = manager
        return manager

    def _spawn(self, group_id: str) -> Replica:
        """Create, register and start a fresh standby replica.

        Named by continuing the group's ``r<index>`` sequence (the member
        list only grows — departed members stay registered to serve state —
        so the index is collision-free and deterministic).  The standby
        starts inactive and polls state until a Reconfig activates it.

        The app is built against the deployment's *construction-time*
        membership and tree (``initial_group_configs``, ``initial_tree``),
        not today's: catch-up replays the ordered history from the start
        (or a checkpoint, whose snapshot carries the membership and tree of
        its epoch), and the relay wiring must evolve through the replayed
        MembershipUpdates and TreeUpdates exactly as the incumbents' did —
        seeding it with post-churn membership or a post-switch tree would
        make early parent-relayed copies unrecognizable (denied, or
        released in a different f+1 quorum-merge order).
        """
        dep = self.deployment
        group = dep.groups[group_id]
        config = dep.group_configs[group_id]
        index = len(group.replicas)
        name = f"{group_id}/r{index}"
        replica = Replica(
            name=name,
            config=config,
            runtime=dep.runtime,
            registry=dep.registry,
            app=dep._make_app(group_id, name,
                              group_configs=dep.initial_group_configs,
                              tree=dep.initial_tree),
            view=View(config.replicas, config.f),
        )
        dep.network.register(replica, site=dep._sites(group_id, index))
        group.adopt(replica)
        replica.start()
        self.spawned.setdefault(group_id, []).append(name)
        self.monitor.record(name, "elasticity.spawn", group=group_id)
        return replica

    def _swap(self, group_id: str, member: Optional[str], kind: str) -> None:
        config = self.deployment.group_configs[group_id]
        target = member if member is not None else config.replicas[-1]
        if target not in config.replicas:
            self.monitor.record(target, "elasticity.skipped", group=group_id,
                                op=kind)
            self._finish(group_id)
            return
        standby = self._spawn(group_id)
        new_replicas = tuple(standby.name if r == target else r
                             for r in config.replicas)
        self._reconfigure(group_id, new_replicas, config.f, kind)

    def _scale_up(self, group_id: str) -> None:
        config = self.deployment.group_configs[group_id]
        standbys = [self._spawn(group_id) for _ in range(SCALE_STEP)]
        new_replicas = config.replicas + tuple(s.name for s in standbys)
        self._reconfigure(group_id, new_replicas, config.f + 1, "scale_up")

    def _scale_down(self, group_id: str) -> None:
        config = self.deployment.group_configs[group_id]
        if config.f <= 1:
            self.monitor.record(group_id, "elasticity.skipped", group=group_id,
                                op="scale_down")
            self._finish(group_id)
            return
        added = [n for n in self.spawned.get(group_id, ())
                 if n in config.replicas]
        drop = list(reversed(added))[:SCALE_STEP]
        for candidate in reversed(config.replicas):
            if len(drop) >= SCALE_STEP:
                break
            if candidate not in drop:
                drop.append(candidate)
        new_replicas = tuple(r for r in config.replicas if r not in drop)
        self._reconfigure(group_id, new_replicas, config.f - 1, "scale_down")

    def _reconfigure(self, group_id: str, new_replicas: Tuple[str, ...],
                     new_f: int, kind: str) -> None:
        config = self.deployment.group_configs[group_id]
        manager = self._manager(group_id)
        manager.update_view(config.replicas, config.f)

        def confirmed(result: Any) -> None:
            updated = self.deployment.update_group_membership(
                group_id, new_replicas, new_f)
            self._announce(group_id, updated)
            # Decommission dropped members that did not tear themselves
            # down: a replica lagging past the Reconfig (a joiner still in
            # state transfer, say) never executes it — the group stops
            # talking to it — so the controller retires it here.
            for replica in self.deployment.groups[group_id].replicas:
                if replica.name not in new_replicas:
                    replica.decommission()
            self.events.append((self.clock.now, kind, group_id,
                                ",".join(new_replicas)))
            self.monitor.record(group_id, f"elasticity.{kind}",
                                group=group_id, members=",".join(new_replicas))
            self._finish(group_id)

        self.monitor.record(group_id, "elasticity.reconfigure", group=group_id,
                            op=kind)
        manager.reconfigure(new_replicas, callback=confirmed, new_f=new_f)

    def _announce(self, group_id: str, config) -> None:
        """Order a MembershipUpdate at every neighbour wired to the group."""
        update = MembershipUpdate(group_id, config.replicas, config.f)
        tree = self.deployment.tree
        neighbours: List[str] = []
        parent = tree.parent(group_id)
        if parent is not None:
            neighbours.append(parent)
        neighbours.extend(tree.children(group_id))
        for other in neighbours:
            self._manager(other).submit_command(update)


def elasticity_controller(deployment) -> ElasticityController:
    """The deployment's (lazily created, cached) elasticity controller."""
    controller = getattr(deployment, "_elasticity", None)
    if controller is None:
        controller = ElasticityController(deployment)
        deployment._elasticity = controller
    return controller
