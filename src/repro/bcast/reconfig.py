"""Group reconfiguration: ordered membership changes (BFT-SMaRt §IV).

BFT-SMaRt supports replacing group members at runtime; ByzCast inherits
that ability per group.  We model it the way BFT-SMaRt does: a trusted
*view manager* (the ``admin@<group>`` identity) submits a signed
:class:`Reconfig` command carrying the complete new membership.  The
command is totally ordered like any request, and every replica switches to
the new :class:`View` at the same consensus boundary, so quorum sizes and
the leader schedule stay consistent.

* A **removed** replica deactivates: it stops voting and proposing.
* An **added** replica starts inactive and polls the group with state
  requests; replaying the log suffix executes the same ``Reconfig`` and
  activates it once it appears in the view.

The protocol view (who votes, who leads, quorum arithmetic) always has
exactly ``3f + 1`` members; clients may keep sending requests to old
members (they simply stop answering), and re-transmission plus the f+1
reply rule keep clients correct across the change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Tuple

from repro.bcast.messages import Reply
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.env import Actor, Runtime


@lru_cache(maxsize=1024)
def regency_quorum(replicas: Tuple[str, ...], f: int,
                   regency: int) -> Tuple[str, ...]:
    """The 2f+1 members of ``regency``'s quorum: its leader, then the next
    2f members in view order (docs/PROTOCOL.md, "Who is sent what").

    Requests and relay copies go to them, and they reply live.  Any 2f+1
    members hold f+1 correct ones, and the quorum of ``r`` holds the
    leaders of ``r`` to ``r + 2f``.
    """
    n = len(replicas)
    return tuple(replicas[(regency + i) % n] for i in range(min(n, 2 * f + 1)))


@dataclass(frozen=True)
class View:
    """A group's active membership (always 3f + 1 replicas)."""

    replicas: Tuple[str, ...]
    f: int

    def __post_init__(self) -> None:
        if len(self.replicas) != 3 * self.f + 1:
            raise ConfigurationError(
                f"view must have 3f+1 = {3 * self.f + 1} replicas, "
                f"got {len(self.replicas)}"
            )
        if len(set(self.replicas)) != len(self.replicas):
            raise ConfigurationError("duplicate replicas in view")

    @property
    def n(self) -> int:
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        return self.n - self.f

    def leader_of(self, regency: int) -> str:
        return self.replicas[regency % self.n]

    def quorum_of(self, regency: int) -> Tuple[str, ...]:
        """``regency``'s leader and the next 2f members."""
        return regency_quorum(self.replicas, self.f, regency)

    def __contains__(self, name: str) -> bool:
        return name in self.replicas


@dataclass(frozen=True)
class Reconfig:
    """An ordered membership-change command (complete new membership).

    ``new_f`` changes the fault threshold together with the membership
    (scale-up/scale-down): a view always has exactly ``3f + 1`` members, so
    resizing a group must change ``f`` in the same ordered command.  ``None``
    keeps the current threshold (the plain swap case).
    """

    group: str
    new_replicas: Tuple[str, ...]
    new_f: Optional[int] = None

    def to_view(self, f: int) -> View:
        return View(tuple(self.new_replicas),
                    self.new_f if self.new_f is not None else f)


def admin_identity(group_id: str) -> str:
    """The view-manager identity authorized to reconfigure ``group_id``."""
    return f"admin@{group_id}"


class ViewManager(Actor):
    """The trusted administrator submitting reconfiguration commands.

    A thin client actor whose only job is to sign and submit
    :class:`Reconfig` commands to the group (through the standard request
    path, so membership changes are totally ordered with application
    traffic).
    """

    def __init__(
        self,
        group_id: str,
        runtime: Runtime,
        initial_view: View,
        registry: KeyRegistry,
    ) -> None:
        super().__init__(admin_identity(group_id), runtime)
        from repro.bcast.client import GroupProxy

        self.group_id = group_id
        self.view = initial_view
        self.registry = registry
        self._proxy = GroupProxy(
            self, group_id, initial_view.replicas, initial_view.f, registry,
        )

    def reconfigure(self, new_replicas: Tuple[str, ...],
                    callback: Optional[Any] = None,
                    new_f: Optional[int] = None) -> None:
        """Order a membership change to ``new_replicas`` (and maybe ``f``)."""
        command = Reconfig(self.group_id, tuple(new_replicas), new_f)

        def done(result: Any) -> None:
            f = new_f if new_f is not None else self.view.f
            self.view = View(tuple(new_replicas), f)
            self._proxy.update_replicas(self.view.replicas, self.view.f)
            self.monitor.record(self.name, "reconfig.confirmed",
                                members=",".join(new_replicas))
            if callback is not None:
                callback(result)

        self._proxy.submit(command, done)

    def submit_command(self, command: Any,
                       callback: Optional[Any] = None) -> None:
        """Order an arbitrary admin command through the group.

        Used by the elasticity controller to propagate e.g. a neighbouring
        group's :class:`~repro.core.messages.MembershipUpdate` at a
        consensus boundary of *this* group.
        """
        self._proxy.submit(command, callback)

    def update_view(self, new_replicas: Tuple[str, ...], f: int) -> None:
        """Adopt an externally confirmed view (controller bookkeeping)."""
        self.view = View(tuple(new_replicas), f)
        self._proxy.update_replicas(self.view.replicas, self.view.f)

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            self._proxy.handle_reply(src, payload)
