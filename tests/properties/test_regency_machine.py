"""A state machine over :class:`~repro.bcast.regency.RegencyManager`.

The manager runs at ``r3`` over the fake owner of
``tests/bcast/test_regency_unit.py``, which records what it sends and the
core hooks it calls.  Rules are what the synchronisation phase can observe:

* the owner's request timer (``suspect``);
* STOPs for the regencies around the current one from members, some of
  which leave later;
* STOPDATA reports, each carrying a certificate only its sender knows,
  some of them beyond the pipeline window;
* SYNCs from the regency's leader, from a member claiming to be it, and
  from a member naming itself;
* view changes (a swap, a 4 -> 7 scale-up and back), each followed by
  ``reconfigured()`` as the replica does once it executes the Reconfig.

The replica in front of the manager drops a STOP or STOPDATA whose
sender is not its source, so every report here is its sender's own.

The invariants are the phase's counting claims, checked against a count
of the votes delivered: the owner joins a STOP vote only on ``f + 1``
current members' STOPs and leaves a regency only on ``2f + 1``; it sends
a SYNC only as the regency's leader, once, on ``2f + 1`` current members'
reports, and carries only what its own or a current member's report
holds; it installs each regency at most once, and only from its leader.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bcast.messages import Stop, Sync
from repro.bcast.reconfig import View
from tests.bcast.test_regency_unit import WINDOW, Owner, cert, stopdata

OWNER = "r3"
#: the owner stays a member: a replica outside its view handles nothing
VIEWS = (
    View(("r0", "r1", "r2", "r3"), 1),
    View(("r0", "r1", "r2", "r3", "r4", "r5", "r6"), 2),
    View(("r0", "r4", "r2", "r3"), 1),
)


def batch_of(sender: str):
    """The batch only ``sender``'s reports carry."""
    return (("b", sender),)


class RegencyMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.owner = Owner(OWNER, certs=(cert(0, 0, batch_of(OWNER)),))
        self.manager = self.owner.regency
        #: regency -> the replicas whose STOP for it was delivered (or
        #: which the owner broadcast)
        self.stops = {}
        #: regency -> sender -> its latest STOPDATA delivered
        self.reports = {}
        self.syncs_sent = set()
        self.installed = []
        self.timer = self.reconfiguring = False
        # Check each of the manager's acts as it happens, then let the
        # fake owner record it.
        for hook, check in (("broadcast", self.broadcasts),
                            ("transition_started", self.transition_started),
                            ("installed", self.installs)):
            def checked(*args, record=getattr(self.manager, hook),
                        check=check):
                check(*args)
                record(*args)
            setattr(self.manager, hook, checked)

    @property
    def view(self) -> View:
        return self.owner.view

    def members(self, voters) -> int:
        return len(set(voters) & set(self.view.replicas))

    # -- the manager's acts -------------------------------------------------------

    def broadcasts(self, message) -> None:
        if isinstance(message, Stop):
            regency = message.regency
            if not self.timer:
                assert self.members(self.stops.get(regency, ())) \
                    >= self.view.f + 1, \
                    f"joined the STOP vote for {regency} below f+1"
            self.stops.setdefault(regency, set()).add(OWNER)
        elif isinstance(message, Sync):
            self.check_sync(message)

    def transition_started(self) -> None:
        """Left a regency on a STOP quorum, or re-sends the report after a
        Reconfig: a leader files its own report."""
        regency = self.manager.current
        if not self.reconfiguring:
            assert self.members(self.stops.get(regency - 1, ())) \
                >= self.view.quorum, \
                f"left regency {regency - 1} below 2f+1 current STOPs"
        if self.view.leader_of(regency) == OWNER:
            report = stopdata(regency, OWNER, cid=self.owner.cursor,
                              certs=self.owner.certs)
            self.reports.setdefault(regency, {})[OWNER] = report

    def check_sync(self, sync: Sync) -> None:
        regency = sync.regency
        assert self.view.leader_of(regency) == OWNER, \
            f"sent a SYNC for {regency}, which it does not lead"
        assert regency not in self.syncs_sent, f"two SYNCs for {regency}"
        self.syncs_sent.add(regency)
        filed = {sender: report
                 for sender, report in self.reports.get(regency, {}).items()
                 if sender in self.view}
        assert len(filed) >= self.view.quorum, \
            f"a SYNC for {regency} on {len(filed)} current reports"
        known = {c.batch for c in self.owner.certs}
        for report in filed.values():
            known.update(c.batch for c in report.certs)
        for __, carried in sync.carries:
            assert carried in known, \
                f"carried {carried!r}, which no current member reported"

    def installs(self, sync: Sync) -> None:
        assert sync.leader == self.view.leader_of(sync.regency), \
            f"installed regency {sync.regency} from {sync.leader}"
        assert sync.regency not in self.installed, \
            f"installed regency {sync.regency} twice"
        self.installed.append(sync.regency)

    def step(self, action, *, timer: bool = False,
             reconfiguring: bool = False) -> None:
        self.timer, self.reconfiguring = timer, reconfiguring
        try:
            action()
        finally:
            self.timer = self.reconfiguring = False

    def regency(self, data) -> int:
        current = self.manager.current
        return data.draw(st.integers(max(0, current - 1), current + 1))

    def member(self, data) -> str:
        """A member but the owner: the replica in front of the manager
        drops a non-member's STOP, STOPDATA or SYNC."""
        return data.draw(st.sampled_from(
            [name for name in self.view.replicas if name != OWNER]))

    # -- rules ------------------------------------------------------------------

    @rule()
    def timer_expires(self):
        self.step(self.manager.suspect, timer=True)

    @rule(data=st.data())
    def stop(self, data):
        """A member's STOP: it stays filed if its sender leaves."""
        sender = self.member(data)
        regency = self.regency(data)
        self.stops.setdefault(regency, set()).add(sender)
        self.step(lambda: self.manager.on_stop(
            sender, Stop("g", regency, sender)))

    @rule(data=st.data(), oversize=st.booleans())
    def stop_data(self, data, oversize):
        sender = self.member(data)
        regency = self.regency(data)
        count = WINDOW + 1 if oversize else 1
        report = stopdata(regency, sender, cid=0, certs=[
            cert(cid, 0, batch_of(sender)) for cid in range(count)])
        if not oversize:
            self.reports.setdefault(regency, {})[sender] = report
        self.step(lambda: self.manager.on_stopdata(sender, report))

    @rule(data=st.data(), claims=st.sampled_from(["itself", "the leader"]))
    def sync(self, data, claims):
        sender = self.member(data)
        regency = self.regency(data)
        leader = sender if claims == "itself" else self.view.leader_of(regency)
        message = Sync("g", regency, leader, 0, ())
        self.step(lambda: self.manager.on_sync(sender, message))

    @rule(view=st.sampled_from(VIEWS))
    def view_changes(self, view):
        self.owner.view = view
        self.step(self.manager.reconfigured, reconfiguring=True)

    @rule()
    def cursor_advances(self):
        self.owner.cursor += 1

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def the_regency_never_falls_behind_an_installed_one(self):
        assert all(regency <= self.manager.current
                   for regency in self.installed)


TestRegency = RegencyMachine.TestCase
TestRegency.settings = settings(deadline=None, stateful_step_count=40)
