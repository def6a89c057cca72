"""A state machine over :class:`~repro.bcast.client.ReadProxy`.

The proxy runs against a fake owner that records what it sends and holds
its timers.  Rules are what a read round can observe:

* reads, each one a new round;
* replies from correct replicas to probes they received, at whatever cid
  each has applied (correct replicas advance one cid at a time, some
  lagging);
* replies from the ``F`` Byzantine replica to any open read: fabricated
  values at an inflated cid, a wrong value at a cid correct replicas
  serve, a stale pair, a fresh value per reply; or nothing at all;
* a round timer expiring;
* ``update_replicas`` to another membership (a correct member leaves, a
  correct joiner arrives).

The invariants are the read tier's safety and probing claims
(``docs/READS.md``): an accepted value was served by a correct replica at
the accepted cid; accepted cids are monotone; every accepted quorum is
``F + 1`` current members; once a quorum was accepted a round first asks
at most ``F + 1`` replicas; a round asks every current member before it
retries or exhausts on replies, and an open round always waits on a
current member it asked (it widens instead of idling to its timer).

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bcast.client import ReadProxy
from repro.bcast.messages import ReadReply, ReadRequest
from repro.env import Monitor

F = 1
BYZANTINE = "r3"
CORRECT = ("r0", "r1", "r2", "r4")
#: every membership keeps at most F Byzantine replicas among 3F+1 or more
MEMBERSHIPS = (
    ("r0", "r1", "r2", "r3"),
    ("r1", "r2", "r3", "r4"),
    ("r0", "r2", "r3", "r4"),
    ("r0", "r1", "r2", "r3", "r4"),
)
MAX_OPEN = 3


def value(cid: int) -> tuple:
    """What every correct replica serves at ``cid`` (a pure function of
    the executed prefix)."""
    return ("v", cid)


class Timer:

    def __init__(self, callback) -> None:
        self.callback = callback
        self.live = True

    def cancel(self) -> None:
        self.live = False


class Owner:
    """The client's half: its name, what it sends and its timers."""

    name = "c"

    def __init__(self) -> None:
        self.monitor = Monitor()
        self.sent = []
        self.timers = []

    def send(self, dst: str, payload) -> None:
        self.sent.append((dst, payload))

    def set_timer(self, delay: float, callback) -> Timer:
        timer = Timer(callback)
        self.timers.append(timer)
        return timer


class ReadProxyMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.owner = Owner()
        self.members = MEMBERSHIPS[0]
        self.proxy = ReadProxy(self.owner, "g", self.members, F)
        self.applied = dict.fromkeys(CORRECT, 0)
        #: (cid, value) pairs some correct replica served
        self.served = set()
        #: (rid, replica) probes a correct replica received, unanswered
        self.pending = set()
        #: rid -> replicas probed / heard from in the round now open
        self.asked, self.heard = {}, {}
        self.open = set()
        self.accepted_cids = []
        self.equivocation = 0
        self.seen_sends = 0
        self.firing = False

    # -- the proxy's callbacks ------------------------------------------------

    def on_accept(self, rid, cid, result, voters) -> None:
        assert (cid, result) in self.served, \
            f"accepted {result!r} at cid {cid}, which no correct replica served"
        assert voters <= set(self.members), "a departed replica's vote counted"
        assert len(voters) >= F + 1, f"accepted on {len(voters)} voters"
        self.accepted_cids.append(cid)
        self.open.discard(rid)

    def on_exhausted(self, rid) -> None:
        if not self.firing:
            assert self.asked[rid] >= set(self.members), \
                "exhausted on replies before asking every member"
        self.open.discard(rid)

    # -- bookkeeping ------------------------------------------------------------

    def step(self, action, firing: bool = False) -> None:
        """Run ``action``, then account for the probes it sent."""
        self.firing = firing
        action()
        probes = {}
        for dst, request in self.owner.sent[self.seen_sends:]:
            assert isinstance(request, ReadRequest)
            probes.setdefault(request.rid, set()).add(dst)
            if dst in CORRECT:
                self.pending.add((request.rid, dst))
        self.seen_sends = len(self.owner.sent)
        for rid, dsts in probes.items():
            asked = self.asked.setdefault(rid, set())
            if dsts & asked:   # asking again: a new round, a retry
                assert firing or asked >= set(self.members), \
                    "retried on replies before asking every member"
                self.asked[rid], self.heard[rid] = set(dsts), set()
            else:              # first probes or a widening
                asked |= dsts

    def deliver(self, rid: int, src: str, cid: int, result) -> None:
        reply = ReadReply(group="g", sender=src, req_sender=self.owner.name,
                          rid=rid, cid=cid, result=result)
        if rid in self.open and src in self.members:
            self.heard[rid].add(src)
        self.step(lambda: self.proxy.handle_read_reply(src, reply))

    # -- rules ----------------------------------------------------------------

    @rule()
    def read(self):
        if len(self.open) >= MAX_OPEN:
            return
        rids = []
        self.step(lambda: rids.append(self.proxy.read(
            ("peek",),
            on_accept=lambda cid, result, voters:
                self.on_accept(rids[0], cid, result, voters),
            on_exhausted=lambda: self.on_exhausted(rids[0]))))
        rid = rids[0]
        self.heard[rid] = set()
        self.open.add(rid)
        if self.accepted_cids:
            assert len(self.asked[rid]) <= F + 1, \
                f"first probes {sorted(self.asked[rid])} after a quorum"

    @rule(replica=st.sampled_from(CORRECT))
    def advance(self, replica):
        self.applied[replica] += 1

    @rule(data=st.data())
    def correct_reply(self, data):
        probes = sorted(self.pending)
        if not probes:
            return
        rid, src = data.draw(st.sampled_from(probes))
        self.pending.discard((rid, src))
        cid = self.applied[src]
        self.served.add((cid, value(cid)))
        self.deliver(rid, src, cid, value(cid))

    @rule(data=st.data(), kind=st.sampled_from(
        ["fabricated", "wrong_value", "stale", "equivocating"]))
    def byzantine_reply(self, data, kind):
        if not self.open:
            return
        rid = data.draw(st.sampled_from(sorted(self.open)))
        if kind == "fabricated":
            top = max(self.applied.values())
            self.deliver(rid, BYZANTINE, top + 1000, ("fabricated",))
        elif kind == "wrong_value":
            cid = data.draw(st.sampled_from(sorted(set(self.applied.values()))))
            self.deliver(rid, BYZANTINE, cid, ("wrong",))
        elif kind == "stale":
            self.deliver(rid, BYZANTINE, 0, value(0))
        else:
            self.equivocation += 1
            cid = max(self.applied.values())
            self.deliver(rid, BYZANTINE, cid, ("equivocation", self.equivocation))

    @rule(data=st.data())
    def timer_fires(self, data):
        live = [timer for timer in self.owner.timers if timer.live]
        if not live:
            return
        timer = data.draw(st.sampled_from(live))
        timer.live = False
        self.step(timer.callback, firing=True)

    @rule(members=st.sampled_from(MEMBERSHIPS))
    def update_replicas(self, members):
        self.members = members
        for rid in self.open:   # a departed probe is forgotten
            self.asked[rid] &= set(members)
            self.heard[rid] &= set(members)
        self.step(lambda: self.proxy.update_replicas(members, F))

    # -- invariants -------------------------------------------------------------

    @invariant()
    def accepted_cids_are_monotone(self):
        assert self.accepted_cids == sorted(self.accepted_cids)
        assert self.proxy.floor == max(self.accepted_cids, default=-1), \
            "the proxy's floor is not its highest accepted cid"

    @invariant()
    def an_open_round_waits_on_a_member_it_asked(self):
        for rid in self.open:
            waiting = (self.asked[rid] - self.heard[rid]) & set(self.members)
            assert waiting, f"read {rid} idles: everyone it asked answered"


TestReadProxy = ReadProxyMachine.TestCase
TestReadProxy.settings = settings(deadline=None, stateful_step_count=40)
