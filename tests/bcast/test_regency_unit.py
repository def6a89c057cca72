"""The synchronization phase on its own: no deployment, no network.

:class:`repro.bcast.regency.RegencyManager` with a fake owner that records
what it sends and which core hooks ran: STOP voting (the f+1 join, the
2f+1 transition, retransmits, the rate-limited laggard assist), STOPDATA
to the new leader (the window bound, the re-send when a Reconfig races the
transition), the leader's SYNC choice and SYNC installation.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.bcast.config import BroadcastConfig
from repro.bcast.messages import CertReport, Stop, StopData, Sync
from repro.bcast.reconfig import View
from repro.bcast.regency import RegencyManager
from repro.env import Monitor

NAMES = ("r0", "r1", "r2", "r3")
WINDOW = 4
TIMEOUT = 0.5


class Owner:
    """The replica's half: its view, its cursor and reports, what it sends
    (``"*"`` for a broadcast) and the hooks it was called with."""

    def __init__(self, name: str = "r3", cursor: int = 0, certs=()):
        self.view = View(NAMES, 1)
        self.clock = SimpleNamespace(now=0.0)
        self.cursor, self.certs = cursor, tuple(certs)
        self.sent, self.hooks = [], []
        self.monitor = Monitor()
        config = BroadcastConfig("g", NAMES, max_in_flight=WINDOW,
                                 request_timeout=TIMEOUT)
        self.regency = RegencyManager(
            name, config, lambda: self.view, self.monitor, self.clock,
            send=lambda dst, message: self.sent.append((dst, message)),
            broadcast=lambda message: self.sent.append(("*", message)),
            cursor=lambda: self.cursor, cert_reports=lambda regency: self.certs,
            transition_started=lambda: self.hooks.append("started"),
            installed=lambda sync: self.hooks.append(sync))

    def sent_of(self, kind):
        return [(dst, m) for dst, m in self.sent if isinstance(m, kind)]

    def stops(self, regency, *senders):
        for sender in senders:
            self.regency.on_stop(sender, Stop("g", regency, sender))


def make_manager(name: str = "r3") -> Owner:
    return Owner(name)


def stopdata(regency, sender, cid=0, certs=()):
    return StopData(group="g", regency=regency, sender=sender, cid=cid,
                    certs=tuple(certs))


def cert(cid, cert_regency, batch):
    return CertReport(cid=cid, cert_regency=cert_regency, batch=batch)


choose_sync = RegencyManager.choose_sync


class TestStopPhase:
    def test_join_after_f_plus_1(self):
        m = make_manager()
        m.stops(0, "r1")
        assert m.sent == []
        m.stops(0, "r2")
        assert m.sent_of(Stop) == [("*", Stop("g", 0, "r3"))]

    def test_no_join_for_past_regency(self):
        m = make_manager()
        m.regency.current = 3
        m.stops(1, "r1", "r2", "r3")
        assert m.sent == [] and m.regency.current == 3

    def test_no_double_join(self):
        m = make_manager()
        m.regency.suspect()
        m.stops(0, "r1", "r2")
        assert m.sent_of(Stop) == [("*", Stop("g", 0, "r3"))]

    def test_quorum_and_transition(self):
        m = make_manager()
        m.stops(0, "r3", "r0")
        assert not m.regency.in_transition
        m.stops(0, "r2")
        assert m.regency.in_transition
        assert m.regency.current == 1
        assert m.hooks == ["started"]
        # STOPDATA to the new leader, r1, with the cursor and the reports
        assert m.sent_of(StopData) == [("r1", stopdata(1, "r3"))]

    def test_duplicate_stops_not_counted(self):
        m = make_manager()
        m.stops(0, *["r1"] * 5)
        assert m.sent == [] and not m.regency.in_transition

    def test_the_quorum_follows_the_view(self):
        m = make_manager()
        m.view = View(NAMES + ("r4", "r5", "r6"), 2)
        m.stops(0, "r0", "r1")
        assert m.sent == []                 # f+1 is now 3
        m.stops(0, "r2")
        assert len(m.sent_of(Stop)) == 1    # joined: 4 of 2f+1 = 5
        assert not m.regency.in_transition
        m.stops(0, "r4")
        assert m.regency.in_transition

    def test_stops_of_departed_members_do_not_count(self):
        # A 7 -> 4 scale-down: r4 and r5 voted before they left
        m = make_manager()
        m.view = View(NAMES + ("r4", "r5", "r6"), 2)
        m.stops(0, "r4", "r5")
        m.view = View(NAMES, 1)
        m.stops(0, "r1")
        assert m.sent == [] and not m.regency.in_transition
        m.stops(0, "r2")                    # f+1 members: join, 2f+1: leave
        assert m.regency.in_transition

    def test_a_retransmitted_stop_is_counted_once(self):
        m = make_manager()
        m.regency.suspect()
        m.regency.suspect()
        assert m.sent_of(Stop) == [("*", Stop("g", 0, "r3"))] * 2
        counters = m.monitor.counters
        assert counters["regency.stop"] == 1
        assert counters["regency.stop_retransmit"] == 1
        m.stops(0, "r0")
        assert not m.regency.in_transition  # our two votes are one

    def test_a_laggard_is_assisted_once_per_rate_window(self):
        m = make_manager()
        m.stops(0, "r0", "r1")              # joined, then left regency 0
        assert m.regency.current == 1
        m.sent.clear()
        m.stops(0, "r2")
        m.stops(0, "r2")                    # within the window: suppressed
        assert m.sent == [("r2", Stop("g", 0, "r3"))]
        m.clock.now = TIMEOUT
        m.stops(0, "r2")
        assert m.sent[-1] == ("r2", Stop("g", 0, "r3"))
        assert m.monitor.counters["regency.stop_assist"] == 2
        m.regency.forget_assists()
        m.stops(0, "r2")
        assert m.monitor.counters["regency.stop_assist"] == 3
        m.stops(0, "r0")                    # another peer: its own window
        m.regency.current = 5
        m.stops(3, "r1")                    # we never voted in 3: no assist
        assert m.monitor.counters["regency.stop_assist"] == 4


class TestSyncPhase:
    def test_sync_ready_needs_quorum(self):
        m = make_manager("r1")              # the leader of regency 1
        m.regency.on_stopdata("r0", stopdata(1, "r0"))
        m.regency.on_stopdata("r1", stopdata(1, "r1"))
        assert m.sent_of(Sync) == []
        m.regency.on_stopdata("r2", stopdata(1, "r2"))
        sync = Sync("g", 1, "r1", 0, ())
        assert m.sent_of(Sync) == [("*", sync)]
        assert m.hooks == [sync] and m.regency.current == 1
        m.regency.on_stopdata("r3", stopdata(1, "r3"))
        assert len(m.sent_of(Sync)) == 1

    def test_choose_sync_no_certificates(self):
        reports = [stopdata(1, sender, cid=5) for sender in ("r0", "r1", "r2")]
        decision = choose_sync(reports, own_cid=5, own_certs=())
        assert decision.cid == 5
        assert decision.carries == ()

    def test_choose_sync_prefers_highest_certificate(self):
        batch_low = (("low",),)
        batch_high = (("high",),)
        reports = [stopdata(1, "r0", cid=5, certs=[cert(5, 0, batch_low)]),
                   stopdata(1, "r1", cid=5, certs=[cert(5, 2, batch_high)]),
                   stopdata(1, "r2", cid=5)]
        decision = choose_sync(reports, own_cid=5, own_certs=())
        assert decision.carries == ((5, batch_high),)

    def test_choose_sync_uses_own_certificate(self):
        reports = [stopdata(1, sender, cid=5) for sender in ("r0", "r1", "r2")]
        own = (cert(5, 0, (("mine",),)),)
        decision = choose_sync(reports, own_cid=5, own_certs=own)
        assert decision.carries == ((5, (("mine",),)),)

    def test_choose_sync_ignores_stale_cid_reports(self):
        reports = [stopdata(1, "r0", cid=3, certs=[cert(3, 5, (("old",),))]),
                   stopdata(1, "r1", cid=5),
                   stopdata(1, "r2", cid=5)]
        decision = choose_sync(reports, own_cid=5, own_certs=())
        assert decision.cid == 5
        assert decision.carries == ()

    def test_choose_sync_fills_uncertified_gap_below_certified(self):
        # Open window [5, 8): only the *middle* cid (6) is certified.  The
        # gap at 5 must be filled from an uncertified report (it may not be
        # skipped: 6 may have decided and execution is gap-free), while the
        # uncertified batch at 7 — above the last certified cid — is
        # recycled into fresh proposals, not carried.
        gap_filler = (("gap5",),)
        certified_mid = (("mid6",),)
        recycled = (("tail7",),)
        reports = [stopdata(1, "r0", cid=5, certs=[
                       cert(5, -1, gap_filler), cert(6, 1, certified_mid),
                       cert(7, -1, recycled)]),
                   stopdata(1, "r1", cid=5, certs=[cert(5, -1, gap_filler)]),
                   stopdata(1, "r2", cid=5)]
        decision = choose_sync(reports, own_cid=5, own_certs=())
        assert decision.cid == 5
        assert decision.carries == ((5, gap_filler), (6, certified_mid))

    def test_choose_sync_filler_is_deterministic_first_by_sender(self):
        reports = [stopdata(1, "r2", cid=0, certs=[cert(0, -1, (("z",),))]),
                   stopdata(1, "r0", cid=0, certs=[cert(0, -1, (("a",),))]),
                   stopdata(1, "r1", cid=0, certs=[cert(1, 0, (("c1",),))])]
        decision = choose_sync(reports, own_cid=0, own_certs=())
        # r0 sorts first, so its uncertified batch fills the gap at 0
        assert decision.carries == ((0, (("a",),)), (1, (("c1",),)))

    def test_choose_sync_leaves_unknown_holes_to_the_leader(self):
        reports = [stopdata(1, "r0", cid=2, certs=[cert(4, 1, (("c4",),))]),
                   stopdata(1, "r1", cid=2),
                   stopdata(1, "r2", cid=2)]
        decision = choose_sync(reports, own_cid=2, own_certs=())
        # cids 2 and 3 have no known batch anywhere: the carry list skips
        # them (fresh proposals / state transfer recover those slots)
        assert decision.carries == ((4, (("c4",),)),)

    def test_stopdata_of_departed_members_does_not_count(self):
        m = make_manager("r1")
        m.view = View(NAMES + ("r4", "r5", "r6"), 2)
        for sender in ("r4", "r5"):
            m.regency.on_stopdata(sender, stopdata(
                1, sender, cid=9, certs=[cert(9, 0, (("gone",),))]))
        m.view = View(NAMES, 1)
        m.regency.on_stopdata("r1", stopdata(1, "r1"))
        assert m.sent_of(Sync) == []
        m.regency.on_stopdata("r2", stopdata(1, "r2"))
        m.regency.on_stopdata("r3", stopdata(1, "r3"))
        # neither counted nor carried: the members' reports alone decide
        assert m.sent_of(Sync) == [("*", Sync("g", 1, "r1", 0, ()))]

    def test_a_stopdata_beyond_the_window_is_refused(self):
        m = make_manager("r1")
        full = [cert(cid, -1, (("b", cid),)) for cid in range(WINDOW + 1)]
        m.regency.on_stopdata("r0", stopdata(1, "r0", certs=full))
        assert m.monitor.counters["regency.stopdata_oversize"] == 1
        m.regency.on_stopdata("r1", stopdata(1, "r1"))
        m.regency.on_stopdata("r2", stopdata(1, "r2"))
        assert m.sent_of(Sync) == []        # r0's report was not filed
        m.regency.on_stopdata("r0", stopdata(1, "r0", certs=full[:WINDOW]))
        assert len(m.sent_of(Sync)) == 1
        assert m.monitor.counters["regency.stopdata_oversize"] == 1

    def test_only_the_leader_of_a_current_regency_files_stopdata(self):
        m = make_manager("r2")              # leads regency 2, not 1
        for sender in NAMES:
            m.regency.on_stopdata(sender, stopdata(1, sender))
        assert m.sent == []
        m.regency.current = 3               # regency 2 is over
        for sender in NAMES:
            m.regency.on_stopdata(sender, stopdata(2, sender))
        assert m.sent == []


class TestInstall:
    def test_install_clears_transition(self):
        m = make_manager()
        m.stops(0, "r0", "r1")
        assert m.regency.in_transition
        sync = Sync("g", 1, "r1", 0, ())
        m.regency.on_sync("r1", sync)
        assert m.regency.current == 1
        assert not m.regency.in_transition
        assert m.hooks == ["started", sync]
        assert m.monitor.counters["regency.installed"] == 1

    def test_accepts_future_sync(self):
        m = make_manager()
        sync = Sync("g", 2, "r2", 0, ())
        m.regency.on_sync("r2", sync)
        assert m.regency.current == 2 and m.hooks == [sync]
        m.regency.on_sync("r2", sync)       # already installed, not in transition
        m.regency.on_sync("r1", Sync("g", 1, "r1", 0, ()))   # stale
        assert m.hooks == [sync]

    def test_a_sync_from_a_non_leader_is_refused(self):
        m = make_manager()
        m.regency.on_sync("r2", Sync("g", 1, "r2", 0, ()))  # r1 leads 1
        m.regency.on_sync("r2", Sync("g", 1, "r1", 0, ()))  # not r1's own
        assert m.hooks == [] and m.regency.current == 0

    def test_a_reconfig_during_a_transition_resends_stopdata(self):
        m = make_manager()
        m.regency.reconfigured()            # no transition: nothing to do
        assert m.sent == []
        m.stops(0, "r0", "r1")
        assert m.sent_of(StopData) == [("r1", stopdata(1, "r3"))]
        m.view = View(("r0", "r2", "r3", "r4"), 1)   # r1 left
        m.cursor = 2
        m.regency.reconfigured()
        assert m.sent_of(StopData)[-1] == ("r2", stopdata(1, "r3", cid=2))
        assert m.hooks == ["started", "started"]
        assert m.monitor.counters["reconfig.regency_race"] == 1
