"""Regency (leader-epoch) management: the Mod-SMaRt synchronization phase.

A *regency* is a leader epoch; the leader of regency ``r`` is replica
``r mod n``.  When requests time out, replicas vote STOP for the current
regency.  ``f + 1`` STOPs make a replica join the vote (a correct replica
detected a problem), ``2f + 1`` STOPs install the next regency (counted as
docs/PROTOCOL.md "Who counts" says): replicas send STOPDATA (their
strongest write certificate *per open consensus instance* of the pipeline
window, see ``docs/PIPELINE.md``) to the new leader, which re-proposes
every certified value — and deterministic fillers for uncertified gaps
below a certified cid — in a SYNC message.

:class:`RegencyManager` owns the whole phase at one replica — the votes,
the sends and the installation — and knows of the replica only its view and
four hooks into the ordering core, so it is tested without a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

from repro.bcast.config import BroadcastConfig
from repro.bcast.messages import CertReport, Request, Stop, StopData, Sync
from repro.bcast.reconfig import View
from repro.bcast.tally import Tally
from repro.env import Monitor


@dataclass
class SyncDecision:
    """What the new leader must re-propose after collecting STOPDATA.

    ``cid`` is the highest execution cursor among the reports; ``carries``
    are the (cid, batch) pairs to re-propose, ascending by cid, covering
    every certified instance of the open window plus deterministic fillers
    for uncertified gaps below the highest certified cid.
    """

    cid: int
    carries: Tuple[Tuple[int, Tuple[Request, ...]], ...]


class RegencyManager:
    """The synchronization phase of replica ``owner``, whose membership is
    ``view()`` (read afresh: a Reconfig may change it between two votes).

    Of ``config`` it reads the group, the pipeline window and the request
    timeout.  The hooks into the ordering core are the execution
    ``cursor()``, the window's ``cert_reports(regency)``,
    ``transition_started()`` and ``installed(sync)``.
    """

    def __init__(self, owner: str, config: BroadcastConfig,
                 view: Callable[[], View], monitor: Monitor, clock: Any, *,
                 send: Callable[[str, Any], None],
                 broadcast: Callable[[Any], None],
                 cursor: Callable[[], int],
                 cert_reports: Callable[[int], Tuple[CertReport, ...]],
                 transition_started: Callable[[], None],
                 installed: Callable[[Sync], None]) -> None:
        self.owner = owner
        self.config = config
        self.view = view
        self.monitor = monitor
        self.clock = clock
        self.send = send
        self.broadcast = broadcast
        self.cursor = cursor
        self.cert_reports = cert_reports
        self.transition_started = transition_started
        self.installed = installed
        self.current = 0
        self.in_transition = False
        #: the STOPs, and the STOPDATA reports filed, by regency
        self._stops = Tally()
        self._sent_stop: Set[int] = set()
        self._stopdata = Tally()
        self._sync_sent: Set[int] = set()
        #: (peer, regency) -> last time we re-sent them our old STOP vote
        self._assist_at: Dict[Tuple[str, int], float] = {}

    # -- STOP phase ---------------------------------------------------------

    def suspect(self) -> None:
        """The request timer expired: vote STOP for the current regency."""
        regency = self.current
        stop = Stop(self.config.group_id, regency, self.owner)
        if regency not in self._sent_stop:
            self.monitor.record(self.owner, "regency.stop", regency=regency)
            self._sent_stop.add(regency)
        else:
            # Retransmit: our earlier STOP may have been lost (drops or a
            # partition); peers count stop votes idempotently.
            self.monitor.count("regency.stop_retransmit")
        self.broadcast(stop)
        self.on_stop(self.owner, stop)

    def on_stop(self, src: str, stop: Stop) -> None:
        """Count ``src``'s STOP vote (our own included): join the vote at
        f+1, leave the regency at 2f+1."""
        regency = stop.regency
        if regency < self.current and regency in self._sent_stop:
            # Laggard assist: the sender is still collecting STOPs for a
            # regency we already abandoned.  Our own STOP for that regency
            # may have been lost (drops, partitions) — without it the
            # laggard can end up one vote short of the 2f+1 quorum forever,
            # splitting the group across regencies (observed under a mute
            # Byzantine leader: the up-to-date minority votes for the new
            # regency, the laggards for the old one, and neither side
            # reaches quorum).  Re-sending the old vote is idempotent and
            # lets the laggard catch up to our regency.  Rate-limited per
            # (peer, regency): two replicas both past ``stop.regency`` would
            # otherwise treat each other's assist as stale and bounce it
            # back forever; within the rate window the echo is suppressed
            # and the chain dies, while a genuinely stuck laggard's
            # timer-driven retransmits keep earning fresh assists.
            key = (src, regency)
            last = self._assist_at.get(key)
            if last is None or self.clock.now - last >= self.config.request_timeout:
                self._assist_at[key] = self.clock.now
                self.monitor.count("regency.stop_assist")
                self.send(src, Stop(self.config.group_id, regency, self.owner))
        self._stops.add(regency, src)
        if regency < self.current:
            return
        view = self.view()
        if (regency not in self._sent_stop
                and self._stops.carries(regency, view.replicas, view.f + 1)):
            self._sent_stop.add(regency)
            self.broadcast(Stop(self.config.group_id, regency, self.owner))
            self._stops.add(regency, self.owner)
        if self._stops.carries(regency, view.replicas, view.quorum):
            self.current = regency + 1
            self.in_transition = True
            self._transition(regency + 1)

    def forget_assists(self) -> None:
        """Drop the assist rate limit with the rest of the volatile state."""
        self._assist_at.clear()

    # -- STOPDATA / SYNC phase ------------------------------------------------

    def _transition(self, regency: int) -> None:
        """Report the open window to ``regency``'s leader (STOPDATA)."""
        self.monitor.record(self.owner, "regency.transition", regency=regency)
        self.transition_started()
        data = StopData(
            group=self.config.group_id,
            regency=regency,
            sender=self.owner,
            cid=self.cursor(),
            certs=self.cert_reports(regency),
        )
        leader = self.view().leader_of(regency)
        if leader == self.owner:
            self.on_stopdata(self.owner, data)
        else:
            self.send(leader, data)

    def reconfigured(self) -> None:
        """A Reconfig was executed; re-emit STOPDATA if it raced a transition.

        The pending regency's leader slot may map to a different replica
        under the new view (or the old target may have just left).
        Re-emitting our STOPDATA toward the leader the *new* view
        designates lets the synchronization phase converge instead of
        stalling until the next request timeout.
        """
        if self.in_transition:
            self.monitor.record(self.owner, "reconfig.regency_race",
                                regency=self.current)
            self._transition(self.current)

    def on_stopdata(self, src: str, data: StopData) -> None:
        """New leader: file ``src``'s STOPDATA (our own included); at 2f+1
        choose the carries and emit SYNC."""
        if len(data.certs) > self.config.max_in_flight:
            # A Byzantine peer cannot force unbounded sync work: honest
            # reports never exceed the pipeline window.
            self.monitor.count("regency.stopdata_oversize")
            return
        regency = data.regency
        view = self.view()
        if view.leader_of(regency) != self.owner:
            return
        if regency < self.current:
            return
        self._stopdata.add(regency, data.sender, data)
        reports = self._stopdata.values(regency, view.replicas)
        if regency in self._sync_sent or len(reports) < view.quorum:
            return
        decision = self.choose_sync(reports, self.cursor(),
                                    self.cert_reports(regency))
        self._sync_sent.add(regency)
        sync = Sync(
            group=self.config.group_id,
            regency=regency,
            leader=self.owner,
            cid=decision.cid,
            carries=decision.carries,
        )
        self.monitor.record(self.owner, "regency.sync", regency=regency,
                            carries=len(decision.carries))
        self.broadcast(sync)
        self.on_sync(self.owner, sync)

    @staticmethod
    def choose_sync(reports: Iterable[StopData], own_cid: int,
                    own_certs: Tuple[CertReport, ...]) -> SyncDecision:
        """Pick the values the new leader must carry into the new regency.

        The rule extends Paxos recovery across the in-flight window.  The
        base cursor is the highest ``next_execute`` any reporter claims —
        instances below it are executed at some correct replica and are
        recovered by state transfer, not re-proposal.  Per open cid at or
        above the base, among all reported write certificates, the one from
        the highest regency wins (quorum intersection: any decided value is
        write-certified at f+1 correct replicas, so a 2f+1 STOPDATA quorum
        sees it).  An uncertified cid *below* the highest certified cid is
        provably undecided (no write quorum formed, or a reporter would
        carry the cert) — but it cannot be skipped either, because the
        certified instance above it may already have decided and execution
        is gap-free in cid order.  Such gaps are filled with a
        deterministic uncertified report (first by sender order), or left
        to the new leader to fill with a fresh batch when no reporter knows
        any value.  Uncertified batches above the last certified cid are
        *not* carried: their requests remain un-ordered, fall back into the
        pool, and are re-proposed fresh.
        """
        reports = sorted(reports, key=lambda report: report.sender)
        base = max([own_cid] + [r.cid for r in reports])
        best: Dict[int, CertReport] = {}
        fillers: Dict[int, Tuple[Request, ...]] = {}
        certified: Set[int] = set()
        all_certs: List[Tuple[CertReport, ...]] = [own_certs]
        all_certs.extend(r.certs for r in reports)
        for certs in all_certs:
            for cert in certs:
                if cert.cid < base:
                    continue
                if cert.cert_regency >= 0:
                    certified.add(cert.cid)
                    if cert.batch:
                        current = best.get(cert.cid)
                        if current is None or cert.cert_regency > current.cert_regency:
                            best[cert.cid] = cert
                elif cert.batch and cert.cid not in fillers:
                    fillers[cert.cid] = cert.batch
        if not certified:
            return SyncDecision(cid=base, carries=())
        carries: List[Tuple[int, Tuple[Request, ...]]] = []
        for cid in range(base, max(certified) + 1):
            chosen = best.get(cid)
            if chosen is not None and chosen.batch:
                carries.append((cid, chosen.batch))
            elif cid in fillers:
                carries.append((cid, fillers[cid]))
            # else: no reporter knows a batch for this cid (digest-only
            # certificate or a pure hole) — the leader proposes fresh once
            # installed, and state transfer covers any already-decided value.
        return SyncDecision(cid=base, carries=tuple(carries))

    # -- SYNC installation ----------------------------------------------------

    def on_sync(self, src: str, sync: Sync) -> None:
        """Install the regency of the SYNC its leader sent (or we did)."""
        regency = sync.regency
        if sync.leader != src or self.view().leader_of(regency) != src:
            return
        if regency < self.current or (
                regency == self.current and not self.in_transition):
            return  # stale, or installed already
        self.install(regency)
        self.monitor.record(self.owner, "regency.installed", regency=regency)
        self.installed(sync)

    def install(self, regency: int) -> None:
        """Adopt ``regency`` as current and leave the transition state."""
        self.current = max(self.current, regency)
        self.in_transition = False
