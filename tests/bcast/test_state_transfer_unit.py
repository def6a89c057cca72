"""The state-transfer collaborator on its own: no deployment, no network.

:class:`repro.bcast.statetransfer.StateTransfer` over a bare
:class:`~repro.bcast.log.DecisionLog` and
:class:`~repro.bcast.checkpoint.Checkpointer`: answering from the log, the
voucher rule (f+1 matching digests per cid, one voucher only on the
owner's own write certificate, forged checkpoint payloads not counted, f
read again after every installed batch), the requester's round (kept open
while a responder proves the owner is behind, a straggler adopted after it
closed) and the capped, deterministically jittered backoff.
"""

from __future__ import annotations

import zlib

import pytest

from repro.bcast.app import EchoApplication
from repro.bcast.checkpoint import Checkpointer
from repro.bcast.config import BACKOFF_MULTIPLIER
from repro.bcast.log import DecisionLog
from repro.bcast.messages import (CheckpointData, Request, StateRequest,
                                  StateResponse)
from repro.bcast.reconfig import View
from repro.bcast.statetransfer import STATE_RETRY_TIMEOUT, StateTransfer
from repro.crypto.digest import digest
from repro.env import Monitor
from tests.helpers import replica_names, state_response

VIEW = View(replica_names("g1"), 1)


def batch(seq: int, op: str = "op"):
    return (Request("g1", "c0", seq, (op, seq)),)


def answer(sender: str, next_cid: int, *batches, regency: int = 0):
    return StateResponse(group="g1", sender=sender, from_cid=0,
                         next_cid=next_cid, regency=regency, batches=batches,
                         checkpoint=None, horizon=0)


class Owner:
    """The replica's half: its f, its write certificates, and adoption
    (install the elected checkpoint, then every vouched-for batch)."""

    def __init__(self, interval: int = 0, name: str = "g1/r0", f: int = 1,
                 certified=None, after_install=None, opened: bool = True):
        app, monitor, log = EchoApplication(), Monitor(), DecisionLog(interval)
        self.f = f
        self.certified = certified or {}
        self.after_install = after_install
        self.installed = []
        self.regencies = []
        self.transfer = StateTransfer(
            name, log, Checkpointer(name, app, log, monitor), monitor,
            f=lambda: self.f, certified=self.certified.get)
        if opened:
            assert self.transfer.open(0.0)

    def install(self, checkpoint: CheckpointData) -> None:
        self.transfer.log.install_checkpoint(checkpoint)
        self.installed.append(("checkpoint", checkpoint.cid))

    def execute(self, cid: int, batch) -> None:
        self.installed.append(cid)
        if self.after_install is not None:
            self.after_install(self, cid)

    def adopt(self) -> bool:
        regency = self.transfer.adopt(self.install, self.execute)
        self.regencies.append(regency)
        return regency is not None

    def offer(self, response: StateResponse, peers: int = 3):
        return self.transfer.offer(response.sender, response, peers,
                                   self.adopt)


def make(interval: int = 0, owner: str = "g1/r0") -> StateTransfer:
    return Owner(interval, owner, opened=False).transfer


# ------------------------------------------------------------------ answering


def test_an_answer_behind_the_horizon_carries_the_checkpoint():
    transfer = make(interval=4)
    log = transfer.log
    for cid in range(6):
        log.record_decision(cid, batch(cid + 1))
    list(log.ready_batches())
    transfer.checkpoints.take(3, {"c0": 4}, VIEW)
    behind = transfer.answer(StateRequest("g1", "g1/r3", 0), regency=2)
    assert (behind.sender, behind.next_cid, behind.regency) == ("g1/r0", 6, 2)
    assert behind.checkpoint is log.checkpoint and behind.horizon == 4
    assert [cid for cid, __ in behind.batches] == [4, 5]
    level = transfer.answer(StateRequest("g1", "g1/r3", 5), regency=2)
    assert level.checkpoint is None
    assert [cid for cid, __ in level.batches] == [5]


# ----------------------------------------------------------- the voucher rule


def test_each_cid_needs_f_plus_one_matching_digests():
    owner = Owner()
    assert owner.offer(answer("g1/r1", 2, (0, batch(1)), (1, batch(2)))) is None
    assert owner.installed == []        # one voucher is not enough
    adopted = owner.offer(answer("g1/r2", 2, (0, batch(1)),
                                 (1, batch(2, "forged"))))
    assert adopted is True and owner.installed == [0]
    assert owner.transfer.log.next_execute == 1
    assert not owner.transfer.active    # something installed: round over


def test_a_responder_repeating_a_batch_is_one_voucher():
    owner = Owner()
    forged = (0, batch(1, "forged"))
    owner.offer(answer("g1/r3", 1, forged, forged))
    owner.offer(answer("g1/r1", 0), peers=2)
    assert owner.installed == []
    assert owner.transfer.log.next_execute == 0


@pytest.mark.parametrize("certified, installed", [
    ({}, []),
    ({0: digest(batch(1, "other"))}, []),
    ({0: digest(batch(1))}, [0]),
])
def test_one_voucher_counts_only_on_the_owners_write_certificate(
        certified, installed):
    owner = Owner(certified=certified)
    owner.offer(answer("g1/r1", 1, (0, batch(1))))
    owner.offer(answer("g1/r2", 0))
    assert owner.installed == installed
    adopts = owner.transfer.monitor.counters["state.cert_adopt"]
    assert adopts == len(installed)


def test_a_forged_checkpoint_payload_is_not_counted():
    owner = Owner(interval=4)
    transfer = owner.transfer
    tracker = (("c0", 2),)
    state = (("op", 1), ("op", 2))
    honest = CheckpointData(
        cid=7, state_digest=transfer.checkpoints.digest_of(
            7, state, tracker, VIEW.replicas, VIEW.f),
        state=state, tracker=tracker, view_replicas=VIEW.replicas,
        view_f=VIEW.f)
    forged = CheckpointData(
        cid=7, state_digest=honest.state_digest, state=(("evil", 666),),
        tracker=tracker, view_replicas=VIEW.replicas, view_f=VIEW.f)
    owner.offer(state_response("g1/r1", honest))
    owner.offer(state_response("g1/r3", forged))
    assert owner.installed == []
    assert transfer.monitor.counters["checkpoint.bad_digest"] == 1
    owner.offer(state_response("g1/r2", honest))
    assert owner.installed == [("checkpoint", 7)]
    assert transfer.log.next_execute == 8


def test_f_is_read_again_after_every_installed_batch():
    vouchers = [answer(f"g1/r{i}", 2, (0, batch(1)), (1, batch(2)))
                for i in (1, 2)]
    steady = Owner()
    for response in vouchers:
        steady.offer(response)
    assert steady.installed == [0, 1]

    def reconfigure(owner, cid):
        owner.f = 2                     # the batch at cid 0 was a Reconfig

    grown = Owner(after_install=reconfigure)
    for response in vouchers:
        grown.offer(response)
    assert grown.installed == [0]       # cid 1 now needs three vouchers


def test_adoption_reports_the_highest_regency_among_the_answers():
    owner = Owner()
    owner.offer(answer("g1/r1", 1, (0, batch(1)), regency=3))
    assert owner.offer(answer("g1/r2", 0, regency=5), peers=2) is False
    assert owner.regencies == [None]    # nothing installed: no regency
    agreed = Owner()
    agreed.offer(answer("g1/r1", 1, (0, batch(1)), regency=3))
    agreed.offer(answer("g1/r2", 1, (0, batch(1)), regency=5))
    assert agreed.installed == [0] and agreed.regencies == [5]


# ------------------------------------------------------------------ the round


def test_the_round_stays_open_while_a_responder_proves_the_owner_behind():
    owner = Owner()
    owner.offer(answer("g1/r1", 0))
    assert owner.offer(answer("g1/r2", 5, (0, batch(1)))) is None
    assert owner.transfer.active        # r2 is ahead: wait for r3
    assert owner.offer(answer("g1/r3", 0)) is False
    assert not owner.transfer.active    # every peer answered


def test_a_straggler_is_adopted_after_the_round_closed():
    owner = Owner(certified={0: digest(batch(1))})
    owner.offer(answer("g1/r1", 0))
    assert owner.offer(answer("g1/r2", 0)) is False
    assert not owner.transfer.active    # nobody vouched we are behind
    assert owner.offer(answer("g1/r1", 0)) is None      # proves nothing
    assert owner.offer(answer("g1/r3", 1, (0, batch(1)))) is True
    assert owner.installed == [0]
    assert not owner.transfer.active


# ---------------------------------------------------------------- the backoff


def backoff_of(transfer: StateTransfer, now: float) -> float:
    assert transfer.open(now)
    transfer.expire(now)
    assert not transfer.active
    assert not transfer.open(transfer.backoff_until - 1e-9)
    return transfer.backoff_until - now


def test_the_backoff_doubles_to_the_cap_with_deterministic_jitter():
    transfer = make()
    for attempt in range(1, 10):
        jitter = (zlib.crc32(f"g1/r0:{attempt}".encode()) % 1024) / 4096.0
        assert 0.0 <= jitter < 0.25
        multiplier = min(2 ** (attempt - 1), BACKOFF_MULTIPLIER)
        assert backoff_of(transfer, 100.0 * attempt) == pytest.approx(
            STATE_RETRY_TIMEOUT * multiplier * (1.0 + jitter))
    assert transfer.monitor.counters["state.backoff"] == 9
    assert backoff_of(make(), 0.0) == backoff_of(make(), 0.0)
    assert backoff_of(make(owner="g1/r1"), 0.0) != backoff_of(make(), 0.0)


def test_reachability_and_success_reset_the_backoff():
    transfer = make()
    for attempt in range(4):
        backoff_of(transfer, 100.0 * attempt)
    transfer.reachable()                # live traffic: stop waiting ...
    assert transfer.backoff_until == 0.0
    assert backoff_of(transfer, 500.0) > 8.0    # ... but failures count
    transfer.forgive()
    assert backoff_of(transfer, 600.0) < 1.25   # back to the first step
    transfer.expire(700.0)              # no round open: nothing to fail
    assert transfer.monitor.counters["state.backoff"] == 6
