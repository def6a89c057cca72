"""A state machine over :class:`~repro.core.relay.BatchMerge`.

Rules are what a child's merge can be fed during ordered execution:

* indexed copies from correct relayers, in any order, each relayer's copy
  of an index being the correct batch — up to ``F`` of them restored past
  a prefix they never relay;
* copies from ``F`` Byzantine relayers carrying any batch at any index,
  duplicates included;
* a membership update dropping or restoring the Byzantine relayers;
* ``restore(snapshot())`` into a fresh merge;
* every correct copy arriving, after which all of the sequence must be
  released.

Every step is mirrored into a twin that never restores.  The invariants:
the released batches are a prefix of the correct sequence, each released
on at least one correct relayer's copy; the restored merge releases what
the twin does and snapshots identically; and no index keeps more copies
than there are relayers, one per relayer.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.core.relay import BatchMerge

F = 1
PARENTS = tuple(f"p{i}" for i in range(3 * F + 1))
CORRECT = PARENTS[: 2 * F + 1]
BYZANTINE = PARENTS[2 * F + 1:]
#: the batch a correct relayer stamps with each index
SEQUENCE = tuple(f"b{i}" for i in range(6))
#: what a Byzantine relayer may send: any correct batch or junk
FORGERIES = SEQUENCE + ("junk", "junk2")


class BatchMergeMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.merge = BatchMerge(PARENTS, F + 1)
        self.twin = BatchMerge(PARENTS, F + 1)
        self.released = []
        #: index -> the correct relayers that sent their copy of it
        self.correct_sent = {index: set() for index in range(len(SEQUENCE))}
        #: relayer -> the first index it relays (a restored one skips more)
        self.first = dict.fromkeys(CORRECT, 0)

    @initialize(skips=st.lists(st.integers(0, len(SEQUENCE)),
                               min_size=F, max_size=F))
    def restored_relayers(self, skips):
        self.first.update(zip(CORRECT, skips))

    def push(self, sender: str, index: int, batch: str) -> None:
        released = self.merge.push(sender, index, batch)
        assert self.twin.push(sender, index, batch) == released
        self.record(released)

    def record(self, released) -> None:
        for batch in released:
            assert self.correct_sent.get(len(self.released)), \
                "released on Byzantine copies alone"
            self.released.append(batch)

    @rule(data=st.data(), sender=st.sampled_from(CORRECT))
    def correct_copy(self, data, sender):
        first = self.first[sender]
        if first >= len(SEQUENCE):
            return
        index = data.draw(st.integers(first, len(SEQUENCE) - 1))
        self.correct_sent[index].add(sender)
        self.push(sender, index, SEQUENCE[index])

    @rule(sender=st.sampled_from(BYZANTINE),
          index=st.integers(0, len(SEQUENCE) + 1),
          batch=st.sampled_from(FORGERIES))
    def byzantine_copy(self, sender, index, batch):
        self.push(sender, index, batch)

    @rule(senders=st.sampled_from([PARENTS, CORRECT]))
    def update_members(self, senders):
        released = self.merge.update_members(senders, F + 1)
        assert self.twin.update_members(senders, F + 1) == released
        self.record(released)

    @rule()
    def restore(self):
        restored = BatchMerge(self.merge.senders, self.merge.threshold)
        restored.restore(self.merge.snapshot())
        self.merge = restored

    @rule()
    def every_correct_copy_arrives(self):
        """The correct relayers' copies outvote anything Byzantine: once
        all have arrived, the whole sequence is released."""
        for sender, first in self.first.items():
            for index in range(first, len(SEQUENCE)):
                self.correct_sent[index].add(sender)
                self.push(sender, index, SEQUENCE[index])
        assert self.released == list(SEQUENCE)

    @invariant()
    def released_a_prefix_of_the_correct_sequence(self):
        assert self.released == list(SEQUENCE[:len(self.released)])
        assert self.merge.next_index == len(self.released)

    @invariant()
    def restored_merge_agrees_with_its_twin(self):
        assert self.merge.snapshot() == self.twin.snapshot()

    @invariant()
    def one_kept_copy_per_relayer_and_index(self):
        for __, copies in self.merge.snapshot()[1]:
            voters = [sender for sender, __ in copies]
            assert len(set(voters)) == len(voters) <= len(self.merge.senders)


TestBatchMerge = BatchMergeMachine.TestCase
TestBatchMerge.settings = settings(deadline=None, stateful_step_count=40)
