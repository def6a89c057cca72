"""A state machine comparing :class:`~repro.bcast.tally.Tally` with a
brute-force count.

The oracle keeps every vote filed, in order, and answers each question by
scanning that log: a key's count is the number of distinct voters for it
that are current members.  Rules are arbitrary votes (repeats and new
values included, filed plainly or through ``reaches``), membership changes,
threshold changes and clearing.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bcast.tally import Tally

VOTERS = ("r0", "r1", "r2", "r3", "r4", "r5")
KEYS = ("a", "b", ("c", 1))


class TallyMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.tally = Tally()
        #: every vote filed since the last clear: (key, voter, value)
        self.log = []
        self.members = frozenset(VOTERS[:4])
        self.threshold = 2

    # -- the oracle --------------------------------------------------------

    def voters(self, key):
        """``key``'s distinct voters among the members, in first-vote order."""
        seen = []
        for logged, voter, __ in self.log:
            if logged == key and voter not in seen:
                seen.append(voter)
        return [voter for voter in seen if voter in self.members]

    def value(self, key, voter):
        """The value of ``voter``'s latest vote for ``key``."""
        return [value for logged, who, value in self.log
                if logged == key and who == voter][-1]

    # -- rules ---------------------------------------------------------------

    @rule(key=st.sampled_from(KEYS), voter=st.sampled_from(VOTERS),
          value=st.integers(0, 3), through_reaches=st.booleans())
    def vote(self, key, voter, value, through_reaches):
        first = all(logged != key or who != voter
                    for logged, who, __ in self.log)
        self.log.append((key, voter, value))
        if through_reaches:
            expected = (first and voter in self.members
                        and len(self.voters(key)) == self.threshold)
            assert self.tally.reaches(key, voter, self.members,
                                      self.threshold, value) == expected
        else:
            assert self.tally.add(key, voter, value) == first

    @rule(members=st.frozensets(st.sampled_from(VOTERS)))
    def membership_changes(self, members):
        self.members = members

    @rule(threshold=st.integers(1, 5))
    def threshold_changes(self, threshold):
        self.threshold = threshold

    @rule()
    def clear(self):
        self.tally.clear()
        self.log.clear()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def every_key_counts_its_distinct_current_voters(self):
        # A tuple of members counts like the set does.
        for members in (self.members, tuple(sorted(self.members))):
            for key in KEYS:
                voters = self.voters(key)
                assert self.tally.voters(key, members) == voters
                assert self.tally.count(key, members) == len(voters)
                assert self.tally.values(key, members) == [
                    self.value(key, voter) for voter in voters]
                assert self.tally.carries(key, members, self.threshold) == (
                    len(voters) >= self.threshold)

    @invariant()
    def the_carried_keys_are_listed_in_first_vote_order(self):
        first = []
        for key, __, __ in self.log:
            if key not in first:
                first.append(key)
        assert list(self.tally.carried(self.members, self.threshold)) == [
            key for key in first if len(self.voters(key)) >= self.threshold]


TestTally = TallyMachine.TestCase
TestTally.settings = settings(deadline=None, stateful_step_count=40)
