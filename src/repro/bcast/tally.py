"""The one vote-counting rule of the protocol (docs/PROTOCOL.md, "Who
counts"): every vote table of the code base is a :class:`Tally`."""

from __future__ import annotations

from typing import Any, Container, Dict, Hashable, Iterator, List


class Tally:
    """Votes per key.  Each voter counts once per key (a later vote
    replaces its value, not its place), and only while it is one of the
    ``members`` named when counting; a key *carries* once that count
    reaches the threshold."""

    __slots__ = ("_votes",)

    def __init__(self) -> None:
        #: key -> voter -> the value of its vote, in first-vote order
        self._votes: Dict[Hashable, Dict[str, Any]] = {}

    def add(self, key: Hashable, voter: str, value: Any = None) -> bool:
        """File ``voter``'s vote for ``key``; True if it is its first."""
        votes = self._votes.setdefault(key, {})
        first = voter not in votes
        votes[voter] = value
        return first

    def reaches(self, key: Hashable, voter: str, members: Container[str],
                threshold: int, value: Any = None) -> bool:
        """File the vote; True iff it is the one that makes ``key`` carry."""
        return (self.add(key, voter, value) and voter in members
                and len(self._votes[key]) >= threshold
                and self.count(key, members) == threshold)

    def voters(self, key: Hashable, members: Container[str]) -> List[str]:
        """``key``'s voters among ``members``, in first-vote order."""
        return [voter for voter in self._votes.get(key, ())
                if voter in members]

    def values(self, key: Hashable, members: Container[str]) -> List[Any]:
        """The values of ``key``'s votes by ``members``, in first-vote order."""
        return [value for voter, value in self._votes.get(key, {}).items()
                if voter in members]

    def count(self, key: Hashable, members: Container[str]) -> int:
        count = 0
        for voter in self._votes.get(key, ()):
            if voter in members:
                count += 1
        return count

    def carries(self, key: Hashable, members: Container[str],
                threshold: int) -> bool:
        # a key's voters bound its count: most calls need not count
        return (len(self._votes.get(key, ())) >= threshold
                and self.count(key, members) >= threshold)

    def carried(self, members: Container[str],
                threshold: int) -> Iterator[Hashable]:
        """The keys that carry, in the order they were first voted for."""
        return (key for key in self._votes
                if self.carries(key, members, threshold))

    def clear(self) -> None:
        self._votes.clear()
