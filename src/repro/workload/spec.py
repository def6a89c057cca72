"""Destination and key distributions (the workloads of §V and beyond).

A *destination sampler* is a callable ``rng -> Destination``.  The samplers
here reproduce the paper's workloads:

* ``local_uniform`` — local messages, destination group chosen uniformly
  (the Fig. 4(a)/5(a) workload);
* ``uniform_pairs`` — global messages to a uniformly random pair of groups
  (the *uniform workload* of Table II, Fig. 3/4(b)/5(b));
* ``skewed_pairs`` — global messages to {g1,g2} or {g3,g4} only (the
  *skewed workload* of Table II);
* ``mixed_ratio`` — local and global in a given proportion (the 10:1 mixed
  workload of Fig. 6/9/10);

and the skewed and shifting distributions beyond them (docs/SCENARIOS.md):

* ``zipfian_local`` / ``zipfian_pairs`` — Zipf-skewed group popularity;
* ``hotspot_pairs`` — hot pairs of groups whose pairing migrates over
  virtual time (the adaptive-tree ablation's shifting skew).

A *key sampler* is a callable ``rng -> str`` over a fixed key space —
``uniform_keys`` / ``zipfian_keys`` feed the sharded-KV workloads of
:mod:`repro.apps.sharded_kv`.

The module also exposes the Table II demand matrices ``F(d)`` used by the
overlay-tree optimizer.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.types import Destination, destination

DestinationSampler = Callable[[random.Random], Destination]
KeySampler = Callable[[random.Random], str]

#: ``hotspot_pairs``: the probability mass on the hot pairs, and the
#: seconds of virtual time before their pairing migrates
HOT_WEIGHT = 0.9
HOT_PERIOD = 4.0


def _zipf_cumulative(count: int, s: float) -> List[float]:
    """Cumulative Zipf(s) distribution over ``count`` ranks."""
    if count < 1:
        raise WorkloadError("need at least one element")
    if s < 0:
        raise WorkloadError("zipf exponent must be non-negative")
    weights = [1.0 / ((index + 1) ** s) for index in range(count)]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    return cumulative


def _zipf_index(cumulative: Sequence[float], rng: random.Random) -> int:
    point = rng.random()
    for index, bound in enumerate(cumulative):
        if point <= bound:
            return index
    return len(cumulative) - 1


def fixed_destination(*groups: str) -> DestinationSampler:
    """Always the same destination set."""
    dst = destination(*groups)

    def sample(rng: random.Random) -> Destination:
        return dst

    return sample


def local_uniform(targets: Sequence[str]) -> DestinationSampler:
    """Local messages: one target group, uniformly at random."""
    if not targets:
        raise WorkloadError("need at least one target group")
    choices = [destination(t) for t in targets]

    def sample(rng: random.Random) -> Destination:
        return rng.choice(choices)

    return sample


def uniform_pairs(targets: Sequence[str]) -> DestinationSampler:
    """Global messages to two groups, all pairs equally likely (Table II)."""
    if len(targets) < 2:
        raise WorkloadError("need at least two target groups for pairs")
    pairs = [destination(a, b) for a, b in itertools.combinations(sorted(targets), 2)]

    def sample(rng: random.Random) -> Destination:
        return rng.choice(pairs)

    return sample


def skewed_pairs(pairs: Iterable[Tuple[str, str]] = (("g1", "g2"), ("g3", "g4"))
                 ) -> DestinationSampler:
    """Global messages restricted to the given pairs (Table II skewed)."""
    choices = [destination(a, b) for a, b in pairs]
    if not choices:
        raise WorkloadError("need at least one pair")

    def sample(rng: random.Random) -> Destination:
        return rng.choice(choices)

    return sample


def mixed_ratio(
    local: DestinationSampler,
    global_: DestinationSampler,
    local_parts: int = 10,
    global_parts: int = 1,
) -> DestinationSampler:
    """Mix local and global messages in ``local_parts : global_parts``.

    The paper's mixed workload uses 10:1 (§V-G, §V-I).
    """
    if local_parts < 0 or global_parts < 0 or local_parts + global_parts == 0:
        raise WorkloadError("ratio parts must be non-negative and not both zero")
    global_probability = global_parts / (local_parts + global_parts)

    def sample(rng: random.Random) -> Destination:
        if rng.random() < global_probability:
            return global_(rng)
        return local(rng)

    return sample


def zipfian_local(targets: Sequence[str], s: float = 1.0) -> DestinationSampler:
    """Local messages with Zipf-skewed shard popularity.

    §V-A2 mentions workloads "with and without locality (i.e., skewed
    access)"; this sampler realizes the skew: shard ``i`` (0-based, in the
    given order) is chosen with probability proportional to ``1/(i+1)^s``.
    ``s = 0`` degenerates to uniform.
    """
    if not targets:
        raise WorkloadError("need at least one target group")
    cumulative = _zipf_cumulative(len(targets), s)
    choices = [destination(t) for t in targets]

    def sample(rng: random.Random) -> Destination:
        return choices[_zipf_index(cumulative, rng)]

    return sample


def zipfian_pairs(targets: Sequence[str], s: float = 1.0) -> DestinationSampler:
    """Global messages to a Zipf-skewed pair of groups.

    Both members of the pair are drawn from the same Zipf(s) marginal over
    the given target order (re-drawing until distinct), so popular shards
    co-occur in cross-group messages the way skewed real workloads make
    them — the distribution FlexCast-style adaptive trees feed on.
    ``s = 0`` degenerates to uniform pairs.
    """
    if len(targets) < 2:
        raise WorkloadError("need at least two target groups for pairs")
    cumulative = _zipf_cumulative(len(targets), s)
    names = list(targets)

    def sample(rng: random.Random) -> Destination:
        first = _zipf_index(cumulative, rng)
        second = first
        while second == first:
            second = _zipf_index(cumulative, rng)
        return destination(names[first], names[second])

    return sample


def hotspot_pairs(targets: Sequence[str],
                  clock: Callable[[], float]) -> DestinationSampler:
    """Global hot *pairs* whose pairing migrates — the adaptive-tree stress.

    Targets split into a front and a back half.  With probability
    :data:`HOT_WEIGHT` the destination is the pair ``(front[i], back[(i +
    epoch) % |back|])`` with ``i`` drawn Zipf(1)-ranked over the front
    half; otherwise it is a uniform local single.  The epoch advances
    every :data:`HOT_PERIOD` seconds of ``clock`` (a ``() -> float`` of
    virtual seconds), so *which* groups co-occur rotates over time: a tree
    adapted to one epoch's pairing is cross-branch again in the next —
    exactly the shifting-skew workload FlexCast-style online
    re-planning is for (docs/TREES.md).

    Under the canonical ``balanced(fanout = |targets| / 2)`` tree the two
    halves sit in different branches, so every hot pair costs the full
    3-level path until the planner co-locates that epoch's pairing.
    """
    if len(targets) < 2:
        raise WorkloadError("need at least two target groups for pairs")
    names = list(targets)
    half = len(names) // 2
    front, back = names[:half], names[half:]
    cumulative = _zipf_cumulative(len(front), 1.0)
    singles = [destination(t) for t in names]

    def sample(rng: random.Random) -> Destination:
        epoch = int(clock() / HOT_PERIOD)
        if rng.random() < HOT_WEIGHT:
            rank = _zipf_index(cumulative, rng)
            return destination(front[rank], back[(rank + epoch) % len(back)])
        return singles[rng.randrange(len(singles))]

    return sample


# -- key distributions (sharded-KV workloads) ---------------------------------


def key_space(count: int, prefix: str = "key") -> Tuple[str, ...]:
    """The fixed key universe ``{prefix}0 .. {prefix}{count-1}``."""
    if count < 1:
        raise WorkloadError("need at least one key")
    return tuple(f"{prefix}{i}" for i in range(count))


def uniform_keys(count: int, prefix: str = "key") -> KeySampler:
    """Every key equally popular."""
    keys = key_space(count, prefix)

    def sample(rng: random.Random) -> str:
        return keys[rng.randrange(len(keys))]

    return sample


def zipfian_keys(count: int, s: float = 1.0, prefix: str = "key") -> KeySampler:
    """Zipf-skewed key popularity (key ``{prefix}0`` is the most popular)."""
    keys = key_space(count, prefix)
    cumulative = _zipf_cumulative(len(keys), s)

    def sample(rng: random.Random) -> str:
        return keys[_zipf_index(cumulative, rng)]

    return sample


# -- Table II demand matrices (inputs to the optimizer) -----------------------


def table2_uniform_demand(
    targets: Sequence[str] = ("g1", "g2", "g3", "g4"),
    rate: float = 1200.0,
) -> Dict[FrozenSet[str], float]:
    """``D_u``: every pair of groups at ``F_u(d) = 1200`` msgs/s."""
    return {
        destination(a, b): rate
        for a, b in itertools.combinations(sorted(targets), 2)
    }


def table2_skewed_demand(
    pairs: Iterable[Tuple[str, str]] = (("g1", "g2"), ("g3", "g4")),
    rate: float = 9000.0,
) -> Dict[FrozenSet[str], float]:
    """``D_s``: only {g1,g2} and {g3,g4}, each at ``F_s(d) = 9000`` msgs/s."""
    return {destination(a, b): rate for a, b in pairs}
