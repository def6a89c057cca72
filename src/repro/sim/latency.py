"""Network latency models.

A latency model maps an ordered pair of *sites* to a one-way delay in
seconds.  Endpoints (processes) are assigned to sites by the
:class:`~repro.sim.network.Network`; within one site the model still decides
the delay (e.g. the LAN model returns ~0.05 ms, half the paper's 0.1 ms RTT).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple


class LatencyModel:
    """Base class: one-way delay between two sites, in seconds."""

    def delay(self, src_site: str, dst_site: str, rng: random.Random) -> float:
        raise NotImplementedError

    def sampler(self, src_site: str, dst_site: str,
                rng: random.Random) -> Callable[[], float]:
        """A zero-argument draw of ``delay(src_site, dst_site, rng)``.

        The :class:`~repro.sim.network.Network` keeps one per link, so a
        send pays one call.  From the same ``rng`` state it yields exactly
        the sequence ``delay`` would.
        """
        return partial(self.delay, src_site, dst_site, rng)


def _jittered(base: float, jitter: float,
              rng: random.Random) -> Callable[[], float]:
    """A draw of ``base * rng.uniform(1 - jitter, 1 + jitter)``, with
    ``uniform``'s own arithmetic inlined (the same floats); the only place
    the jittered models compute a delay, for ``delay`` and ``sampler``."""
    if jitter == 0:
        return lambda: base
    lo = 1 - jitter
    span = (1 + jitter) - lo
    draw = rng.random
    return lambda: base * (lo + span * draw())


class ConstantLatency(LatencyModel):
    """The same one-way delay for every pair of sites.

    >>> ConstantLatency(0.00005).delay("a", "b", random.Random(0))
    5e-05
    """

    def __init__(self, one_way: float) -> None:
        if one_way < 0:
            raise ValueError("latency must be non-negative")
        self.one_way = one_way

    def delay(self, src_site: str, dst_site: str, rng: random.Random) -> float:
        return self.one_way


class JitterLatency(LatencyModel):
    """A base delay with multiplicative uniform jitter.

    ``delay = base * uniform(1 - jitter, 1 + jitter)``.  This is the default
    LAN model: base 50 µs (0.1 ms RTT, §V-B1) with 20 % jitter, which keeps
    message arrivals from degenerate simultaneity without changing averages.
    """

    def __init__(self, base: float, jitter: float = 0.2) -> None:
        if base < 0 or not 0 <= jitter < 1:
            raise ValueError("need base >= 0 and 0 <= jitter < 1")
        self.base = base
        self.jitter = jitter

    def delay(self, src_site: str, dst_site: str, rng: random.Random) -> float:
        return _jittered(self.base, self.jitter, rng)()

    def sampler(self, src_site: str, dst_site: str,
                rng: random.Random) -> Callable[[], float]:
        return _jittered(self.base, self.jitter, rng)


class MatrixLatency(LatencyModel):
    """Pairwise one-way delays from a site-to-site matrix (WAN, Table I).

    Args:
        matrix: mapping ``(site_a, site_b) -> one-way seconds``; symmetric
            entries are filled in automatically, so only one direction needs
            to be given.
        local: delay used when both endpoints are at the same site.
        jitter: multiplicative uniform jitter applied to every delay.
    """

    def __init__(
        self,
        matrix: Mapping[Tuple[str, str], float],
        local: float = 0.00005,
        jitter: float = 0.05,
    ) -> None:
        self._matrix: Dict[Tuple[str, str], float] = {}
        for (a, b), value in matrix.items():
            if value < 0:
                raise ValueError(f"negative latency for {(a, b)}")
            self._matrix[(a, b)] = value
            self._matrix.setdefault((b, a), value)
        self.local = local
        self.jitter = jitter

    def sites(self) -> Tuple[str, ...]:
        seen = []
        for a, b in self._matrix:
            for site in (a, b):
                if site not in seen:
                    seen.append(site)
        return tuple(seen)

    def base_delay(self, src_site: str, dst_site: str) -> Optional[float]:
        if src_site == dst_site:
            return self.local
        return self._matrix.get((src_site, dst_site))

    def delay(self, src_site: str, dst_site: str, rng: random.Random) -> float:
        base = self.base_delay(src_site, dst_site)
        if base is None:
            raise KeyError(f"no latency entry for sites {src_site!r}→{dst_site!r}")
        return _jittered(base, self.jitter, rng)()

    def sampler(self, src_site: str, dst_site: str,
                rng: random.Random) -> Callable[[], float]:
        base = self.base_delay(src_site, dst_site)
        if base is None:  # raises at the draw, as delay() does
            return super().sampler(src_site, dst_site, rng)
        return _jittered(base, self.jitter, rng)
