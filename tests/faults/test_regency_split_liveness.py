"""Regression: a regency-split must not wedge a group forever.

Under a mute Byzantine leader plus a message-drop burst, a group can split
across regencies: the up-to-date minority has moved to regency ``r + 1``
while laggards — whose STOP messages were dropped — still collect votes
for ``r``.  Replicas only ever (re)transmit the STOP of their *current*
regency, so without assistance the laggards stay one vote short of the
``2f + 1`` quorum forever and the group never recovers (found by the
chaos-soak property test at the pinned seed below).

The fix: a replica receiving a STOP for a regency it already abandoned
re-sends its own old vote to the laggard (rate-limited per peer/regency so
two advanced replicas cannot bounce assists at each other indefinitely).
"""

from __future__ import annotations

import pytest

from repro.runtime.chaos import run_chaos_soak
from tests.helpers import soak_spec

pytestmark = pytest.mark.slow

#: hypothesis-found reproduction of the wedge (mute g2 leader + drop burst)
WEDGE_SEED = 238


def test_seed_238_regency_split_recovers():
    report = run_chaos_soak(
        soak_spec(seed=WEDGE_SEED, intensity="medium", duration=4.0,
                  clients=2),
        messages=24,
    )
    assert report.ok, report.summary()
    assert report.outstanding == 0
    assert report.violations == []
