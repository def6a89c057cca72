"""Property: churn soaks hold every invariant for arbitrary seeds.

Any seed's churn schedule — joins, leaves and scale cycles interleaved
with crashes, partitions and Byzantine victims — must quiesce with the
five atomic-multicast invariants AND the two churn invariants (view
agreement, joiner replay) intact.  Small hypothesis budget: each example
is a full simulated soak.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.runtime.chaos import run_chaos_soak
from tests.helpers import soak_spec

FAST_CHURN = soak_spec(duration=4.0, clients=2, intensity="churn",
                       max_in_flight=2)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=4, deadline=None)
def test_random_churn_schedules_never_violate_invariants(seed):
    report = run_chaos_soak(FAST_CHURN.with_(seed=seed), messages=24)
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()
