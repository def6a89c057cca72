"""Tier-1 test configuration."""

from hypothesis import settings

# Tier-1 draws the same examples every run: a red run must be reproducible
# by re-running it.  Random-seed exploration belongs to a CI sweep whose
# failures are committed as pinned seeds (tests/runtime/test_churn_soak.py).
settings.register_profile("tier1", derandomize=True, database=None)
# CI's seed-sweep job runs the state machines with ``--hypothesis-profile
# sweep``: random draws, twenty times tier-1's examples.
settings.register_profile("sweep", max_examples=2000, database=None)
settings.load_profile("tier1")
