"""Tier-1 test configuration."""

from hypothesis import settings

# Tier-1 draws the same examples every run: a red run must be reproducible
# by re-running it.  Random-seed exploration belongs to a CI sweep whose
# failures are committed as pinned seeds (tests/runtime/test_churn_soak.py).
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
