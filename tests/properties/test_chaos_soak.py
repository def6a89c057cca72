"""Properties of the chaos soak: invariants always hold; seeds pin runs.

Two layers of guarantees:

* **Property** — for randomly drawn nemesis seeds and intensities, a sim
  soak never violates the five atomic-multicast invariants and always
  reaches liveness after the final heal (hypothesis, small budget).
* **Golden** — a fixed seed expands to a byte-identical timeline (pinned
  by SHA256) and a bit-identical simulated run: two soaks with the same
  config produce equal post-mortem reports and equal delivery orders.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.env import make_runtime
from repro.env.chaos import install_chaos
from repro.faults.nemesis import NemesisSchedule
from repro.runtime.chaos import run_chaos_soak
from repro.types import destination
from tests.helpers import FAST_COSTS, soak_spec

#: sha256 of NemesisSchedule.generate(seed=42, medium, 10 s).describe() —
#: changes only if the generator's draw order or the line format of
#: ``NemesisOp.describe`` changes (the first is a breaking change
#: for anyone reproducing a soak failure from its seed).
GOLDEN_TIMELINE_SHA = (
    "2cf21798b20be4bf7f6a37e767be7b0f87be0fb09c0ff8ad797b969f21fcb5d4"
)

GROUPS = {gid: tuple(f"{gid}/r{i}" for i in range(4))
          for gid in ("g1", "g2", "h1")}

FAST_SOAK = soak_spec(duration=4.0, clients=2)


@given(seed=st.integers(min_value=0, max_value=10_000),
       intensity=st.sampled_from(["light", "medium"]))
@settings(max_examples=6, deadline=None)
def test_random_nemesis_schedules_never_violate_invariants(seed, intensity):
    report = run_chaos_soak(
        soak_spec(FAST_SOAK, seed=seed, intensity=intensity), messages=24)
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()


def test_golden_timeline_is_pinned():
    schedule = NemesisSchedule.generate(GROUPS, seed=42, duration=10.0,
                                        profile="medium")
    digest = hashlib.sha256(schedule.describe().encode()).hexdigest()
    assert digest == GOLDEN_TIMELINE_SHA, (
        "nemesis generator draw order changed — seeds no longer reproduce "
        "old timelines:\n" + schedule.describe()
    )


def test_same_seed_same_soak_report():
    first = run_chaos_soak(FAST_SOAK.with_(seed=42), messages=24)
    second = run_chaos_soak(FAST_SOAK.with_(seed=42), messages=24)
    assert first == second  # dataclass equality: every post-mortem field
    assert first.ok


def test_same_seed_same_sim_delivery_order():
    def deliveries(seed):
        runtime = make_runtime("sim", seed=seed)
        install_chaos(runtime)
        dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                                runtime=runtime, costs=FAST_COSTS,
                                request_timeout=0.5)
        schedule = NemesisSchedule.for_deployment(dep, seed=seed, duration=3.0)
        schedule.apply(dep)
        client = dep.add_client("c1", retransmit_timeout=0.5)
        for index, dst in enumerate([("g1",), ("g2",), ("g1", "g2")] * 4):
            client.amulticast(destination(*dst), payload=("m", index))
        dep.run(until=schedule.horizon)
        runtime.run_until(lambda: client.pending() == 0, timeout=30.0)
        order = {
            gid: [m.payload for m in
                  dep.groups[gid].replicas[1].app.delivered_messages()]
            for gid in ("g1", "g2")
        }
        runtime.close()
        return order

    assert deliveries(9) == deliveries(9)
