"""One callable per table/figure of the paper's evaluation (§V).

Each ``figN_*`` function is a set of :class:`~repro.scenario.ScenarioSpec`
literals — ByzCast, the Baseline and single-group BFT-SMaRt are one
``protocol.kind`` apart — run through :func:`~repro.scenario.run_scenario`
and returned as a plain dict of results.  The benchmark suite
(``benchmarks/``) asserts the paper's qualitative claims on these results;
``scripts/run_experiments.py`` renders them into ``EXPERIMENTS.md``.

All LAN experiments run on the ``bench`` cost model (every CPU cost
× :data:`~repro.runtime.environments.BENCH_SCALE`) with client counts
reduced accordingly and are reported through :func:`paper_scale`:
throughput multiplied and latencies divided by the scale, so numbers are
directly comparable with the paper's.  WAN experiments run on the
``calibrated`` model because inter-region latency dominates and rates are
low.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.runtime.environments import (
    BENCH_SCALE,
    REGIONS,
    wan_latency_model,
)
from repro.scenario import (
    ProtocolSpec,
    ScenarioResult,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)


def paper_scale(result: ScenarioResult) -> ScenarioResult:
    """A ``costs: "bench"`` result with rates and latencies at paper scale."""
    inv = 1.0 / BENCH_SCALE
    return replace(
        result,
        throughput=result.throughput * BENCH_SCALE,
        latency=result.latency.scaled(inv),
        local_latency=result.local_latency.scaled(inv),
        global_latency=result.global_latency.scaled(inv),
        samples=tuple(s * inv for s in result.samples),
        local_samples=tuple(s * inv for s in result.local_samples),
        global_samples=tuple(s * inv for s in result.global_samples),
    )


def lan_cell(name: str, kind: str, groups: int, clients: int, destinations: str,
             warmup: float, duration: float, layout: str = "two_level",
             fixed: Tuple[str, ...] = ()) -> ScenarioResult:
    """One LAN cell (§V-B1) on the bench cost model, at paper scale."""
    # depth 4 is what the figures were recorded at; ProtocolSpec defaults
    # to 1
    return paper_scale(run_scenario(ScenarioSpec(
        name=name,
        topology=TopologySpec(groups=groups, layout=layout, latency="lan"),
        workload=WorkloadSpec(clients=clients, destinations=destinations,
                              fixed=fixed, warmup=warmup, duration=duration),
        protocol=ProtocolSpec(kind=kind, max_in_flight=4, costs="bench"),
    )))


def _wan(name: str, kind: str, clients: int, destinations: str,
         warmup: float, duration: float,
         fixed: Tuple[str, ...] = ()) -> ScenarioResult:
    """One WAN cell (§V-B2/3): four groups, a replica and a client share
    per region, calibrated costs (paper scale as measured)."""
    return run_scenario(ScenarioSpec(
        name=name,
        topology=TopologySpec(groups=4, latency="wan", sites="wan_spread"),
        workload=WorkloadSpec(clients=clients, destinations=destinations,
                              fixed=fixed, warmup=warmup, duration=duration),
        protocol=ProtocolSpec(kind=kind, max_in_flight=4),
    ))


# =========================================================================
# Table I — the WAN latency matrix (validated against the simulated network)
# =========================================================================


def table1_wan_latency() -> Dict[Tuple[str, str], Dict[str, float]]:
    """Measure inter-region RTTs on the simulated WAN via ping actors.

    Returns {(region_a, region_b): {"paper_ms": .., "measured_ms": ..}}.
    """
    from repro.env import Actor
    from repro.env.simbackend import SimRuntime
    from repro.runtime.environments import TABLE1_RTT_MS

    runtime = SimRuntime(latency=wan_latency_model(jitter=0.0), seed=1)

    class Ping(Actor):
        def __init__(self, name):
            super().__init__(name, runtime)
            self.echoes: List[Tuple[str, float]] = []
            self.sent_at: Dict[str, float] = {}

        def ping(self, other: str) -> None:
            self.sent_at[other] = self.clock.now
            self.send(other, ("ping", self.name))

        def on_message(self, src, payload):
            kind = payload[0]
            if kind == "ping":
                self.send(src, ("pong", self.name))
            else:
                self.echoes.append((src, self.clock.now - self.sent_at[src]))

    actors = {}
    for region in REGIONS:
        actor = Ping(f"node-{region}")
        runtime.transport.register(actor, site=region)
        actors[region] = actor
    results: Dict[Tuple[str, str], Dict[str, float]] = {}
    for (a, b), paper_ms in TABLE1_RTT_MS.items():
        actors[a].ping(f"node-{b}")
        runtime.run()
        src, rtt = actors[a].echoes[-1]
        results[(a, b)] = {"paper_ms": paper_ms, "measured_ms": rtt * 1000.0}
    return results


# =========================================================================
# Figure 3 — overlay tree vs workload (2-level vs 3-level, uniform vs skewed)
# =========================================================================


def fig3_tree_layouts(uniform_clients: int = 30,
                      skewed_clients: int = 320,
                      warmup: float = 1.0,
                      duration: float = 4.0) -> Dict[str, ScenarioResult]:
    """Global-message throughput/latency for each (tree, workload) cell."""
    results = {}
    for tree_name, layout in (("2-level", "two_level"), ("3-level", "paper")):
        results[f"uniform/{tree_name}"] = lan_cell(
            f"fig3/uniform/{tree_name}", "byzcast", 4, uniform_clients,
            "global", warmup, duration, layout=layout)
        results[f"skewed/{tree_name}"] = lan_cell(
            f"fig3/skewed/{tree_name}", "byzcast", 4, skewed_clients,
            "skewed", warmup, duration, layout=layout)
    return results


# =========================================================================
# Figure 4 — LAN scalability: throughput vs number of groups
# =========================================================================


def fig4_scalability(group_counts: Sequence[int] = (2, 4, 8),
                     clients_per_group: int = 100,
                     warmup: float = 1.0,
                     duration: float = 2.5,
                     message_kind: str = "local") -> Dict[str, ScenarioResult]:
    """Fig 4(a) with ``message_kind='local'``, Fig 4(b) with ``'global'``.

    Mirrors the paper's setup: N clients per group (halved at 8 groups, as
    in §V-D), ByzCast on a 2-level tree, Baseline, and single-group
    BFT-SMaRt as the reference.
    """
    destinations = "home" if message_kind == "local" else "global"
    results: Dict[str, ScenarioResult] = {}
    for count in group_counts:
        per_group = clients_per_group // 2 if count >= 8 else clients_per_group
        for kind in ("byzcast", "baseline"):
            results[f"{kind}/{count}"] = lan_cell(
                f"fig4/{kind}/{count}", kind, count, per_group * count,
                destinations, warmup, duration)
    # Single-group BFT-SMaRt reference (one group ordering everything).
    results["bftsmart"] = lan_cell(
        "fig4/bftsmart", "bftsmart", 1, clients_per_group * 2, "fixed",
        warmup, duration, fixed=("g1",))
    return results


# =========================================================================
# Figure 5 — LAN throughput vs latency curves
# =========================================================================


def fig5_throughput_latency(client_counts: Sequence[int] = (4, 16, 64, 128),
                            message_kind: str = "local",
                            warmup: float = 1.0,
                            duration: float = 3.0,
                            ) -> Dict[str, List[ScenarioResult]]:
    """Latency-vs-throughput sweeps for ByzCast, Baseline and BFT-SMaRt.

    BFT-SMaRt's one group orders every message, whatever its destinations,
    so its curve is the same with either ``message_kind``.
    """
    curves = {
        kind: [lan_cell(f"fig5/{kind}/{count}", kind, 4, count, message_kind,
                        warmup, duration) for count in client_counts]
        for kind in ("byzcast", "baseline")
    }
    curves["bft-smart"] = [
        lan_cell(f"fig5/bft-smart/{count}", "bftsmart", 1, count, "fixed",
                 warmup, duration, fixed=("g1",))
        for count in client_counts]
    return curves


# =========================================================================
# Figure 6 — latency CDF with the 10:1 mixed workload (LAN)
# =========================================================================


def fig6_mixed_lan(clients: int = 40,
                   warmup: float = 1.0,
                   duration: float = 4.0) -> Dict[str, ScenarioResult]:
    """ByzCast vs Baseline under the 10:1 local:global mixed workload,
    plus a 100%-local ByzCast run for the convoy-effect comparison."""
    return {
        "byzcast": lan_cell("fig6/byzcast", "byzcast", 4, clients, "mixed",
                            warmup, duration),
        "baseline": lan_cell("fig6/baseline", "baseline", 4, clients, "mixed",
                             warmup, duration),
        "byzcast/pure-local": lan_cell("fig6/byzcast/pure-local", "byzcast", 4,
                                       clients, "local", warmup, duration),
    }


# =========================================================================
# Figure 7 — single-client latency, LAN
# =========================================================================


def fig7_latency_lan(group_counts: Sequence[int] = (2, 4, 8),
                     warmup: float = 0.5,
                     duration: float = 2.0) -> Dict[str, ScenarioResult]:
    """Median/95th latency with one client and no contention."""
    results: Dict[str, ScenarioResult] = {}
    for count in group_counts:
        for kind in ("byzcast", "baseline"):
            for label, dst in (("local", ("g1",)), ("global", ("g1", "g2"))):
                results[f"{kind}/{label}/{count}"] = lan_cell(
                    f"fig7/{kind}/{label}/{count}", kind, count, 1, "fixed",
                    warmup, duration, fixed=dst)
    results["bftsmart"] = lan_cell("fig7/bftsmart", "bftsmart", 1, 1, "fixed",
                                   warmup, duration, fixed=("g1",))
    return results


# =========================================================================
# Figure 8 — single-client latency, WAN
# =========================================================================


def fig8_latency_wan(warmup: float = 2.0,
                     duration: float = 8.0) -> Dict[str, ScenarioResult]:
    """One client per region, local and global messages, on the Table I WAN."""
    results = {
        f"{kind}/{destinations}": _wan(
            f"fig8/{kind}/{destinations}", kind, len(REGIONS), destinations,
            warmup, duration)
        for kind in ("byzcast", "baseline")
        for destinations in ("local", "global")
    }
    results["bftsmart"] = _wan("fig8/bftsmart", "bftsmart", len(REGIONS),
                               "fixed", warmup, duration, fixed=("g1",))
    return results


# =========================================================================
# Figures 9 & 10 — mixed workload in the WAN
# =========================================================================


def fig9_fig10_mixed_wan(clients_per_group: int = 10,
                         warmup: float = 3.0,
                         duration: float = 12.0) -> Dict[str, ScenarioResult]:
    """4 target groups, clients spread over the regions, 10:1 workload.

    The paper uses 40 clients per group; the default here is 10 per group
    (the WAN runs at paper-scale costs, so wall-clock time bounds the
    count — ratios are unaffected).
    """
    return {
        kind: _wan(f"fig9/{kind}", kind, clients_per_group * 4, "mixed",
                   warmup, duration)
        for kind in ("byzcast", "baseline")
    }
