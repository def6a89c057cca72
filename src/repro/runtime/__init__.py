"""Deployment environments and what is built on the scenario harness.

:mod:`repro.runtime.environments` holds the LAN/WAN presets (including the
paper's Table I inter-region latency matrix) and the calibrated cost
models.  Running one scenario — protocol × workload × environment — is
:func:`repro.scenario.run_scenario`; the modules here are its callers:
:mod:`~repro.runtime.scenarios` (one callable per figure of §V),
:mod:`~repro.runtime.capacity` (the K(x) probes) and
:mod:`~repro.runtime.chaos` (the invariant-checked soak), plus the
trace readers :mod:`~repro.runtime.tracing` and
:mod:`~repro.runtime.genuineness`.
"""

from repro.runtime.environments import (
    BENCH_SCALE,
    REGIONS,
    TABLE1_RTT_MS,
    bench_batch_delay,
    bench_costs,
    calibrated_costs,
    lan_network_config,
    scale_costs,
    wan_network_config,
    wan_site_assigner,
)
from repro.runtime.capacity import (
    estimate_relay_capacity,
    estimate_target_capacity,
    plan_tree,
)
from repro.runtime.genuineness import (
    GenuinenessReport,
    audit_genuineness,
)
from repro.runtime.tracing import (
    MessageTimeline,
    extract_timelines,
    format_timeline,
    latency_breakdown,
)
from repro.runtime.chaos import (
    DEFAULT_SOAK,
    ChaosReport,
    run_chaos_soak,
)

__all__ = [
    "REGIONS",
    "TABLE1_RTT_MS",
    "BENCH_SCALE",
    "lan_network_config",
    "wan_network_config",
    "wan_site_assigner",
    "calibrated_costs",
    "bench_batch_delay",
    "bench_costs",
    "scale_costs",
    "estimate_target_capacity",
    "estimate_relay_capacity",
    "plan_tree",
    "GenuinenessReport",
    "audit_genuineness",
    "MessageTimeline",
    "extract_timelines",
    "format_timeline",
    "latency_breakdown",
    "DEFAULT_SOAK",
    "ChaosReport",
    "run_chaos_soak",
]
