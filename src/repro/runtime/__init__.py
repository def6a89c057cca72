"""Deployment environments and what is built on the scenario harness.

:mod:`repro.runtime.environments` holds the LAN/WAN presets (including the
paper's Table I inter-region latency matrix) and the calibrated cost
models.  Running one scenario — protocol × workload × environment — is
:func:`repro.scenario.run_scenario`; the modules here are its callers:
:mod:`~repro.runtime.scenarios` (one callable per figure of §V),
:mod:`~repro.runtime.capacity` (the K(x) probes) and
:mod:`~repro.runtime.chaos` (the invariant-checked soak), plus the
trace readers :mod:`~repro.runtime.tracing` and
:mod:`~repro.runtime.genuineness`.  Those are imported from their own
modules: the package re-exports only the environments, so a process that
just builds and runs a deployment does not load the harness code too.
"""

from repro.runtime.environments import (
    BENCH_SCALE,
    REGIONS,
    TABLE1_RTT_MS,
    bench_costs,
    calibrated_costs,
    lan_latency_model,
    scale_costs,
    wan_latency_model,
    wan_site_assigner,
)

__all__ = [
    "REGIONS",
    "TABLE1_RTT_MS",
    "BENCH_SCALE",
    "lan_latency_model",
    "wan_latency_model",
    "wan_site_assigner",
    "calibrated_costs",
    "bench_costs",
    "scale_costs",
]
