"""Execution-environment abstraction: the protocol stack's only runtime API.

``repro.env`` decouples the ByzCast protocol stack from any particular
execution substrate.  Protocol modules (``repro.bcast``, ``repro.core``,
``repro.workload``) import *only* from here — never from ``repro.sim``
directly (enforced by ``tests/env/test_import_hygiene.py``) — so the same
replicas, clients and applications run under:

* the **deterministic simulator** (default):
  ``make_runtime("sim", seed=...)`` — virtual time, calibrated CPU costs,
  latency models, bit-identical traces per seed;
* the **real-time asyncio runtime**:
  ``make_runtime("rt")`` — wall-clock timers, in-process queue or TCP
  transports, no CPU modeling.

Every actor is built on a :class:`Runtime` — ``Actor(name, runtime)`` —
and takes its clock, CPU executor, transport and monitor from it.

Shared building blocks (:class:`Actor`, :class:`Monitor`) live here;
sim-flavoured configuration types (the latency models,
:class:`SeededRng`) are re-exported lazily so that importing
``repro.env`` never drags in a backend.
"""

from repro.env.api import (
    Clock,
    Executor,
    Runtime,
    TimerHandle,
    Transport,
)
from repro.env.monitor import Monitor, TraceRecord
from repro.env.actor import Actor

#: names re-exported lazily from the simulation kernel (shared config/value
#: types usable by either backend — latency models are pure samplers) and
#: from optional env extensions (the chaos layer).
_LAZY_REEXPORTS = {
    "ChaosConfig": "repro.env.chaos",
    "ChaosTransport": "repro.env.chaos",
    "install_chaos": "repro.env.chaos",
    "LatencyModel": "repro.sim.latency",
    "ConstantLatency": "repro.sim.latency",
    "JitterLatency": "repro.sim.latency",
    "MatrixLatency": "repro.sim.latency",
    "SeededRng": "repro.sim.rng",
}

#: backend name → (module, class); the names the scenario schema knows
BACKENDS = {
    "sim": ("repro.env.simbackend", "SimRuntime"),
    "rt": ("repro.env.rtbackend", "RealtimeRuntime"),
}


def make_runtime(backend: str = "sim", **kwargs) -> Runtime:
    """Build an execution runtime by backend name.

    >>> runtime = make_runtime("sim", seed=7)
    >>> runtime.deterministic
    True
    """
    import importlib

    try:
        module_name, class_name = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"choose one of {sorted(BACKENDS)}"
        ) from None
    module = importlib.import_module(module_name)
    return getattr(module, class_name)(**kwargs)


def __getattr__(name):
    module_name = _LAZY_REEXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Actor",
    "Clock",
    "Executor",
    "Monitor",
    "Runtime",
    "TimerHandle",
    "TraceRecord",
    "Transport",
    "make_runtime",
    "BACKENDS",
    *sorted(_LAZY_REEXPORTS),
]
