"""Chaos-transport conformance: identical semantics on every backend.

Each test wraps the backend's transport in a :class:`ChaosTransport` via
:func:`install_chaos` and verifies the injected-fault semantics — drops,
duplication, corruption, burst windows, targeted delays, link flapping and
partition delegation — behave the same over the deterministic simulator,
the real-time in-process queue and (``tcp``) one TcpTransport host: the
ChaosTransport is the only way any of them loses a message.  Rates are
pinned to 0 or 1 where the assertion must be exact on every transport.
"""

from __future__ import annotations

import pytest

from repro.env import Actor, make_runtime
from repro.env.chaos import ChaosConfig, ChaosTransport, corrupt_payload, install_chaos
from repro.env.tcp import TcpTransport

@pytest.fixture(params=["sim", "rt", "tcp"])
def runtime(request):
    if request.param == "tcp":
        rt = make_runtime("rt", seed=11, transport_factory=TcpTransport)
    else:
        rt = make_runtime(request.param, seed=11)
    yield rt
    rt.close()


@pytest.fixture
def chaos(runtime):
    return install_chaos(runtime, ChaosConfig())


class Probe(Actor):
    def __init__(self, name, runtime):
        super().__init__(name, runtime)
        self.got = []

    def on_message(self, src, payload):
        self.got.append((src, payload))


def wire(runtime, chaos, names=("a", "b")):
    probes = [Probe(name, runtime) for name in names]
    for probe in probes:
        chaos.register(probe)
    return probes


def test_install_chaos_wraps_in_place(runtime, chaos):
    assert runtime.transport is chaos
    assert isinstance(chaos, ChaosTransport)
    a, = wire(runtime, chaos, names=("a",))
    # Registration must re-attach the actor to the chaos layer, not the
    # inner transport, or sends would bypass injection entirely.
    assert a.network is chaos
    assert chaos.endpoints() == ("a",)
    assert chaos.site_of("a") == "site0"


def test_chaos_off_is_passthrough(runtime, chaos):
    a, b = wire(runtime, chaos)
    runtime.clock.schedule(0.0, lambda: [a.send("b", ("m", i)) for i in range(10)])
    runtime.run(until=0.2)
    assert b.got == [("a", ("m", i)) for i in range(10)]
    assert not any(k.startswith("chaos.") for k in runtime.monitor.counters)


def test_drop_rate_one_drops_everything(runtime, chaos):
    a, b = wire(runtime, chaos)
    chaos.config.drop_rate = 1.0
    runtime.clock.schedule(0.0, lambda: [a.send("b", i) for i in range(7)])
    runtime.run(until=0.2)
    assert b.got == []
    assert runtime.monitor.counters["chaos.dropped"] == 7
    assert runtime.monitor.counters.get("net.sent", 0) == 0  # never reached inner


def test_dup_rate_one_delivers_twice_in_order(runtime, chaos):
    a, b = wire(runtime, chaos)
    chaos.config.dup_rate = 1.0
    runtime.clock.schedule(0.0, lambda: [a.send("b", i) for i in range(5)])
    runtime.run(until=0.2)
    assert b.got == [("a", i) for i in range(5) for _ in (0, 1)]
    assert runtime.monitor.counters["chaos.duplicated"] == 5


def test_corrupt_rate_one_flips_bytes_fields(runtime, chaos):
    a, b = wire(runtime, chaos)
    chaos.config.corrupt_rate = 1.0
    original = ("tagged", b"\x00\x00\x00\x00")
    runtime.clock.schedule(0.0, lambda: a.send("b", original))
    runtime.run(until=0.2)
    assert len(b.got) == 1
    _, delivered = b.got[0]
    assert delivered != original            # exactly one bit differs
    assert delivered[0] == "tagged"
    assert len(delivered[1]) == 4
    assert runtime.monitor.counters["chaos.corrupted"] == 1


def test_uncorruptible_payload_is_dropped_instead(runtime, chaos):
    a, b = wire(runtime, chaos)
    chaos.config.corrupt_rate = 1.0
    runtime.clock.schedule(0.0, lambda: a.send("b", ("no-bytes-here", 42)))
    runtime.run(until=0.2)
    assert b.got == []
    assert runtime.monitor.counters["chaos.dropped"] == 1
    assert runtime.monitor.counters.get("chaos.corrupted", 0) == 0


def test_burst_window_elevates_then_restores(runtime, chaos):
    a, b = wire(runtime, chaos)

    def phase1():
        chaos.burst(0.05, drop_rate=1.0)
        a.send("b", "during-burst")

    runtime.clock.schedule(0.0, phase1)
    runtime.clock.schedule(0.1, lambda: a.send("b", "after-burst"))
    runtime.run(until=0.3)
    assert b.got == [("a", "after-burst")]
    assert chaos.config.drop_rate == 0.0
    assert runtime.monitor.counters["chaos.burst"] == 1
    assert runtime.monitor.counters["chaos.dropped"] == 1


def test_burst_rejects_unknown_rate(runtime, chaos):
    with pytest.raises(ValueError):
        chaos.burst(0.1, latency_rate=1.0)


def test_delay_endpoint_slows_traffic(runtime, chaos):
    a, b = wire(runtime, chaos)
    arrivals = []

    class Clocked(Probe):
        def on_message(self, src, payload):
            arrivals.append(runtime.clock.now)
            super().on_message(src, payload)

    c = Clocked("c", runtime)
    chaos.register(c)
    chaos.delay_endpoint("c", 0.05)
    runtime.clock.schedule(0.0, lambda: a.send("c", "slow"))
    runtime.run(until=0.5)
    assert c.got == [("a", "slow")]
    assert arrivals and arrivals[0] >= 0.045
    chaos.clear_delay("c")
    chaos.clear_delay("c")  # idempotent


def test_partition_delegates_to_inner(runtime, chaos):
    a, b = wire(runtime, chaos)
    chaos.partition("a", "b")

    def phase():
        a.send("b", "lost")
        chaos.heal("a", "b")
        a.send("b", "delivered")

    runtime.clock.schedule(0.0, phase)
    runtime.run(until=0.2)
    assert b.got == [("a", "delivered")]
    assert runtime.monitor.counters["net.partitioned"] == 1


def test_partition_during_delayed_flight(runtime, chaos):
    """A message held back by chaos jitter hits a partition raised after
    the send: it must be dropped by the *inner* transport (and counted),
    matching what a real in-flight packet meeting a fresh partition does."""
    a, b = wire(runtime, chaos)
    chaos.delay_endpoint("b", 0.05)
    runtime.clock.schedule(0.0, lambda: a.send("b", "in-flight"))
    runtime.clock.schedule(0.01, lambda: chaos.partition("a", "b"))
    runtime.run(until=0.3)
    assert b.got == []
    assert runtime.monitor.counters["net.partitioned"] == 1


def test_flap_link_cycles_and_ends_healed(runtime, chaos):
    a, b = wire(runtime, chaos)
    chaos.flap_link("a", "b", period=0.02, cycles=2)
    # Send during the first down phase and again after flapping ends.
    runtime.clock.schedule(0.01, lambda: a.send("b", "while-down"))
    runtime.clock.schedule(0.2, lambda: a.send("b", "after-flap"))
    runtime.run(until=0.4)
    assert b.got == [("a", "after-flap")]
    assert runtime.monitor.counters["chaos.flap"] == 2
    assert runtime.monitor.counters["net.partitioned"] == 1


def test_calm_resets_rates_and_delays(runtime, chaos):
    chaos.config.drop_rate = 1.0
    chaos.config.corrupt_rate = 0.5
    chaos.delay_endpoint("a", 1.0)
    chaos.calm()
    assert chaos.config.drop_rate == 0.0
    assert chaos.config.corrupt_rate == 0.0
    assert chaos._endpoint_delay == {}
    a, b = wire(runtime, chaos)
    runtime.clock.schedule(0.0, lambda: a.send("b", "clean"))
    runtime.run(until=0.2)
    assert b.got == [("a", "clean")]


def test_same_seed_same_chaos_decisions():
    """The chaos stream is seeded: same seed, same drop pattern (sim)."""

    def pattern(seed):
        runtime = make_runtime("sim", seed=seed)
        chaos = install_chaos(runtime, ChaosConfig(drop_rate=0.5))
        a, b = wire(runtime, chaos)
        runtime.clock.schedule(0.0, lambda: [a.send("b", i) for i in range(40)])
        runtime.run(until=1.0)
        runtime.close()
        return [payload for _, payload in b.got]

    assert pattern(3) == pattern(3)
    assert pattern(3) != pattern(4)


def test_corrupt_payload_helper():
    import random

    rng = random.Random(1)
    payload, ok = corrupt_payload(("x", 1), rng)
    assert not ok and payload == ("x", 1)
    original = ("sig", b"\xaa\xbb", (b"\xcc",))
    mutated, ok = corrupt_payload(original, rng)
    assert ok and mutated != original
    # Exactly one bytes leaf changed, and by exactly one bit.
    changed = [(a, b) for a, b in zip(original, mutated) if a != b]
    assert len(changed) == 1
