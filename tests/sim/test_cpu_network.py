"""Unit tests for CPU queues, latency models, and the network."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.env.actor import Actor
from repro.env.simbackend import SimRuntime
from repro.errors import NetworkError
from repro.sim.cpu import CpuQueue
from repro.sim.events import EventLoop
from repro.sim.latency import ConstantLatency, JitterLatency, MatrixLatency
from repro.sim.rng import SeededRng


class Sink(Actor):
    def __init__(self, name, runtime):
        super().__init__(name, runtime)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((self.clock.now, src, payload))


def wired_pair(latency=None, sites=("site0", "site0")):
    runtime = SimRuntime(latency, seed=1)
    network = runtime.network
    a, b = Sink("a", runtime), Sink("b", runtime)
    network.register(a, site=sites[0])
    network.register(b, site=sites[1])
    return runtime.loop, network, a, b


class TestCpuQueue:
    def test_jobs_serialize(self):
        loop = EventLoop()
        cpu = CpuQueue(loop)
        done = []
        cpu.submit(1.0, lambda: done.append(loop.now))
        cpu.submit(0.5, lambda: done.append(loop.now))
        loop.run()
        assert done == [1.0, 1.5]

    def test_idle_gap_not_counted_as_busy(self):
        loop = EventLoop()
        cpu = CpuQueue(loop)
        cpu.submit(1.0, lambda: None)
        loop.run()
        loop.schedule(5.0, lambda: cpu.submit(1.0, lambda: None))
        loop.run()
        assert cpu.utilization(elapsed=7.0) == pytest.approx(2.0 / 7.0)

    def test_backlog(self):
        loop = EventLoop()
        cpu = CpuQueue(loop)
        cpu.submit(2.0, lambda: None)
        assert cpu.backlog == pytest.approx(2.0)

    def test_negative_service_time_rejected(self):
        cpu = CpuQueue(EventLoop())
        with pytest.raises(ValueError):
            cpu.submit(-1.0, lambda: None)


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.01)
        assert model.delay("x", "y", random.Random(0)) == 0.01

    def test_jitter_within_bounds(self):
        model = JitterLatency(0.001, jitter=0.2)
        rng = random.Random(42)
        for _ in range(100):
            delay = model.delay("x", "y", rng)
            assert 0.0008 <= delay <= 0.0012

    def test_matrix_symmetric_fill(self):
        model = MatrixLatency({("A", "B"): 0.05}, local=0.0001, jitter=0.0)
        rng = random.Random(0)
        assert model.delay("A", "B", rng) == 0.05
        assert model.delay("B", "A", rng) == 0.05
        assert model.delay("A", "A", rng) == 0.0001

    def test_matrix_unknown_pair_raises(self):
        model = MatrixLatency({("A", "B"): 0.05}, jitter=0.0)
        with pytest.raises(KeyError):
            model.delay("A", "C", random.Random(0))

    def test_matrix_sampler_of_an_unknown_pair_raises_at_the_draw(self):
        draw = MatrixLatency({("A", "B"): 0.05}).sampler(
            "A", "C", random.Random(0))
        with pytest.raises(KeyError):
            draw()

    @given(seed=st.integers(0, 2**32 - 1),
           sites=st.sampled_from([("A", "A"), ("A", "B"), ("B", "C")]),
           model=st.sampled_from([
               ConstantLatency(0.01),
               JitterLatency(0.00005, 0.2), JitterLatency(0.001, 0.0),
               MatrixLatency({("A", "B"): 0.05, ("B", "C"): 0.08,
                              ("A", "C"): 0.1}),
               MatrixLatency({("A", "B"): 0.05, ("B", "C"): 0.08,
                              ("A", "C"): 0.1}, jitter=0.0),
           ]))
    def test_sampler_draws_what_delay_draws(self, seed, sites, model):
        """A link's closure yields ``delay()``'s sequence, float for
        float, from the same seed."""
        by_delay, by_sampler = random.Random(seed), random.Random(seed)
        draw = model.sampler(*sites, by_sampler)
        for __ in range(50):
            assert draw() == model.delay(*sites, by_delay)
        assert by_sampler.getstate() == by_delay.getstate()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)
        with pytest.raises(ValueError):
            JitterLatency(-1.0)
        with pytest.raises(ValueError):
            MatrixLatency({("A", "B"): -0.1})


class TestNetwork:
    def test_delivery_with_latency(self):
        loop, network, a, b = wired_pair(ConstantLatency(0.25))
        a.send("b", "hello")
        loop.run()
        assert b.received == [(0.25, "a", "hello")]

    def test_a_swapped_config_applies_its_latency_to_used_links(self):
        loop, network, a, b = wired_pair(ConstantLatency(0.25))
        a.send("b", "before")
        loop.run()
        network.latency = ConstantLatency(0.5)
        a.send("b", "after")
        loop.run()
        assert b.received == [(0.25, "a", "before"), (0.75, "a", "after")]

    def test_unknown_destination_raises(self):
        loop, network, a, b = wired_pair()
        with pytest.raises(NetworkError):
            a.send("nobody", "x")

    def test_duplicate_registration_rejected(self):
        loop, network, a, b = wired_pair()
        with pytest.raises(NetworkError):
            network.register(Sink("a", a.runtime))

    def test_partition_blocks_and_heals(self):
        loop, network, a, b = wired_pair()
        network.partition("a", "b")
        a.send("b", "lost")
        loop.run()
        assert b.received == []
        network.heal("a", "b")
        a.send("b", "found")
        loop.run()
        assert [p for __, __, p in b.received] == ["found"]

    def test_site_partition(self):
        loop, network, a, b = wired_pair(sites=("east", "west"))
        network.partition("east", "west", sites=True)
        a.send("b", "lost")
        loop.run()
        assert b.received == []

    def test_crashed_actor_neither_sends_nor_receives(self):
        loop, network, a, b = wired_pair()
        a.send("b", "before")
        b.crash()
        a.send("b", "after")
        loop.run()
        assert b.received == []
        b.crashed = False
        a.crash()
        a.send("b", "never")
        loop.run()
        assert b.received == []


class TestRng:
    def test_streams_independent_and_deterministic(self):
        r1, r2 = SeededRng(5), SeededRng(5)
        assert r1.stream("a").random() == r2.stream("a").random()
        assert r1.stream("a").random() != r1.stream("b").random()

    def test_stream_identity_cached(self):
        rng = SeededRng(1)
        assert rng.stream("x") is rng.stream("x")
