"""Unit tests for the actor base class (timers, CPU work, crash gating)."""

from __future__ import annotations

from functools import partial

import pytest

from repro.env.actor import Actor
from repro.env.simbackend import SimRuntime
from repro.errors import NetworkError


class Probe(Actor):
    """Records deliveries; with a ``receive_cost`` it charges that much CPU
    before handling one, the way replicas charge receive cost."""

    def __init__(self, name, runtime, receive_cost=0.0):
        super().__init__(name, runtime)
        self.receive_cost = receive_cost
        self.handled = []

    def on_message(self, src, payload):
        if self.receive_cost:
            self.work(self.receive_cost, partial(self.handle, src, payload))
        else:
            self.handle(src, payload)

    def handle(self, src, payload):
        self.handled.append((self.clock.now, src, payload))


def wired(receive_cost=0.0):
    runtime = SimRuntime(seed=0)
    a = Probe("a", runtime, receive_cost)
    b = Probe("b", runtime, receive_cost)
    runtime.transport.register(a)
    runtime.transport.register(b)
    return runtime.loop, a, b


class TestTimers:
    def test_timer_fires(self):
        loop, a, b = wired()
        fired = []
        a.set_timer(1.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [1.0]

    def test_cancelled_timer_does_not_fire(self):
        loop, a, b = wired()
        fired = []
        timer = a.set_timer(1.0, lambda: fired.append(1))
        timer.cancel()
        loop.run()
        assert fired == []

    def test_timer_suppressed_after_crash(self):
        loop, a, b = wired()
        fired = []
        a.set_timer(1.0, lambda: fired.append(1))
        a.crash()
        loop.run()
        assert fired == []


class TestWork:
    def test_work_serializes_on_cpu(self):
        loop, a, b = wired()
        done = []
        a.work(1.0, lambda: done.append(loop.now))
        a.work(0.5, lambda: done.append(loop.now))
        loop.run()
        assert done == [1.0, 1.5]

    def test_work_suppressed_after_crash(self):
        loop, a, b = wired()
        done = []
        a.work(1.0, lambda: done.append(1))
        a.crash()
        loop.run()
        assert done == []

    def test_recv_cpu_cost_delays_handling(self):
        loop, a, b = wired(receive_cost=0.5)
        a.send("b", "hello")
        loop.run()
        assert len(b.handled) == 1
        assert b.handled[0][0] >= 0.5


class TestCrashGating:
    def test_crashed_actor_does_not_send(self):
        loop, a, b = wired()
        a.crash()
        a.send("b", "x")
        loop.run()
        assert b.handled == []

    def test_crashed_actor_ignores_arrivals(self):
        loop, a, b = wired()
        a.send("b", "x")
        b.crash()
        loop.run()
        assert b.handled == []

    def test_a_recover_does_not_resurrect_pre_crash_work_or_timers(self):
        loop, a, b = wired()
        ran = []
        a.work(1.0, lambda: ran.append("work"))
        a.set_timer(1.0, lambda: ran.append("timer"))
        loop.schedule(0.5, a.crash)
        loop.schedule(0.6, lambda: setattr(a, "crashed", False))
        loop.run()
        assert ran == []
        # what is armed after the recover runs
        a.work(1.0, lambda: ran.append("work"))
        a.set_timer(1.0, lambda: ran.append("timer"))
        loop.run()
        assert ran == ["work", "timer"]

    def test_detached_actor_raises_on_send(self):
        loop, a, b = wired()
        orphan = Probe("orphan", a.runtime)  # built, never registered
        with pytest.raises(NetworkError):
            orphan.send("b", "x")

    def test_base_on_message_is_abstract(self):
        loop, a, b = wired()
        bare = Actor("bare", a.runtime)
        with pytest.raises(NotImplementedError):
            bare.on_message("a", "x")
