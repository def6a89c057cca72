"""Backend-conformance suite: every backend honours the env contracts.

Each test runs against both the deterministic simulation backend and the
real-time asyncio backend, verifying the behavioural contracts documented
in :mod:`repro.env.api`: timer ordering, cancellation, FIFO executors,
per-link FIFO transport delivery, crash semantics and endpoint
registration errors.  Real-time runs use millisecond-scale delays so the
whole suite stays fast.
"""

from __future__ import annotations

import asyncio
from functools import partial

import pytest

from repro.env import Actor, Runtime, make_runtime
from repro.env.rtbackend import DRAIN_SLICE, RealtimeRuntime
from repro.env.simbackend import SimRuntime
from repro.env.tcp import TcpTransport
from repro.errors import NetworkError, SimulationError
from tests.env.test_realtime_e2e import HostPerActor

BACKENDS = ["sim", "rt"]


@pytest.fixture(params=BACKENDS)
def runtime(request):
    rt = make_runtime(request.param, seed=7)
    yield rt
    rt.close()


@pytest.fixture(params=[*BACKENDS, "tcp"])
def linked(request):
    """A runtime per transport: the simulator's Network, the in-process
    queue and (``tcp``) one TcpTransport host — the three share one link
    table, which the registration and partition cases pin."""
    if request.param == "tcp":
        rt = make_runtime("rt", seed=7, transport_factory=TcpTransport)
    else:
        rt = make_runtime(request.param, seed=7)
    yield rt
    rt.close()


def charge_then(actor, cost, handle, *args):
    """Handle a delivery the way replicas charge receive cost: as a CPU job
    of ``cost`` seconds when ``cost`` is positive, inline otherwise."""
    if cost:
        actor.work(cost, partial(handle, *args))
    else:
        handle(*args)


class Probe(Actor):
    """Records every delivered message, after ``receive_cost`` of CPU."""

    def __init__(self, name, runtime, receive_cost=0.0):
        super().__init__(name, runtime)
        self.receive_cost = receive_cost
        self.got = []

    def on_message(self, src, payload):
        charge_then(self, self.receive_cost, self.got.append, (src, payload))


def test_make_runtime_backends():
    sim = make_runtime("sim")
    assert isinstance(sim, SimRuntime) and sim.deterministic
    rt = make_runtime("rt")
    assert isinstance(rt, RealtimeRuntime) and not rt.deterministic
    rt.close()
    for unknown in ("no-such-backend", "asyncio"):
        with pytest.raises(ValueError):
            make_runtime(unknown)


def test_runtime_interface(runtime):
    assert isinstance(runtime, Runtime)
    assert runtime.clock is not None
    assert runtime.transport is not None
    assert runtime.monitor is not None


# -- Clock ------------------------------------------------------------------


def test_timers_fire_in_deadline_order(runtime):
    fired = []
    runtime.clock.schedule(0.030, lambda: fired.append("late"))
    runtime.clock.schedule(0.010, lambda: fired.append("early"))
    runtime.clock.schedule(0.020, lambda: fired.append("mid"))
    runtime.run(until=0.2)
    assert fired == ["early", "mid", "late"]


def test_timer_ties_fire_in_scheduling_order(runtime):
    fired = []
    for label in range(5):
        runtime.clock.schedule(0.010, lambda label=label: fired.append(label))
    runtime.run(until=0.2)
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_timer_never_fires(runtime):
    fired = []
    keep = runtime.clock.schedule(0.010, lambda: fired.append("keep"))
    drop = runtime.clock.schedule(0.010, lambda: fired.append("drop"))
    drop.cancel()
    drop.cancel()  # idempotent
    runtime.run(until=0.2)
    assert fired == ["keep"]
    assert keep is not None


def test_negative_delay_rejected(runtime):
    with pytest.raises(SimulationError):
        runtime.clock.schedule(-0.5, lambda: None)


def test_clock_advances(runtime):
    before = runtime.clock.now
    seen = []
    runtime.clock.schedule(0.020, lambda: seen.append(runtime.clock.now))
    runtime.run(until=0.2)
    assert seen and seen[0] >= before + 0.015


def test_schedule_at_absolute_time(runtime):
    fired = []
    runtime.clock.schedule_at(runtime.clock.now + 0.015, lambda: fired.append(1))
    runtime.run(until=0.2)
    assert fired == [1]


def test_stop_ends_run_early(runtime):
    fired = []
    runtime.clock.schedule(0.005, lambda: (fired.append("a"), runtime.stop()))
    runtime.clock.schedule(10.0, lambda: fired.append("far-future"))
    runtime.run(until=20.0)
    assert fired == ["a"]


def test_run_until_predicate(runtime):
    box = []
    runtime.clock.schedule(0.02, lambda: box.append(1))
    assert runtime.run_until(lambda: bool(box), timeout=1.0, poll=0.01)
    assert not runtime.run_until(lambda: len(box) > 99, timeout=0.05, poll=0.01)


# -- Executor ---------------------------------------------------------------


def test_executor_completes_jobs_fifo(runtime):
    cpu = runtime.create_executor()
    done = []
    # Service times deliberately out of order: FIFO queueing must win.
    for index, cost in enumerate([0.003, 0.001, 0.002, 0.0005]):
        cpu.submit(cost, lambda index=index: done.append(index))
    runtime.run(until=0.2)
    assert done == [0, 1, 2, 3]
    assert cpu.backlog >= 0.0
    assert 0.0 <= cpu.utilization(1.0) <= 1.0


class Sink:
    """Callback targets that are not closures."""

    def __init__(self):
        self.log = []

    def first(self):
        self.log.append("bound")

    def note(self, label):
        self.log.append(label)


def test_executor_completes_bound_method_and_partial_jobs_fifo(runtime):
    cpu = runtime.create_executor()
    sink = Sink()
    cpu.submit(0.003, sink.first)
    cpu.submit(0.001, partial(sink.note, "partial"))
    cpu.submit(0.0, partial(sink.log.append, "builtin partial"))
    cpu.submit(0.002, sink.first)
    runtime.run(until=0.2)
    assert sink.log == ["bound", "partial", "builtin partial", "bound"]


def test_executor_without_an_owner_runs_every_job(runtime):
    cpu = runtime.create_executor()
    done = []
    for index in range(5):
        cpu.submit(0.001, partial(done.append, index))
    runtime.run(until=0.2)
    assert done == list(range(5))


def test_crashed_owners_queued_jobs_never_run_even_after_a_recover(runtime):
    a = Probe("a", runtime)
    runtime.transport.register(a)
    done = []

    def crash_recover_resubmit():
        a.work(0.010, partial(done.append, "queued before the crash"))
        a.work(0.0, partial(done.append, "also queued"))
        a.crash()
        a.crashed = False  # recovered before either job's turn
        a.work(0.010, partial(done.append, "submitted after the recover"))

    runtime.clock.schedule(0.0, crash_recover_resubmit)
    runtime.run(until=0.2)
    assert done == ["submitted after the recover"]
    assert a.cpu.jobs_done == 3


def test_executor_rejects_negative_service_time(runtime):
    cpu = runtime.create_executor()
    with pytest.raises(ValueError):
        cpu.submit(-1.0, lambda: None)


# -- Transport --------------------------------------------------------------


def test_transport_per_link_fifo(linked):
    runtime = linked
    a = Probe("a", runtime)
    b = Probe("b", runtime)
    runtime.transport.register(a)
    runtime.transport.register(b)
    runtime.clock.schedule(
        0.0, lambda: [a.send("b", ("msg", i)) for i in range(20)]
    )
    runtime.run(until=0.2)
    assert b.got == [("a", ("msg", i)) for i in range(20)]


def test_transport_unknown_endpoint_raises(linked):
    runtime = linked
    a = Probe("a", runtime)
    runtime.transport.register(a)
    with pytest.raises(NetworkError):
        runtime.transport.send("a", "ghost", "x")
    with pytest.raises(NetworkError):
        runtime.transport.send("ghost", "a", "x")


def test_unregistered_actor_cannot_send(linked):
    runtime = linked
    runtime.transport.register(Probe("a", runtime))
    orphan = Probe("orphan", runtime)  # built on the runtime, not registered
    with pytest.raises(NetworkError):
        orphan.send("a", "x")


def test_transport_duplicate_registration_raises(linked):
    runtime = linked
    a = Probe("a", runtime)
    runtime.transport.register(a)
    with pytest.raises(NetworkError):
        runtime.transport.register(Probe("a", runtime))
    assert runtime.transport.endpoints() == ("a",)


def test_transport_sites_recorded(linked):
    runtime = linked
    a = Probe("a", runtime)
    runtime.transport.register(a, site="zurich")
    assert runtime.transport.site_of("a") == "zurich"


def test_partition_blocks_and_heal_restores(linked):
    runtime = linked
    a = Probe("a", runtime)
    b = Probe("b", runtime)
    runtime.transport.register(a)
    runtime.transport.register(b)
    runtime.transport.partition("a", "b")

    def phase1():
        a.send("b", "lost")
        b.send("a", "lost-too")
        runtime.transport.heal("a", "b")
        a.send("b", "delivered")

    runtime.clock.schedule(0.0, phase1)
    runtime.run(until=0.2)
    assert b.got == [("a", "delivered")]
    assert a.got == []
    assert runtime.monitor.counters["net.partitioned"] == 2


def test_site_partition_blocks_and_heal_all_restores(linked):
    runtime = linked
    a, b, c = (Probe(name, runtime) for name in "abc")
    runtime.transport.register(a, site="east")
    runtime.transport.register(b, site="west")
    runtime.transport.register(c, site="east")
    runtime.transport.partition("east", "west", sites=True)
    runtime.transport.partition("a", "c")

    def phase():
        a.send("b", "lost across sites")
        b.send("c", "lost across sites too")
        a.send("c", "lost on the pair")
        runtime.transport.heal_all()
        a.send("b", "healed")
        a.send("c", "healed")

    runtime.clock.schedule(0.0, phase)
    runtime.run(until=0.2)
    assert b.got == [("a", "healed")]
    assert c.got == [("a", "healed")]
    assert runtime.monitor.counters["net.partitioned"] == 3


# -- Crash semantics --------------------------------------------------------


def test_timer_set_before_crash_does_not_fire(runtime):
    a = Probe("a", runtime)
    runtime.transport.register(a)
    fired = []
    a.set_timer(0.020, lambda: fired.append("boom"))
    runtime.clock.schedule(0.005, a.crash)
    runtime.run(until=0.2)
    assert fired == []
    assert a.crashed


def test_timer_set_before_a_crash_never_fires_even_after_a_recover(runtime):
    a = Probe("a", runtime)
    runtime.transport.register(a)
    fired = []
    a.set_timer(0.030, partial(fired.append, "armed before the crash"))
    runtime.clock.schedule(0.010, a.crash)

    def recover():
        a.crashed = False
        a.set_timer(0.005, partial(fired.append, "armed after the recover"))

    runtime.clock.schedule(0.020, recover)
    runtime.run(until=0.2)
    assert fired == ["armed after the recover"]


def test_message_in_cpu_queue_at_crash_is_dropped(runtime):
    # A receive cost puts handling through the CPU queue; crashing after
    # transport delivery but before the CPU job runs must drop the message.
    a = Probe("a", runtime, receive_cost=0.010)
    b = Probe("b", runtime)
    runtime.transport.register(a)
    runtime.transport.register(b)

    def deliver_then_crash():
        b.send("a", "in-flight")
        a.crash()  # the receive is queued on a's CPU by now (or will be)

    runtime.clock.schedule(0.0, deliver_then_crash)
    runtime.run(until=0.2)
    assert a.got == []


def test_crashed_actor_neither_sends_nor_receives(runtime):
    a = Probe("a", runtime)
    b = Probe("b", runtime)
    runtime.transport.register(a)
    runtime.transport.register(b)

    def phase():
        a.crash()
        a.send("b", "never")
        b.send("a", "ignored")

    runtime.clock.schedule(0.0, phase)
    runtime.run(until=0.2)
    assert b.got == []
    assert a.got == []


def test_work_after_crash_does_not_run(runtime):
    a = Probe("a", runtime)
    runtime.transport.register(a)
    done = []
    runtime.clock.schedule(0.0, lambda: (a.work(0.010, lambda: done.append(1)),
                                         a.crash()))
    runtime.run(until=0.2)
    assert done == []


# -- The rt ready queue -----------------------------------------------------
#
# One FIFO per RealtimeRuntime carries every executor job and every
# zero-delay in-process delivery (repro.env.rtbackend).  Its contract is
# stated in counts and order, never in wall time.


@pytest.fixture
def rt():
    runtime = make_runtime("rt", seed=7)
    yield runtime
    runtime.close()


class Journal(Actor):
    """Appends what it receives to a log shared between actors, after
    ``receive_cost`` of CPU."""

    def __init__(self, name, runtime, log):
        super().__init__(name, runtime)
        self.log = log
        self.receive_cost = 0.0

    def on_message(self, src, payload):
        charge_then(self, self.receive_cost, self.log.append, payload)


def journals(runtime, names):
    log = []
    actors = [Journal(name, runtime, log) for name in names]
    for actor in actors:
        runtime.transport.register(actor)
    return log, actors


def test_ready_queue_is_one_fifo_across_actors_links_and_executors(rt):
    log, (a, b, c) = journals(rt, "abc")

    def burst():
        a.send("b", 0)
        c.work(0.004, lambda: log.append(1))
        b.send("c", 2)
        a.work(0.001, lambda: log.append(3))
        c.send("a", 4)
        a.send("b", 5)
        b.work(0.0, lambda: log.append(6))

    rt.clock.schedule(0.0, burst)
    rt.run(until=0.2)
    assert log == [0, 1, 2, 3, 4, 5, 6]


def test_entry_pushed_from_inside_an_entry_runs_after_all_queued(rt):
    log, (a, b) = journals(rt, "ab")

    def first():
        log.append("first")
        a.work(0.0, lambda: log.append("nested job"))
        a.send("b", "nested delivery")

    def burst():
        a.work(0.0, first)
        b.work(0.0, lambda: log.append("second"))
        a.send("b", "third")

    rt.clock.schedule(0.0, burst)
    rt.run(until=0.2)
    assert log == ["first", "second", "third", "nested job",
                   "nested delivery"]


def test_stop_from_an_entry_leaves_the_rest_for_the_next_run(rt):
    log, (a, b) = journals(rt, "ab")

    def burst():
        a.work(0.0, lambda: log.append(0))
        a.send("b", 1)
        b.work(0.0, lambda: (log.append(2), rt.stop()))
        a.send("b", 3)
        b.work(0.0, lambda: log.append(4))
        a.work(0.0, lambda: a.send("b", 5))

    rt.clock.schedule(0.0, burst)
    rt.run(until=5.0)
    assert log == [0, 1, 2]
    rt.run(until=rt.clock.now + 0.1)
    assert log == [0, 1, 2, 3, 4, 5]


def test_raising_entry_neither_drops_nor_reorders_what_is_behind_it(rt):
    log, (a, b) = journals(rt, "ab")
    reported = []
    rt.asyncio_loop.set_exception_handler(
        lambda loop, context: reported.append(context["exception"]))

    def explode():
        raise KeyError("boom")

    def burst():
        a.work(0.0, lambda: log.append(0))
        b.work(0.0, explode)
        a.send("b", 2)
        b.work(0.0, explode)
        a.work(0.0, lambda: log.append(4))

    rt.clock.schedule(0.0, burst)
    rt.run(until=0.2)
    assert log == [0, 2, 4]
    assert [type(exc) for exc in reported] == [KeyError, KeyError]


def test_chain_longer_than_a_slice_does_not_starve_a_timer(rt):
    # The chain reposts itself until the timer fired; a drain that never
    # yielded to asyncio would run it to the cap.
    (a,) = journals(rt, "a")[1]
    cap = 3_000_000
    links = [0]
    fired_at = []

    def link():
        links[0] += 1
        if not fired_at and links[0] < cap:
            a.work(0.0, link)

    a.work(0.0, link)
    a.set_timer(5 * DRAIN_SLICE, lambda: fired_at.append(links[0]))
    rt.run_until(lambda: bool(fired_at) or links[0] >= cap, timeout=60.0)
    assert fired_at and 0 < fired_at[0] < cap
    assert links[0] == fired_at[0] + 1  # the chain ended with the timer


def test_crashed_actors_queued_jobs_and_deliveries_never_run(rt):
    log, (a, b) = journals(rt, "ab")

    def burst():
        b.send("a", "delivery to a")
        a.work(0.0, lambda: log.append("job of a"))
        a.send("b", "sent before the crash")
        b.work(0.0, lambda: log.append("job of b"))
        a.crash()
        b.send("a", "delivery after the crash")

    rt.clock.schedule(0.0, burst)
    rt.run(until=0.2)
    assert log == ["sent before the crash", "job of b"]


def test_ready_queue_beside_socket_deliveries():
    """Per-host TcpTransports: a frame's reader calls ``receive`` itself
    and only the CPU job it charges goes through the ready queue — per-link
    FIFO and the interleaving with local jobs both hold."""
    runtime = make_runtime("rt", seed=7, transport_factory=HostPerActor,
                           wire="binary")
    try:
        log = []
        a = Journal("a", runtime, log)
        b = Journal("b", runtime, log)
        b.receive_cost = 0.001
        for actor in (a, b):
            runtime.transport.register(actor)
        runtime.asyncio_loop.run_until_complete(runtime.transport.start())

        def burst():
            for index in range(50):
                a.send("b", index)
            b.work(0.0, lambda: log.append("local job"))

        runtime.clock.schedule(0.0, burst)
        assert runtime.run_until(lambda: len(log) == 51, timeout=10.0)
        assert log == ["local job", *range(50)]
        assert b.cpu.jobs_done == 51
    finally:
        runtime.transport.shutdown()
        runtime.asyncio_loop.run_until_complete(asyncio.sleep(0.05))
        runtime.close()
