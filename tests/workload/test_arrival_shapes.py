"""Variable-rate arrival shapes: flash crowds and diurnal modulation.

Driven against a bare EventLoop with a stub client, so the tests measure
the arrival process itself (not protocol latency): the flash window must
carry ~flash_factor times the base rate, and the diurnal peak quarter must
clearly out-arrive the trough quarter.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.events import EventLoop
from repro.workload.clients import (
    DiurnalDriver,
    FlashCrowdDriver,
    VariableRateOpenLoopDriver,
)
from repro.workload.spec import fixed_destination


class StubClient:
    """Records send times; enough client surface for an open-loop driver."""

    def __init__(self, loop: EventLoop) -> None:
        self.clock = loop
        self.sends = []

    def set_timer(self, delay, callback):
        return self.clock.schedule(delay, callback)

    def amulticast(self, dst, payload=None, callback=None):
        self.sends.append(self.clock.now)


def arrivals_in(sends, lo, hi):
    return sum(1 for t in sends if lo <= t < hi)


def test_flash_crowd_spikes_by_the_configured_factor():
    loop = EventLoop()
    client = StubClient(loop)
    driver = FlashCrowdDriver(
        client, fixed_destination("g1"), rng=random.Random(1), rate=200.0,
        flash_at=1.0, flash_factor=8.0, flash_width=0.5, stop_after=3.0,
    )
    driver.start()
    loop.run(until=3.5)

    base = arrivals_in(client.sends, 0.0, 1.0)          # 1.0 s at rate
    spike = arrivals_in(client.sends, 1.0, 1.5)         # 0.5 s at 8x rate
    tail = arrivals_in(client.sends, 1.5, 3.0)          # 1.5 s at rate
    assert 140 <= base <= 260                           # ~200 expected
    assert 560 <= spike <= 1040                         # ~800 expected
    spike_rate = spike / 0.5
    flat_rate = (base + tail) / 2.5
    assert 5.0 <= spike_rate / flat_rate <= 12.0        # ~8x expected
    assert not arrivals_in(client.sends, 3.0, 10.0)     # clean stop


def test_diurnal_peak_quarter_out_arrives_the_trough():
    loop = EventLoop()
    client = StubClient(loop)
    driver = DiurnalDriver(
        client, fixed_destination("g1"), rng=random.Random(2), rate=400.0,
        period=2.0, amplitude=0.8, stop_after=4.0,
    )
    driver.start()
    loop.run(until=4.5)

    # The sinusoid peaks at period/4 and troughs at 3*period/4; average
    # over both cycles.  Expected ≈ 344 vs ≈ 56 arrivals per window pair.
    peak = (arrivals_in(client.sends, 0.25, 0.75)
            + arrivals_in(client.sends, 2.25, 2.75))
    trough = (arrivals_in(client.sends, 1.25, 1.75)
              + arrivals_in(client.sends, 3.25, 3.75))
    assert peak > 3 * trough
    assert trough > 0  # amplitude < 1: the trough never goes silent


def test_same_seed_same_arrival_times():
    def run_once():
        loop = EventLoop()
        client = StubClient(loop)
        FlashCrowdDriver(client, fixed_destination("g1"),
                         rng=random.Random(7), rate=100.0,
                         stop_after=2.5).start()
        loop.run(until=3.0)
        return client.sends

    assert run_once() == run_once()


def test_variable_rate_base_requires_a_shape():
    loop = EventLoop()
    driver = VariableRateOpenLoopDriver(
        StubClient(loop), fixed_destination("g1"), rng=random.Random(0),
        rate=10.0)
    with pytest.raises(NotImplementedError):
        driver.rate_at(0.0)
    with pytest.raises(NotImplementedError):
        driver.next_change(0.0)


def test_shape_parameter_validation():
    loop = EventLoop()
    client = StubClient(loop)
    dst = fixed_destination("g1")
    with pytest.raises(ValueError):
        FlashCrowdDriver(client, dst, rate=10.0, flash_factor=0.5)
    with pytest.raises(ValueError):
        FlashCrowdDriver(client, dst, rate=10.0, flash_width=0.0)
    with pytest.raises(ValueError):
        FlashCrowdDriver(client, dst, rate=10.0, flash_at=-0.1)
    with pytest.raises(ValueError):
        DiurnalDriver(client, dst, rate=10.0, period=0.0)
    with pytest.raises(ValueError):
        DiurnalDriver(client, dst, rate=10.0, amplitude=1.0)
