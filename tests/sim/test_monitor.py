"""Unit tests for counters and tracing."""

from __future__ import annotations

from repro.env.monitor import Monitor


class TestCounters:
    def test_count_and_snapshot(self):
        monitor = Monitor()
        monitor.count("x")
        monitor.count("x", 4)
        monitor.count("y")
        assert monitor.snapshot() == {"x": 5, "y": 1}

    def test_record_bumps_counter(self):
        monitor = Monitor()
        monitor.record("comp", "thing.happened", a=1)
        assert monitor.counters["thing.happened"] == 1


class TestTrace:
    def test_disabled_by_default(self):
        monitor = Monitor()
        monitor.record("comp", "kind", a=1)
        assert list(monitor.trace) == []
        assert monitor.counters["trace.dropped"] == 0

    def test_capacity_bound(self):
        monitor = Monitor(trace_capacity=3)
        for index in range(10):
            monitor.record("comp", "kind", i=index)
        assert len(monitor.trace) == 3
        assert monitor.counters["kind"] == 10  # counting continues

    def test_ring_keeps_latest_records(self):
        monitor = Monitor(trace_capacity=3)
        for index in range(10):
            monitor.record("comp", "kind", i=index)
        # the ring retains the *last* capacity records, not the first
        assert [r.get("i") for r in monitor.trace] == [7, 8, 9]
        assert monitor.counters["trace.dropped"] == 7

    def test_no_drops_under_capacity(self):
        monitor = Monitor(trace_capacity=5)
        for index in range(5):
            monitor.record("comp", "kind", i=index)
        assert monitor.counters["trace.dropped"] == 0
        assert [r.get("i") for r in monitor.trace] == [0, 1, 2, 3, 4]

    def test_record_detail_access(self):
        monitor = Monitor(trace_capacity=10)
        monitor.record("replica-1", "step", cid=7, extra="x")
        record = monitor.trace[0]
        assert record.component == "replica-1"
        assert record.get("cid") == 7
        assert record.get("missing", "default") == "default"

    def test_records_filter_by_kind(self):
        monitor = Monitor(trace_capacity=10)
        monitor.record("a", "alpha")
        monitor.record("b", "beta")
        monitor.record("c", "alpha")
        assert len(monitor.records("alpha")) == 2
        assert len(monitor.records()) == 3

    def test_clock_binding(self):
        monitor = Monitor(trace_capacity=10)
        now = [0.0]
        monitor.bind_clock(lambda: now[0])
        monitor.record("a", "k1")
        now[0] = 2.5
        monitor.record("a", "k2")
        assert monitor.trace[0].time == 0.0
        assert monitor.trace[1].time == 2.5

    def test_unbound_clock_defaults_to_zero(self):
        monitor = Monitor(trace_capacity=1)
        monitor.record("a", "k")
        assert monitor.trace[0].time == 0.0


class TestDisabledFastPath:
    def test_enabled_mirrors_trace_capacity(self):
        assert Monitor().enabled is False
        assert Monitor(trace_capacity=0).enabled is False
        assert Monitor(trace_capacity=1).enabled is True

    def test_disabled_record_allocates_no_trace_entries(self, monkeypatch):
        """Hot protocol paths guard on ``enabled``; with tracing off,
        ``record`` must return before ever constructing a TraceRecord."""
        import repro.env.monitor as monitor_module

        def explode(*args, **kwargs):
            raise AssertionError("TraceRecord built on the disabled path")

        monkeypatch.setattr(monitor_module, "TraceRecord", explode)
        monitor = monitor_module.Monitor()  # trace_capacity=0
        for index in range(100):
            monitor.record("comp", "kind", i=index)
        assert monitor.counters["kind"] == 100  # counting still works
        assert list(monitor.trace) == []

    def test_callers_can_skip_detail_building(self):
        # The documented idiom: check ``enabled`` before assembling kwargs.
        monitor = Monitor()
        if monitor.enabled:  # pragma: no cover - exercised when tracing on
            raise AssertionError("capacity 0 must read as disabled")


class TestGauges:
    def test_gauge_tracks_value_and_peak(self):
        monitor = Monitor(trace_capacity=8)
        monitor.gauge("consensus.in_flight.r0", 2.0)
        monitor.gauge("consensus.in_flight.r0", 4.0)
        monitor.gauge("consensus.in_flight.r0", 1.0)
        assert monitor.gauges["consensus.in_flight.r0"] == 1.0
        assert monitor.gauges["consensus.in_flight.r0.peak"] == 4.0

    def test_gauges_do_not_perturb_counters(self):
        monitor = Monitor()
        monitor.gauge("depth", 3.0)
        assert monitor.snapshot() == {}

    def test_disabled_gauge_keeps_value_but_skips_peak(self):
        # A run's gauge snapshot reads plain gauges on untraced
        # deployments, so the value store must survive the fast path; only
        # the observability-grade peak companion is skipped.
        monitor = Monitor()
        monitor.gauge("consensus.in_flight.r0", 5.0)
        monitor.gauge("consensus.in_flight.r0", 2.0)
        assert monitor.gauges["consensus.in_flight.r0"] == 2.0
        assert "consensus.in_flight.r0.peak" not in monitor.gauges

    def test_disabled_gauge_builds_no_peak_key_strings(self):
        """Mirror of the record() zero-allocation pin: with tracing off,
        gauge() must return before interning (concatenating) a peak key."""
        monitor = Monitor()
        for index in range(100):
            monitor.gauge("consensus.in_flight.r0", float(index))
        assert monitor._peak_keys == {}
        monitor_on = Monitor(trace_capacity=1)
        for index in range(100):
            monitor_on.gauge("consensus.in_flight.r0", float(index))
        # enabled path interns the key once, not per call
        assert monitor_on._peak_keys == {
            "consensus.in_flight.r0": "consensus.in_flight.r0.peak"
        }
        assert monitor_on.gauges["consensus.in_flight.r0.peak"] == 99.0
