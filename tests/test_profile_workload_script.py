"""``scripts/profile_workload.py``: the share timer, the run window, and
one run per backend end to end."""

from __future__ import annotations

import gc
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "profile_workload.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("profile_workload", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_share_counts_outermost_calls_and_names_must_resolve(tool):
    share = tool.Share("tests.helpers:replica_names")

    def countdown(n):
        return n if n == 0 else timed(n - 1)

    timed = share.wrap(countdown)
    assert timed(3) == 0 and timed(0) == 0
    assert share.calls == 2 and share.total > 0.0
    assert "tests.helpers:replica_names" in share.row(run_wall_s=1.0)
    with pytest.raises(SystemExit):
        tool.Share("no_colon_here").install()
    with pytest.raises(AttributeError):
        tool.Share("repro.core.tree:OverlayTree.no_such_method").install()


def test_run_window_books_only_what_happens_while_the_backend_runs(tool):
    window = tool.RunWindow()

    class Runner:
        def run(self, passes):
            for _ in range(passes):
                gc.collect()
            return passes

    gc.callbacks.append(window.on_gc)
    try:
        gc.collect()                      # before the window opens
        run = window.around(Runner.run)
        assert run(Runner(), 3) == 3
        gc.collect()                      # after it closed
    finally:
        gc.callbacks.remove(window.on_gc)
    assert window.collections == [0, 0, 3]
    assert window.pauses[2] > 0.0 and window.pauses[:2] == [0.0, 0.0]
    assert window.wall >= window.pauses[2]
    report = window.report(completed=10)
    assert [line.split()[:2] for line in report.splitlines()[2:6]] == [
        ["gen0", "0"], ["gen1", "0"], ["gen2", "3"], ["total", "3"]]
    assert "select" not in report         # no asyncio loop ran


def test_run_window_counts_tracked_allocations_across_collections(tool):
    window = tool.RunWindow()
    gc.callbacks.append(window.on_gc)
    try:
        gc.collect()
        # more than gen 0's threshold: collections happen inside the window
        kept = window.around(lambda runner, count: Survivor.make(count))(
            None, 2000)
    finally:
        gc.callbacks.remove(window.on_gc)
    assert len(kept) == 2000 and window.collections[0] >= 2
    # the kept objects and their list, give or take what the interpreter
    # allocated on the way
    assert 2000 <= window.allocated < 2100
    (line,) = [row for row in window.report(completed=20).splitlines()
               if row.startswith("gc-tracked allocations per op")]
    assert 100.0 <= float(line.split()[4]) < 105.0


class Survivor:
    """An object the census can name (module-qualified)."""

    @staticmethod
    def make(count):
        return [Survivor() for __ in range(count)]


def test_gc_census_names_the_types_the_window_promotes(tool):
    census = tool.GcCensus()

    def promote(count):
        kept = Survivor.make(count)
        gc.collect(0)                     # young survivors move to gen 1
        gc.collect(1)                     # and from there to gen 2
        return kept

    gc.callbacks.append(census.on_gc)
    try:
        gc.collect()
        kept = census.around(lambda runner, count: promote(count))(None, 50)
        Survivor.make(50)                 # outside the window: not counted
        gc.collect(0)
    finally:
        gc.callbacks.remove(census.on_gc)
    name = f"{Survivor.__module__}.Survivor"
    assert len(kept) == 50
    assert census.promoted[1][name] == 50
    assert census.promoted[2][name] == 50
    rows = census.report(completed=10).splitlines()
    assert rows[0].startswith("promoted into gen1 per op")
    assert [name, "5.000", "50"] in [row.split() for row in rows]
    assert any(row.startswith("promoted into gen2 per op") for row in rows)


def gc_rows(out):
    """``{"gen0": (collections, pause ms, share), ...}`` of a --gc report."""
    return {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.startswith(("gen", "total"))}


def test_one_workload_end_to_end_prints_profile_rows_and_shares():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "leader_crash", "--seconds", "3",
         "--top", "5", "--gc",
         "--share", "repro.bcast.replica:Replica._take_checkpoint",
         "--share", "repro.crypto.digest:digest"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "leader_crash seed 11 under cProfile" in out
    assert "-- top 5 by self time" in out
    assert "-- top 5 by cumulative time" in out
    assert "leader_crash seed 11 un-profiled" in out and "0 failed" in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.startswith("repro.")}
    assert set(rows) == {"repro.bcast.replica:Replica._take_checkpoint",
                         "repro.crypto.digest:digest"}
    for calls, total_ms, per_call_ms, share in rows.values():
        assert int(calls) > 0 and float(total_ms) > 0.0
        assert share.endswith("%")
    # --gc on a sim workload: GC rows only, no asyncio loop to report on
    assert out.count("leader_crash seed 11 un-profiled") == 2
    collections = gc_rows(out)
    assert set(collections) == {"gen0", "gen1", "gen2", "total"}
    assert int(collections["total"][0]) == sum(
        int(collections[f"gen{g}"][0]) for g in range(3)) > 0
    assert "asyncio handles" not in out
    assert "gc-tracked allocations per op" in out
    # then the census repeat: the types promoted into gens 1 and 2, per op
    assert "leader_crash seed 11 gc census" in out
    promoted = [line for line in out.splitlines()
                if line.startswith("promoted into gen")]
    assert [line.split()[2] for line in promoted] == ["gen1", "gen2"]
    assert all(float(line.split()[5]) > 0.0 for line in promoted)


def test_gc_phase_on_an_asyncio_workload_reports_cpu_idle_and_handles():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "rt_mixed", "--seconds", "3",
         "--top", "0", "--gc"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "under cProfile" not in out
    assert "rt_mixed seed 11 un-profiled" in out and "0 failed" in out
    assert int(gc_rows(out)["total"][0]) > 0
    values = {}
    for label in ("process CPU per completed op",
                  "loop idle (inside the selector)",
                  "asyncio handles created per op"):
        (line,) = [row for row in out.splitlines() if row.startswith(label)]
        values[label] = float(line[len(label):].split()[0].rstrip("%"))
    assert values["process CPU per completed op"] > 0.0
    assert 0.0 < values["loop idle (inside the selector)"] < 100.0
    # deliveries and CPU jobs ride the runtime's ready queue: a handful of
    # handles per op (drain wake-ups, timers), not two per message
    assert 0.0 < values["asyncio handles created per op"] < 15.0


def test_message_census_names_payloads_and_reply_result_kinds(tool):
    from repro.bcast.messages import Reply
    from repro.core.messages import MulticastReply

    census = tool.MessageCensus()

    class Transport:
        def __init__(self):
            self.sent = []

        def send(self, src, dst, payload):
            self.sent.append((src, dst, payload))

    transport = Transport()
    send = census.wrap(Transport.send)
    replies = [Reply("g1", "g1/r0", "c1", 1, ("delivered", ("v",))),
               Reply("h1", "h1/r0", "c1", 2, ("ack",)),
               Reply("g1", "g1/r1", "c1", 1, None),
               MulticastReply("g2", "g2/r0", "c1", 3, None)]
    for payload in replies:
        send(transport, "a", "b", payload)
    send(transport, "a", "b", replies[1])
    assert [entry[2] for entry in transport.sent] == [*replies, replies[1]]
    assert dict(census.counts) == {
        "Reply delivered": 1, "Reply ack": 2, "Reply NoneType": 1,
        "MulticastReply": 1}
    rows = census.report(completed=2).splitlines()
    assert rows[1].split() == ["Reply", "ack", "1.000", "2"]
    assert rows[-1].split() == ["total", "2.500", "5"]


def census_rows(out):
    """``{kind: (per op, count)}`` of a --messages report."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("messages sent"))
    return {line.rsplit(None, 2)[0]: tuple(line.rsplit(None, 2)[1:])
            for line in lines[start + 1:] if line.strip()}


def test_messages_phase_is_deterministic_one_reply_per_quorum_member():
    runs = [subprocess.run(
        [sys.executable, str(SCRIPT), "local_lan", "--seconds", "1",
         "--top", "0", "--messages"],
        capture_output=True, text=True, timeout=300) for __ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
        assert "local_lan seed 11 un-profiled" in done.stdout
        assert "0 failed" in done.stdout
    first, second = (census_rows(done.stdout) for done in runs)
    assert first == second
    # every op is local: it goes to the 3 replicas of the destination's
    # quorum, each answers once with the delivery in its ordered reply, and
    # none sends a MulticastReply
    assert first["Reply delivered"][0] == "3.000"
    assert first["Request"][0] == "3.000"
    assert "MulticastReply" not in first and "Reply ack" not in first
    assert int(first["total"][1]) == sum(
        int(count) for kind, (__, count) in first.items() if kind != "total")


#: the census of :func:`test_census_of_a_small_tree_run_is_pinned`, by kind
TREE_CENSUS = {"Request": 306, "Propose": 45, "Write": 135, "Accept": 180,
               "Reply delivered": 72, "MulticastReply": 360, "RelayAck": 160,
               "Heartbeat": 105}


def test_census_of_a_small_tree_run_is_pinned(tool):
    """Every message of a small deterministic run on the Fig. 1(a) tree, by
    kind, pinned exactly.  No ``Reply ack`` is among them: a child
    acknowledges a relay stream with ``RelayAck``, and an entry group that
    is not a destination answers only a retransmission — so ack traffic
    that creeps back fails here first.  Requests, relay copies, replies and
    ``MulticastReply``s go to or come from a group's 3-replica quorum, not
    all 4; a relay copy leaves live only from the parent's quorum, and only
    the 3 followers of an instance send a ``Write`` (the leader's PROPOSE
    is its vote): 3 per instance, not 4."""
    from repro.core.deployment import ByzCastDeployment
    from repro.core.tree import OverlayTree
    from repro.types import destination
    from tests.helpers import FAST_COSTS

    dep = ByzCastDeployment(OverlayTree.paper_tree(), seed=11,
                            costs=FAST_COSTS, max_in_flight=4)
    census = tool.MessageCensus()
    network = dep.network
    network.send = census.wrap(type(network).send).__get__(network)
    destinations = (("g1",), ("g1", "g2"), ("g3", "g4"), ("g2", "g3"),
                    ("g1", "g2", "g3", "g4"), ("g4",))
    clients = [dep.add_client(f"c{index}") for index in range(3)]
    for round_ in range(4):
        for client in clients:
            for dst in destinations:
                client.amulticast(destination(*dst), payload=(round_,))
    dep.run(until=5.0)
    assert [len(client.completions) for client in clients] == [24] * 3
    counts = dict(census.counts)
    assert "Reply ack" not in counts
    assert counts == TREE_CENSUS


def test_retained_and_hops_phases_on_a_short_sim_run(tool):
    """``--retained`` snapshots tracemalloc where ``bench/deploy.py`` reads
    ``peak_rss_mb`` and names the lines holding the traced bytes;
    ``--hops`` times the three stages of every relay hop on the tree."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "global_tree", "--seconds", "1",
         "--top", "0", "--retained", "--hops"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "global_tree seed 11 under tracemalloc" in done.stdout
    (head,) = [line for line in lines
               if line.startswith("traced at the peak_rss_mb read")]
    traced, peak = float(head.split()[5]), float(head.split()[-2])
    assert 0.0 < traced < peak
    (per_op,) = [line for line in lines
                 if line.startswith("retained per completed op")]
    completed = int(per_op.split()[-2].lstrip("("))
    assert f"{completed} ops completed" in done.stdout
    # the head line rounds the traced MiB to 0.1
    assert float(per_op.split()[4]) == pytest.approx(
        traced * 1024 / completed, abs=0.05 * 1024 / completed)
    start = lines.index(next(line for line in lines
                             if line.split()[:3] == ["KiB", "objects", "per"]))
    rows = lines[start + 1:start + 1 + tool.Retained.TOP]
    assert len(rows) == tool.Retained.TOP
    sizes = [float(row.split()[0]) for row in rows]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > 0.0
    for row in rows:
        kib, objects, objects_per_op, where = row.split()[:4]
        assert int(objects) > 0 and ":" in where
        assert float(objects_per_op) == pytest.approx(
            int(objects) / completed, abs=0.001)
    stages = {line.rsplit(None, 4)[0]: line.rsplit(None, 4)[1:]
              for line in lines if "→" in line}
    assert list(stages) == ["decided → flushed", "flushed → submitted",
                            "(f+1)-th copy → proposed", "proposed → decided"]
    for count, mean, p50, p95 in stages.values():
        assert int(count) > 0 and 0.0 < float(p50) <= float(p95)


def test_retained_refuses_rt_mixed():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "rt_mixed", "--top", "0", "--retained"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--retained refuses rt_mixed" in done.stderr
    assert "under tracemalloc" not in done.stdout
