#!/usr/bin/env python3
"""Where one benchmark workload spends its time.

    python3 scripts/profile_workload.py W [--seed N] [--seconds S] [--top K]
                                        [--share mod:Class.func ...] [--gc]
                                        [--messages] [--retained] [--hops]

Runs one ``bench/run.py --child`` repeat of workload ``W`` under cProfile
and prints the top rows by self time and by cumulative time — candidates
for "the next measured layer".  cProfile taxes every Python call and no C
call, which shifts the proportions, so each ``--share`` function is then
measured with profiling off: a second repeat with a ``perf_counter``
wrapper around that function alone prints its calls, total and per-call
time and its share of the run phase (``run_wall_s``, the interval
``host_msgs_per_s`` is measured over).  Re-entrant calls count once.  A
name is ``module:function`` or ``module:Class.method``; a method is
patched on its class and a module-level function wherever ``repro`` bound
it, the way ``bench/spans.py`` does.

``--gc`` adds a third un-profiled repeat that books what no function owns
(:class:`RunWindow`): garbage collections and their pause time per
generation, as a share of the time the backend ran, gc-tracked objects
allocated per completed op (net of frees: the count gen-0 collections fire
on), and — on the asyncio workloads — process CPU per completed op, the
share of the run the loop sat idle inside its selector, and asyncio handles
created per op (one per ``call_soon`` / ``call_later``).  A fourth repeat
takes the census (:class:`GcCensus`): which types the collections of the
window promoted into generations 1 and 2, the top 10 of each per op.  It
lists every object of the older generation twice per collection, so it runs
apart from the timed repeat.

``--messages`` adds an un-profiled repeat that counts every message a
transport sends (:class:`MessageCensus`), by payload type and, for a
``Reply``, by the kind its result names (``ack``, ``delivered``, ...), per
completed op.  Its total is ``env.net_msgs_per_op``; on a sim workload the
census is deterministic per seed.

``--retained`` adds a repeat under ``tracemalloc`` (:class:`Retained`)
that takes a snapshot at the moment the benchmark reads ``peak_rss_mb``
(its ``resource.getrusage``, wrapped from outside) and prints the traced
MiB against peak RSS, the traced KiB retained per completed op — the one
number a change to per-op history moves — then the 15 source lines whose
allocations are still alive there, by size, with their object counts in
all and per completed op.  It refuses
``rt_mixed``: tracemalloc slows its wall-clock loop so much that a repeat
completes a twentieth of its usual ops (1 176 on seed 11), which is not
the run being asked about.

``--hops`` adds an un-profiled repeat that times each relay hop in three
stages (:class:`HopStages`), in the backend's clock: a parent replica's
decision of a batch → the relayed copy it submits to the child (split where
``end_batch`` cuts the relay batches, before the relay job's CPU); the child
leader's (f+1)-th copy of an index → the proposal carrying its
certificate; and that proposal → its decision at the leader.

Each repeat runs in a fresh process (this file with ``--phase``), so the
profiled repeat and the timed ones share no warm caches.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import cProfile
import gc
import importlib
import inspect
import io
import json
import os
import linecache
import pstats
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)


class Share:
    """Wall time spent inside one function, outermost calls only."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self._depth = 0

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - start
                self.calls += 1
                self._depth = 0

        return timed

    def install(self) -> None:
        module_name, _, qualname = self.name.partition(":")
        if not qualname:
            raise SystemExit(f"--share {self.name!r}: expected "
                             "module:function or module:Class.method")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(self.wrap(raw.__func__)))
            return
        timed = self.wrap(raw)
        setattr(owner, attr, timed)
        if not path:
            # ``from module import f`` bound the original elsewhere
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    for name, value in list(vars(loaded).items()):
                        if value is raw:
                            setattr(loaded, name, timed)

    def row(self, run_wall_s: float) -> str:
        per_call = self.total / self.calls * 1e3 if self.calls else 0.0
        return (f"{self.name:56s} {self.calls:8d} {self.total * 1e3:10.1f} "
                f"{per_call:9.3f} {self.total / run_wall_s:7.1%}")


class RunWindow:
    """What happens while a backend runs, measured from outside.

    The window is open inside ``SimRuntime.run`` and asyncio's
    ``run_forever`` (under ``RealtimeRuntime.run`` and under every
    ``run_until_complete``): the benchmark's run phase plus its short
    settle run, without set-up, yardstick samples or output checks.  GC
    pauses come from ``gc.callbacks``; the loop's idle time is the time
    inside its selector's ``select``; a handle is one ``asyncio.Handle``
    or ``TimerHandle`` constructed.  The counting wrappers cost a few
    tenths of a microsecond per handle and per ``select``.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.collections = [0, 0, 0]
        self.pauses = [0.0, 0.0, 0.0]
        self.selects = 0
        self.select_s = 0.0
        self.handles = 0
        #: gc-tracked allocations net of frees (what gen 0's count adds up)
        self.allocated = 0
        self._open = False
        self._gc_started = 0.0
        self._count_mark = 0

    def on_gc(self, phase: str, info: Dict) -> None:
        if not self._open:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
            # every collection resets gen 0's count: book it first
            self.allocated += gc.get_count()[0] - self._count_mark
            self._count_mark = 0
        else:
            generation = info["generation"]
            self.collections[generation] += 1
            self.pauses[generation] += time.perf_counter() - self._gc_started

    def around(self, run: Callable) -> Callable:
        """``run`` with the window open; an asyncio loop (``run_forever``)
        gets its selector timed the first time it runs."""

        def measured(runner, *args, **kwargs):
            selector = getattr(runner, "_selector", None)
            if selector is not None and "select" not in vars(selector):
                selector.select = self._timed_select(selector.select)
            wall, cpu = time.perf_counter(), time.process_time()
            self._count_mark = gc.get_count()[0]
            self._open = True
            try:
                return run(runner, *args, **kwargs)
            finally:
                self._open = False
                self.allocated += gc.get_count()[0] - self._count_mark
                self.wall += time.perf_counter() - wall
                self.cpu += time.process_time() - cpu

        return measured

    def _timed_select(self, select: Callable) -> Callable:
        def timed(timeout=None):
            start = time.perf_counter()
            try:
                return select(timeout)
            finally:
                self.select_s += time.perf_counter() - start
                self.selects += 1

        return timed

    def install(self) -> None:
        from repro.env.simbackend import SimRuntime

        SimRuntime.run = self.around(SimRuntime.run)
        loop_class = asyncio.base_events.BaseEventLoop
        loop_class.run_forever = self.around(loop_class.run_forever)
        handle_init = asyncio.Handle.__init__

        def counted_init(handle, *args, **kwargs):
            if self._open:
                self.handles += 1
            handle_init(handle, *args, **kwargs)

        asyncio.Handle.__init__ = counted_init
        gc.callbacks.append(self.on_gc)

    def report(self, completed: int) -> str:
        rows = [f"backend ran {self.wall:.2f} s wall, "
                f"{self.cpu:.2f} s process CPU",
                f"{'gc':8s} {'collections':>12s} {'pause ms':>10s} "
                f"{'share':>7s}"]
        for name, count, pause in (
                *((f"gen{g}", self.collections[g], self.pauses[g])
                  for g in range(3)),
                ("total", sum(self.collections), sum(self.pauses))):
            rows.append(f"{name:8s} {count:12d} {pause * 1e3:10.1f} "
                        f"{pause / self.wall:7.1%}")
        rows.append(f"gc-tracked allocations per op    "
                    f"{self.allocated / completed:8.1f} (net of frees)")
        if self.selects:
            rows += [
                f"process CPU per completed op     "
                f"{self.cpu / completed * 1e3:8.3f} ms",
                f"loop idle (inside the selector)  "
                f"{self.select_s / self.wall:8.1%} "
                f"({self.selects} select calls)",
                f"asyncio handles created per op   "
                f"{self.handles / completed:8.2f}"]
        return "\n".join(rows)


class GcCensus(RunWindow):
    """What the window's collections promote, by type.

    At the start of a collection of generation ``g`` the ids of the objects
    in generation ``min(g + 1, 2)`` are noted; at its stop every object
    there that was not is one the collection promoted (its survivors move
    up one generation; a full collection's young survivors join gen 2).
    The census's own id set survives every collection and is not counted.
    """

    TOP = 10

    def __init__(self) -> None:
        super().__init__()
        self.promoted = {1: Counter(), 2: Counter()}
        self._target = 1
        self._before: set = set()

    def on_gc(self, phase: str, info: Dict) -> None:
        if not self._open:
            return
        if phase == "start":
            self._target = min(info["generation"] + 1, 2)
            self._before = {id(obj) for obj in gc.get_objects(self._target)}
            return
        before, counts = self._before, self.promoted[self._target]
        for obj in gc.get_objects(self._target):
            if id(obj) not in before and obj is not before:
                kind = type(obj)
                module = kind.__module__
                counts[kind.__qualname__ if module == "builtins"
                       else f"{module}.{kind.__qualname__}"] += 1
        self._before = set()

    def report(self, completed: int) -> str:
        rows = []
        for generation, counts in self.promoted.items():
            total = sum(counts.values())
            rows.append(f"promoted into gen{generation} per op "
                        f"{total / completed:10.2f} ({total} objects)")
            for name, count in counts.most_common(self.TOP):
                rows.append(f"  {name:48s} {count / completed:8.3f} "
                            f"{count:9d}")
        return "\n".join(rows)


class MessageCensus:
    """Messages sent, counted where every transport counts ``net.sent``."""

    #: (module, transport class) whose ``send`` is counted
    TRANSPORTS = (("repro.sim.network", "Network"),
                  ("repro.env.rtbackend", "InProcessTransport"),
                  ("repro.env.tcp", "TcpTransport"))

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    @staticmethod
    def kind(payload) -> str:
        """The payload's type name; a ``Reply``'s carries its result kind."""
        name = type(payload).__name__
        if name != "Reply":
            return name
        result = payload.result
        if isinstance(result, tuple) and result and isinstance(result[0], str):
            return f"Reply {result[0]}"
        return f"Reply {type(result).__name__}"

    def wrap(self, send: Callable) -> Callable:
        def counted(transport, src, dst, payload):
            self.counts[self.kind(payload)] += 1
            return send(transport, src, dst, payload)

        return counted

    def install(self) -> None:
        for module_name, class_name in self.TRANSPORTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            cls.send = self.wrap(cls.send)

    def report(self, completed: int) -> str:
        rows = [f"{'messages sent':28s} {'per op':>9s} {'count':>10s}"]
        for kind, count in sorted(self.counts.items(),
                                  key=lambda item: (-item[1], item[0])):
            rows.append(f"{kind:28s} {count / completed:9.3f} {count:10d}")
        total = sum(self.counts.values())
        rows.append(f"{'total':28s} {total / completed:9.3f} {total:10d}")
        return "\n".join(rows)


class Retained:
    """The traced allocations alive when the benchmark reads ``peak_rss_mb``.

    ``bench/deploy.py`` and ``bench/fanout.py`` read it through their module's
    ``resource.getrusage``; each module gets a stand-in whose ``getrusage``
    snapshots tracemalloc first (the last read wins).  The traces keep one
    frame: a line is where an object was allocated, not who keeps it.
    """

    TOP = 15
    MODULES = ("bench.deploy", "bench.fanout")

    def __init__(self) -> None:
        self.snapshot = None
        self.traced = 0
        self.peak_rss_mb = 0.0

    def wrap(self, getrusage: Callable) -> Callable:
        def snapshotting(who):
            self.traced = tracemalloc.get_traced_memory()[0]
            self.snapshot = tracemalloc.take_snapshot()
            usage = getrusage(who)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            return usage

        return snapshotting

    def install(self) -> None:
        stand_in = SimpleNamespace(getrusage=self.wrap(resource.getrusage),
                                   RUSAGE_SELF=resource.RUSAGE_SELF)
        for name in self.MODULES:
            importlib.import_module(name).resource = stand_in
        tracemalloc.start(1)

    def report(self, completed: int) -> str:
        if self.snapshot is None:
            return "the benchmark never read peak_rss_mb"
        ops = max(completed, 1)
        rows = [f"traced at the peak_rss_mb read {self.traced / 2**20:8.1f} MiB"
                f" of peak RSS {self.peak_rss_mb:.1f} MiB",
                f"retained per completed op {self.traced / 1024 / ops:10.3f}"
                f" KiB ({completed} ops)",
                f"{'KiB':>10s} {'objects':>9s} {'per op':>8s}  line"]
        snapshot = self.snapshot.filter_traces(
            (tracemalloc.Filter(False, tracemalloc.__file__),))
        for stat in snapshot.statistics("lineno")[:self.TOP]:
            frame = stat.traceback[0]
            where = os.path.relpath(frame.filename, ROOT)
            if where.startswith(".."):
                where = frame.filename
            code = linecache.getline(frame.filename, frame.lineno).strip()
            rows.append(f"{stat.size / 1024:10.1f} {stat.count:9d} "
                        f"{stat.count / ops:8.3f}  "
                        f"{where}:{frame.lineno}  {code[:60]}")
        return "\n".join(rows)


class HopStages:
    """Three stages of every relay hop, the first in two parts, in the
    backend's clock.

    * ``decided → submitted``: a parent replica decides a batch and
      executes it (``decided → flushed``: ``end_batch`` cuts the relay
      batches), then the relay job's CPU charge runs and submits each
      ``RelayBatch`` to the child's outbox (``flushed → submitted``; the
      CPU queue is FIFO, so a replica's batches to one child leave in act
      order);
    * ``(f+1)-th copy → proposed``: the child leader's inbox pools an
      index's certificate, which waits for a pipeline slot, the batch cut
      and the proposal's CPU;
    * ``proposed → decided``: that proposal's WRITE and ACCEPT rounds, at
      the leader.
    """

    STAGES = ("decided → flushed", "flushed → submitted",
              "(f+1)-th copy → proposed", "proposed → decided")

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {
            stage: [] for stage in self.STAGES}
        self._decided: Dict[tuple, float] = {}
        self._executing: Dict[str, int] = {}
        #: (parent replica, child) -> flush times of submits to come
        self._relays: Dict[tuple, List[float]] = {}
        #: (leader, certificate sender, seq) -> when the leader pooled it
        self._pooled: Dict[tuple, float] = {}
        #: (leader, cid) -> when it proposed a batch with a certificate
        self._proposed: Dict[tuple, float] = {}

    def install(self) -> None:
        from repro.bcast.replica import Replica
        from repro.core.messages import RelayCertificate
        from repro.core.node import ByzCastApplication
        from repro.core.relay import RelayOutbox

        hops = self

        def on_decided(original):
            def timed(replica, instance):
                now = replica.clock.now
                hops._decided[(replica.name, instance.cid)] = now
                proposed = hops._proposed.pop((replica.name, instance.cid),
                                              None)
                if proposed is not None:
                    hops.samples[hops.STAGES[3]].append(now - proposed)
                return original(replica, instance)
            return timed

        def execute_batch(original):
            def timed(replica, cid, *args, **kwargs):
                hops._executing[replica.name] = cid
                return original(replica, cid, *args, **kwargs)
            return timed

        def flush_relays(original):
            def timed(app, child, wires, ctx):
                name = ctx.replica.name
                decided = hops._decided.get(
                    (name, hops._executing.get(name)))
                if decided is not None:
                    now = ctx.replica.clock.now
                    hops.samples[hops.STAGES[0]].append(now - decided)
                    limit = app.group_configs[child].max_batch
                    hops._relays.setdefault((name, child), []).extend(
                        [now] * -(-len(wires) // limit))
                return original(app, child, wires, ctx)
            return timed

        def submit(original):
            def timed(outbox, batch):
                name = outbox.owner.name
                pending = hops._relays.get((name, outbox.group_id))
                if pending:
                    hops.samples[hops.STAGES[1]].append(
                        outbox.owner.clock.now - pending.pop(0))
                return original(outbox, batch)
            return timed

        def offer(original):
            def timed(replica, request):
                if (isinstance(request.command, RelayCertificate)
                        and replica.is_leader):
                    hops._pooled.setdefault(
                        (replica.name, request.sender, request.seq),
                        replica.clock.now)
                return original(replica, request)
            return timed

        def send_propose(original):
            def timed(replica, cid, regency, batch):
                now = replica.clock.now
                carried = False
                for request in batch:
                    pooled = hops._pooled.pop(
                        (replica.name, request.sender, request.seq), None)
                    if pooled is not None:
                        hops.samples[hops.STAGES[2]].append(now - pooled)
                        carried = True
                if carried:
                    hops._proposed[(replica.name, cid)] = now
                return original(replica, cid, regency, batch)
            return timed

        for cls, name, wrapper in (
                (Replica, "_on_decided", on_decided),
                (Replica, "_execute_batch", execute_batch),
                (Replica, "offer", offer),
                (Replica, "_send_propose", send_propose),
                (ByzCastApplication, "_flush_relays", flush_relays),
                (RelayOutbox, "submit", submit)):
            setattr(cls, name, wrapper(getattr(cls, name)))

    def report(self) -> str:
        rows = [f"{'relay hop stage':28s} {'count':>7s} {'mean ms':>9s} "
                f"{'p50 ms':>9s} {'p95 ms':>9s}"]
        for stage, samples in self.samples.items():
            ordered = sorted(samples)
            if not ordered:
                rows.append(f"{stage:28s} {0:7d}")
                continue
            p50 = ordered[len(ordered) // 2]
            p95 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]
            rows.append(f"{stage:28s} {len(ordered):7d} "
                        f"{sum(ordered) / len(ordered) * 1e3:9.2f} "
                        f"{p50 * 1e3:9.2f} {p95 * 1e3:9.2f}")
        return "\n".join(rows)


def run_repeat(args) -> Dict:
    """One ``--child`` repeat in this process; returns its result record."""
    from bench import run as bench_run

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = bench_run.main([
            "--child", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", "0",
            "--spawned-at", repr(time.time())])
    if code != 0:
        raise SystemExit(f"bench/run.py --child exited with code {code}")
    return json.loads(printed.getvalue().strip().splitlines()[-1])


def summary(result: Dict) -> str:
    return (f"run phase {result['run_wall_s']:.2f} s, "
            f"{result['completed']} ops completed, "
            f"{result['failed']} failed")


def phase_profile(args) -> int:
    profile = cProfile.Profile()
    result = profile.runcall(run_repeat, args)
    print(f"{args.workload} seed {args.seed} under cProfile: "
          f"{summary(result)}")
    for order, title in (("tottime", "self time"),
                         ("cumulative", "cumulative time")):
        print(f"-- top {args.top} by {title}")
        out = io.StringIO()
        stats = pstats.Stats(profile, stream=out)
        stats.strip_dirs().sort_stats(order).print_stats(args.top)
        rows = out.getvalue().splitlines()
        start = next(i for i, row in enumerate(rows) if "ncalls" in row)
        print("\n".join(row for row in rows[start:] if row.strip()))
    return 0


def phase_share(args) -> int:
    shares = [Share(name) for name in args.share]
    for share in shares:
        share.install()
    result = run_repeat(args)
    print(f"{args.workload} seed {args.seed} un-profiled: {summary(result)}")
    print(f"{'function':56s} {'calls':>8s} {'total ms':>10s} "
          f"{'ms/call':>9s} {'share':>7s}")
    for share in shares:
        print(share.row(result["run_wall_s"]))
    return 0


def phase_gc(args) -> int:
    window = RunWindow()
    window.install()
    result = run_repeat(args)
    print(f"{args.workload} seed {args.seed} un-profiled: {summary(result)}")
    print(window.report(result["completed"]))
    return 0


def phase_census(args) -> int:
    census = GcCensus()
    census.install()
    result = run_repeat(args)
    print(f"{args.workload} seed {args.seed} gc census: {summary(result)}")
    print(census.report(result["completed"]))
    return 0


def phase_messages(args) -> int:
    census = MessageCensus()
    census.install()
    result = run_repeat(args)
    print(f"{args.workload} seed {args.seed} un-profiled: {summary(result)}")
    print(census.report(result["completed"]))
    return 0


def phase_retained(args) -> int:
    retained = Retained()
    retained.install()
    result = run_repeat(args)
    print(f"{args.workload} seed {args.seed} under tracemalloc: "
          f"{summary(result)}")
    print(retained.report(result["completed"]))
    return 0


def phase_hops(args) -> int:
    hops = HopStages()
    hops.install()
    result = run_repeat(args)
    print(f"{args.workload} seed {args.seed} un-profiled: {summary(result)}")
    print(hops.report())
    return 0


PHASES = {"profile": phase_profile, "share": phase_share, "gc": phase_gc,
          "census": phase_census, "messages": phase_messages,
          "retained": phase_retained, "hops": phase_hops}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--top", type=int, default=25,
                        help="profile rows to print per ordering "
                             "(0: skip the profiled repeat)")
    parser.add_argument("--share", action="append", default=[],
                        metavar="mod:Class.func",
                        help="time this function with profiling off")
    parser.add_argument("--gc", action="store_true",
                        help="book GC pauses, allocations per op and, on "
                             "asyncio workloads, process CPU, loop idle "
                             "share and handles per op, with profiling "
                             "off; then a census of the types promoted "
                             "into gen 1 and gen 2")
    parser.add_argument("--messages", action="store_true",
                        help="count messages sent per completed op, by "
                             "payload type and Reply result kind")
    parser.add_argument("--retained", action="store_true",
                        help="snapshot tracemalloc where the benchmark reads "
                             "peak_rss_mb: traced MiB, KiB retained per "
                             "op and the top 15 lines by retained size, "
                             "with objects per op (not on rt_mixed)")
    parser.add_argument("--hops", action="store_true",
                        help="time each relay hop's stages: parent "
                             "decision to relay cut to relayed copy, "
                             "(f+1)-th copy to proposal, proposal to "
                             "decision")
    parser.add_argument("--phase", choices=tuple(PHASES),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.retained and args.workload == "rt_mixed":
        parser.error("--retained refuses rt_mixed: under tracemalloc its "
                     "wall-clock loop completes a twentieth of its usual "
                     "ops, not the run peak_rss_mb is read from")
    if args.phase is not None:
        return PHASES[args.phase](args)
    forwarded = sys.argv[1:] if argv is None else list(argv)
    phases = (["profile"] if args.top > 0 else []) + (
        ["share"] if args.share else []) + (
        ["gc", "census"] if args.gc else []) + (
        ["messages"] if args.messages else []) + (
        ["retained"] if args.retained else []) + (
        ["hops"] if args.hops else [])
    for phase in phases:
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               *forwarded, "--phase", phase], cwd=ROOT)
        if done.returncode != 0:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
