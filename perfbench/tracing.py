"""Measurement hooks installed from outside the simulator.

Nothing here edits `fabricsim`. Hooks replace public functions on their
modules and classes for the duration of a `with` block and put the originals
back afterwards. Names are replaced where callers look them up, so
`fabricsim.pipeline.detect_change` is wrapped as well as
`fabricsim.detect.detect_change`.

Two kinds of hook exist:

* `AppendProbe` is installed on every run, traced or not. It wraps
  `TransportClient.remote_append` and records the simulated latency of each
  acknowledged remote append. It adds one generator frame per append.
* `Tracer` is installed only on traced runs. It records a span (name, start,
  end, parent) around each wrapped call and counts calls at the same
  boundaries. Generator functions (`remote_append`, `inject`,
  `HandlerEngine.fire`, `handle_task`) return before their work is done, so
  they get counts only; their work shows in the spans of the event callbacks
  that resume them.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np

from fabricsim import dataflow, detect, events, framing, logstore, netsim, pilot
from fabricsim import pipeline, simcore, transport, weather
from fabricsim.errors import SimulatedCrash

perf = time.perf_counter


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class AppendProbe(Patcher):
    """Simulated latency of every acknowledged remote append, in microseconds."""

    def __init__(self):
        super().__init__()
        self.latencies_us: list[int] = []

    def __enter__(self):
        latencies = self.latencies_us

        def make(orig):
            def remote_append(self, *args, **kwargs):
                t0 = self.sim.now_us
                seq = yield from orig(self, *args, **kwargs)
                latencies.append(self.sim.now_us - t0)
                return seq
            return remote_append

        self.replace(transport.TransportClient, "remote_append", make)
        return self


def _log_family(name: str) -> str:
    if name == "telemetry":
        return "telemetry"
    if name.startswith("df__"):
        return "df"
    if name.startswith("__cursor__"):
        return "cursor"
    return "other"


class Tracer(Patcher):
    """Span recorder plus call counters for one traced iteration.

    Spans live in four parallel lists; a span's parent is the span open when
    it started. Self time is a span's duration minus its children's.
    """

    def __init__(self):
        super().__init__()
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.queue_wait_us = 0
        self._stack: list[int] = []

    # -- span primitives ----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.name_ids)
        return nid

    def spanned(self, name: str, fn):
        """`fn` wrapped so each call records one span called `name`."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(perf())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_gen(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return (yield from fn(*args, **kwargs))
        return wrapper

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        counts = self.counts
        spanned, counted, counted_gen = self.spanned, self.counted, self.counted_gen

        # simcore: every scheduled callback becomes an "event:<qualname>" span
        event_ids: dict[object, object] = {}

        def make_schedule(orig):
            def dispatch(fn, *args):
                key = getattr(fn, "__func__", fn)
                wrapped = event_ids.get(key)
                if wrapped is None:
                    qualname = getattr(fn, "__qualname__", type(fn).__name__)
                    wrapped = event_ids[key] = spanned(f"event:{qualname}",
                                                       lambda f, *a: f(*a))
                return wrapped(fn, *args)

            def schedule(self, delay_us, fn, *args):
                return orig(self, delay_us, dispatch, fn, *args)
            return spanned("simcore.schedule", schedule)

        self.replace(simcore.Simulator, "schedule", make_schedule)
        self.replace(simcore.Simulator, "run", lambda f: spanned("simcore.run", f))
        self.replace(simcore.Simulator, "spawn",
                     lambda f: spanned("simcore.spawn", counted("simcore.spawns", f)))

        # framing: module functions, looked up as framing.encode/decode
        def make_encode(orig):
            def encode(msg):
                counts["framing.encode:" + type(msg).__name__] += 1
                return orig(msg)
            return spanned("framing.encode", encode)

        self.replace(framing, "encode", make_encode)
        self.replace(framing, "decode", lambda f: spanned("framing.decode", f))

        # netsim: sends; each delivery calls a transport endpoint
        self.replace(netsim.Network, "send", lambda f: spanned("netsim.send", f))

        def make_register(orig):
            def register_endpoint(self, node, callback):
                return orig(self, node, spanned("transport.endpoint", callback))
            return register_endpoint

        self.replace(netsim.Network, "register_endpoint", make_register)

        # transport
        self.replace(transport.TransportServer, "on_frame",
                     lambda f: spanned("transport.server", f))
        self.replace(transport.TransportClient, "remote_append",
                     lambda f: counted_gen("transport.remote_appends", f))
        self.replace(transport.TransportClient, "fetch_element_size",
                     lambda f: counted_gen("transport.size_requests", f))

        # logstore
        def make_scan(orig):
            def scan(self, lo, hi):
                result = orig(self, lo, hi)
                counts["logstore.scan_entries." + _log_family(self.name)] += len(result.entries)
                return result
            return spanned("logstore.scan", scan)

        def make_append(orig):
            def append(self, payload, message_id, created_at_us=0):
                before = self.next_seq
                seq = orig(self, payload, message_id, created_at_us)
                if self.next_seq == before:
                    counts["logstore.dedup_hits"] += 1
                elif self.name.startswith("__cursor__"):
                    counts["events.cursor_commits"] += 1
                return seq
            return spanned("logstore.append", append)

        self.replace(logstore.LogStore, "scan", make_scan)
        self.replace(logstore.LogStore, "append", make_append)
        self.replace(logstore.LogStore, "read", lambda f: counted("logstore.reads", f))
        self.replace(logstore.LogStore, "recover", lambda f: spanned("logstore.recover", f))
        self.replace(logstore.LogStore, "create", lambda f: counted("logstore.creates", f))

        # events: handler bodies are spans; dataflow firing handlers are
        # classified by whether they emitted an output
        self.replace(events.HandlerEngine, "fire",
                     lambda f: counted_gen("events.firings", f))

        def make_register_handler(orig):
            def register_handler(self, handler_id, fn):
                is_firing = handler_id.startswith("df.fire.")

                def handler(entry, ctx):
                    try:
                        effects = fn(entry, ctx)
                    except SimulatedCrash:
                        raise
                    except Exception:
                        counts["events.handler_failures"] += 1
                        raise
                    if is_firing:
                        counts["dataflow.firings" if effects
                               else "dataflow.strict_nonfires"] += 1
                    return effects
                return orig(self, handler_id, spanned("events.handler", handler))
            return register_handler

        self.replace(events.HandlerEngine, "register_handler", make_register_handler)

        # dataflow
        self.replace(dataflow.DeployedGraph, "inject",
                     lambda f: counted_gen("dataflow.injects", f))
        for module in (dataflow, pipeline):
            self.replace(module, "compile_graph", lambda f: spanned("dataflow.compile", f))

        # detect and weather, wrapped where the pipeline looks them up
        for module in (detect, pipeline):
            self.replace(module, "detect_change", lambda f: spanned("detect.eval", f))
        self.replace(weather.TelemetryRecord, "unpack",
                     lambda f: counted("weather.unpacks", f))

        # pilot: queue wait is simulated time from the request to task start
        tracer = self

        def make_handle_task(orig):
            def handle_task(self, task):
                counts["pilot.tasks"] += 1
                issued = self.facility.sim.now_us
                result = yield from orig(self, task)
                tracer.queue_wait_us += result.start_us - issued
                return result
            return handle_task

        self.replace(pilot.PilotController, "handle_task", make_handle_task)
        self.replace(pilot.Facility, "submit_pilot",
                     lambda f: counted("pilot.submits", f))
        return self

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self time in seconds)."""
        if not self.names:
            return {}
        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        k = len(self.name_ids)
        totals = np.bincount(names, weights=own, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {name: (int(calls[i]), float(totals[i]))
                for name, i in self.name_ids.items()}

    def write_spans(self, path: Path) -> None:
        """Every span of the iteration, as parallel arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        order = sorted(self.name_ids, key=self.name_ids.get)
        np.savez(path,
                 name=np.asarray(self.names, dtype=np.int32),
                 parent=np.asarray(self.parents, dtype=np.int64),
                 start=np.asarray(self.starts),
                 end=np.asarray(self.ends),
                 names=np.asarray(order))

