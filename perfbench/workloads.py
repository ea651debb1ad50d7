"""The three benchmark workloads, driven only through public fabricsim APIs.

Each workload builds its simulation in `build` (timed as set-up), runs it in
`execute` (timed as host run time) and checks every output in `check`.
Inputs derive from the seed alone. Each workload also returns a digest of
its simulated outputs, so two iterations at one seed can be compared.

* `c1_lossy`: the paper's C1 criterion, 10,000 16-byte remote appends, all
  issued at simulated t=0, over a 10 +- 4 ms link with 20% loss and 5%
  duplication. The wire path (framing, simcore, netsim, transport) does
  nearly all the host work.
* `cups_week`: the bundled `e2e_cups` deployment over a 168 h horizon. The
  horizon is past the 128 h retention of the detector's output log, so the
  seed code loses evaluations; the check counts each one.
* `replay_chain`: a three-node chain A -> B (dataflow `triple`) -> C that
  carries 1,000 int64 values while B's handler engine crashes every 30
  invocations. All logs are sized so that no entry is evicted before its
  handler fires.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar
from pathlib import Path

import numpy as np

from fabricsim import dataflow
from fabricsim.dataflow import INT64, DataflowGraph, GraphNode, OpDef
from fabricsim.errors import SimulatedCrash
from fabricsim.events import AppendEffect
from fabricsim.logstore import LogRegistry
from fabricsim.netsim import LinkSpec, Network
from fabricsim.node import FabricNode
from fabricsim.pipeline import CupsParams, CupsPipeline
from fabricsim.scenario import (
    build_cost_model,
    build_links,
    build_routes,
    build_system,
    build_weather,
    load_scenario,
)
from fabricsim.simcore import Simulator, s_to_us, sleep
from fabricsim.transport import TransportClient, TransportServer, wire_node

# Host time is the CPU time (user + system) of this process. The simulator is
# single-threaded and never blocks, so this is its wall time less the time the
# machine's scheduler gave the CPU to someone else, which on a shared host
# swings by tens of percent from one minute to the next.
host_clock = time.process_time


@dataclass
class Outcome:
    """What one iteration produced, after its outputs were checked."""

    attempted: int
    failed: int            # operations whose output is missing or wrong
    wrong: int             # outputs present but wrong (duplicates, bad values)
    ok_ops: int            # operations completed correctly
    sim_s: float           # simulated seconds advanced
    digest: str            # sha256 of the simulated outputs
    sims: list = field(default_factory=list)
    cycle_ms: list[float] = field(default_factory=list)
    recovery_ms: list[float] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- c1_lossy ---------------------------------------------------------------------

@dataclass
class C1Lossy:
    n: int = 10_000
    name: ClassVar[str] = "c1_lossy"

    def inputs(self, seed: int) -> list[bytes]:
        noise = np.random.default_rng([seed, 1]).bytes(8 * self.n)
        return [i.to_bytes(8, "little") + noise[8 * i:8 * i + 8] for i in range(self.n)]

    def build(self, root: Path, seed: int, trace: bool, payloads: list[bytes]):
        sim = Simulator(seed=seed, trace=trace)
        link = LinkSpec("lossy", "client", "server", latency_mean_ms=10.0,
                        latency_sd_ms=4.0, loss_prob=0.20, duplicate_prob=0.05)
        net = Network(sim, [link])
        registry = LogRegistry(root / "server")
        server = TransportServer(sim, net, "server", registry)
        client = TransportClient(sim, net, "client")
        wire_node(net, "server", server=server)
        wire_node(net, "client", client=client)
        registry.create("inbox", 16, self.n)
        procs = [sim.spawn(client.remote_append("server", "inbox", p)) for p in payloads]
        return {"sim": sim, "registry": registry, "procs": procs, "payloads": payloads}

    def execute(self, state, ticker: bool) -> None:
        state["sim"].run()

    def check(self, state) -> Outcome:
        store = state["registry"].get("inbox")
        entries = store.scan(1, store.next_seq - 1).entries
        by_seq = {e.seq: e.payload for e in entries}
        landed = [proc.error is None and by_seq.get(proc.result) == payload
                  for proc, payload in zip(state["procs"], state["payloads"])]
        ok = sum(landed)
        mismatched = sum(1 for proc, hit in zip(state["procs"], landed)
                         if proc.error is None and not hit)
        duplicates = len(entries) - len({e.message_id for e in entries})
        gap_free = sorted(by_seq) == list(range(1, len(entries) + 1))
        wrong = mismatched + duplicates + (0 if gap_free else 1)
        seqs = [proc.result for proc in state["procs"]]
        return Outcome(attempted=self.n, failed=self.n - ok, wrong=wrong, ok_ops=ok,
                       sim_s=state["sim"].now_us / 1e6, digest=sha256_json(seqs),
                       sims=[state["sim"]],
                       details={"entries": len(entries), "gap_free": gap_free})

    def close(self, state) -> None:
        state["registry"].close_all()


# -- cups_week --------------------------------------------------------------------

@dataclass
class CupsWeek:
    hours: int = 168
    name: ClassVar[str] = "cups_week"

    def __post_init__(self):
        self.config = load_scenario("e2e_cups")

    def inputs(self, seed: int):
        return None  # the seed drives the weather, network and pilot streams

    def build(self, root: Path, seed: int, trace: bool, _inputs):
        config = self.config
        spec = config["cups"]
        pilot_spec = spec.get("pilot", {})
        sim = Simulator(seed=seed, trace=trace)
        network = Network(sim, build_links(config), routes=build_routes(config))
        params = CupsParams(
            duration_s=self.hours * 3600.0,
            cadence_s=spec.get("cadence_s", 300.0),
            duty_cycle_s=spec.get("duty_cycle_s", 1800.0),
            alpha=spec.get("alpha", 0.05),
            channels=tuple(spec.get("channels", ["wind_speed"])),
            eval_offset_s=spec.get("eval_offset_s", 2.0),
            forward_offset_s=spec.get("forward_offset_s", 4.0),
            threshold_bytes=pilot_spec.get("threshold_bytes", 1024),
            task_cores=pilot_spec.get("task_cores", 64),
            estimated_runtime_s=pilot_spec.get("estimated_runtime_s", 420.39),
            strategy=pilot_spec.get("strategy", "proactive"))
        pipe = CupsPipeline(sim, network, root / "state", params,
                            weather=build_weather(spec["weather"]),
                            system=build_system(spec.get("system")),
                            cost_model=build_cost_model(spec.get("cost_model")))
        return {"sim": sim, "pipeline": pipe, "params": params, "stamps": []}

    def execute(self, state, ticker: bool) -> None:
        if ticker:
            state["sim"].spawn(self._ticker(state), name="cycle-ticker")
        state["metrics"] = state["pipeline"].run()

    @staticmethod
    def _ticker(state):
        """Reads the host clock at the start of every duty cycle that holds
        an evaluation; it only sleeps, so the model cannot observe it."""
        sim, p, stamps = state["sim"], state["params"], state["stamps"]
        ticks = int(p.duration_s // p.duty_cycle_s)
        for m in range(2, ticks + 2):
            target = s_to_us(m * p.duty_cycle_s)
            if target > sim.now_us:
                yield sleep(target - sim.now_us)
            stamps.append(host_clock())

    def check(self, state) -> Outcome:
        p, metrics = state["params"], state["metrics"]
        ticks = int(p.duration_s // p.duty_cycle_s)
        expected = {s_to_us(m * p.duty_cycle_s) for m in range(2, ticks + 1)}
        reported = [row["timestamp_us"] for row in metrics.evaluations]
        task_count: dict[int, int] = {}
        for task in metrics.tasks:
            ts = task["telemetry_timestamp_us"]
            task_count[ts] = task_count.get(ts, 0) + 1
        alert_ts = {a["timestamp_us"] for a in metrics.alerts}
        present = set(reported)
        wrong = len(present - expected) + len(reported) - len(present)
        failed = 0
        for ts in expected:
            if ts not in present:
                failed += 1
            elif ts in alert_ts and task_count.get(ts, 0) != 1:
                failed += 1
        invariants = state["pipeline"].check_invariants()
        stamps = state["stamps"]
        return Outcome(
            attempted=len(expected), failed=failed, wrong=wrong,
            ok_ops=len(expected) - failed, sim_s=state["sim"].now_us / 1e6,
            digest=sha256_json(asdict(metrics)), sims=[state["sim"]],
            cycle_ms=[(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
            details={"evaluations": len(reported), "alerts": len(metrics.alerts),
                     "tasks": len(metrics.tasks), "invariants": invariants})

    def close(self, state) -> None:
        for node in state["pipeline"].nodes.values():
            node.close()


# -- replay_chain -----------------------------------------------------------------

@dataclass
class ReplayChain:
    values: int = 1_000
    crash_stride: int = 30
    name: ClassVar[str] = "replay_chain"

    def inputs(self, seed: int) -> list[int]:
        rng = np.random.default_rng([seed, 3])
        return [int(v) for v in rng.integers(-2**40, 2**40, size=self.values)]

    def _open(self, root: Path, seed: int, epoch: int, trace: bool):
        """Open (or reopen) the three nodes, their logs, the graph and the
        handlers; on reopen every log is recovered before the first event."""
        sim = Simulator(seed=seed * 1000 + epoch, trace=trace)
        links = [LinkSpec("ab", "a", "b", 5.0, 1.0), LinkSpec("bc", "b", "c", 5.0, 1.0)]
        net = Network(sim, links)
        fabric = {n: FabricNode(sim, net, n, root / n) for n in ("a", "b", "c")}
        a, b, c = fabric["a"], fabric["b"], fabric["c"]
        capacity = self.values + 16
        if epoch == 0:
            a.create_log("src", 8, capacity)
            b.create_log("feed", 8, capacity)
            c.create_log("results", 8, capacity)
        else:
            for node in fabric.values():
                for name in node.registry.names():
                    node.registry.get(name)

        graph = DataflowGraph(
            graph_id="scale",
            nodes=[GraphNode("triple", (("v", INT64),), INT64, "triple")],
            edges=[], placement={"triple": "b"})
        dg = dataflow.compile_graph(graph, fabric, {"triple": OpDef(lambda v: 3 * v)},
                                    window=capacity)
        port_log = dg.port_log("triple", "v")

        def ship(entry, ctx):
            return [AppendEffect("b", "feed", entry.payload)]

        def to_operand(entry, ctx):
            value = struct.unpack("<q", entry.payload)[0]
            return [AppendEffect("b", port_log,
                                 dataflow.pack_operand(entry.seq - 1, INT64, value))]

        def deliver(entry, ctx):
            _, value = dataflow.unpack_operand(INT64, entry.payload)
            return [AppendEffect("c", "results", struct.pack("<q", value))]

        a.engine.register_handler("ship", ship)
        a.engine.bind("src", "ship")
        b.engine.register_handler("to-operand", to_operand)
        b.engine.bind("feed", "to-operand")
        b.engine.register_handler("deliver", deliver)
        b.engine.bind(dg.out_log("triple"), "deliver")
        b.engine.set_crash_plan(self.crash_stride, "after_effects")
        return sim, fabric

    def build(self, root: Path, seed: int, trace: bool, values: list[int]):
        sim, fabric = self._open(root, seed, 0, trace)
        for v in values:
            fabric["a"].append_local("src", struct.pack("<q", v))
        return {"root": root, "seed": seed, "trace": trace, "values": values,
                "sim": sim, "fabric": fabric, "sims": [], "recovery_ms": []}

    def execute(self, state, ticker: bool) -> None:
        # each epoch commits 29 of B's invocations, so 3 * values / 29 epochs
        # finish the chain; the cap only stops a run that makes no progress,
        # and the check then counts the undelivered values as failed
        for epoch in range(1, self.values + 1):
            sim = state["sim"]
            try:
                sim.run()
                crashed = False
            except SimulatedCrash:
                crashed = True
            state["sims"].append(sim)
            if not crashed:
                return
            for node in state["fabric"].values():
                node.close()
            t0 = host_clock()
            state["sim"], state["fabric"] = self._open(
                state["root"], state["seed"], epoch, state["trace"])
            state["recovery_ms"].append((host_clock() - t0) * 1e3)

    def check(self, state) -> Outcome:
        store = state["fabric"]["c"].registry.get("results")
        entries = store.scan(store.earliest_seq, store.next_seq - 1).entries
        got = [struct.unpack("<q", e.payload)[0] for e in entries]
        want = [3 * v for v in state["values"]]
        ok = sum(1 for g, w in zip(got, want) if g == w)
        wrong = sum(1 for g, w in zip(got, want) if g != w) + max(0, len(got) - len(want))
        return Outcome(
            attempted=len(want), failed=len(want) - ok, wrong=wrong, ok_ops=ok,
            sim_s=sum(s.now_us for s in state["sims"]) / 1e6,
            digest=sha256_json([[e.message_id.hex(), e.payload.hex()] for e in entries]),
            sims=state["sims"], recovery_ms=state["recovery_ms"],
            details={"restarts": len(state["recovery_ms"]), "delivered": len(got)})

    def close(self, state) -> None:
        for node in state["fabric"].values():
            node.close()


WORKLOADS = {w.name: w for w in (C1Lossy, CupsWeek, ReplayChain)}
