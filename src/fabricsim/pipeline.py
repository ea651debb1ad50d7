"""The end-to-end telemetry application.

Data path one: an edge station reports weather telemetry every five minutes
by remote append to the repository node's log, over the `unl-ucsb-5g` hop at
its base rate (the PRB slice model is sampled by the `slicing` sweep alone).
One round trip per record once the first has learned the log's element size.

Data path two: on a thirty-minute duty cycle the repository evaluates the
most recent six records against the previous six through the dataflow-hosted
change detector. Votes land in an alert log, a forwarder pushes fresh alerts
to the HPC node on the same duty cycle, and each alert drives an embedded
simulation task through the pilot controller. Results carry the telemetry
timestamp they model, so a result's validity window is whatever remains of
the duty cycle once the simulation completes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dataflow import (
    BYTES,
    DEFAULT_WINDOW,
    DataflowGraph,
    DeployedGraph,
    GraphNode,
    OpDef,
    compile_graph,
    unpack_operand,
)
from .detect import (
    ALERT_SIZE,
    DEFAULT_ALPHA,
    DUTY_CYCLE_S,
    WINDOW_LEN,
    ChangeAlert,
    Window,
    detect_change,
)
from .errors import ConfigError
from .events import AppendEffect
from .netsim import Network
from .node import FabricNode
from .pilot import (
    DEFAULT_THRESHOLD_BYTES,
    REFERENCE_CORES,
    REFERENCE_MEAN_S,
    TASK_RESULT_SIZE,
    CfdCostModel,
    Facility,
    PilotController,
    SystemSpec,
    TaskSpec,
    check_task_fits,
)
from .simcore import Simulator, s_to_us, sleep
from .weather import CHANNELS, RECORD_SIZE, REPORT_CADENCE_S, TelemetryRecord, WeatherModel

TELEMETRY_ELEMENT = 1024  # matches the measured 1 KB message workload
TELEMETRY_CAPACITY = 4096  # ~341 h at the 5-minute cadence; windows need the last 12
PAIR_BYTES = 2 * WINDOW_LEN * RECORD_SIZE  # the previous and the current window
UNL, UCSB, ND = "unl-edge", "ucsb-repo", "nd-hpc"  # edge, repository and HPC nodes


@dataclass
class CupsParams:
    duration_s: float
    cadence_s: float = REPORT_CADENCE_S
    duty_cycle_s: float = DUTY_CYCLE_S
    alpha: float = DEFAULT_ALPHA
    channels: tuple[str, ...] = ("wind_speed",)
    eval_offset_s: float = 2.0      # after the duty tick, lets the last record land
    forward_offset_s: float = 4.0   # alert fetch offset within the duty cycle
    threshold_bytes: int = DEFAULT_THRESHOLD_BYTES
    task_cores: int = REFERENCE_CORES
    estimated_runtime_s: float = REFERENCE_MEAN_S
    strategy: str = "proactive"

    def __post_init__(self):
        if not self.channels or not set(self.channels) <= set(CHANNELS):
            raise ConfigError(f"bad value for channels: pick one or more of {CHANNELS}")
        if self.duration_s < 2 * self.duty_cycle_s:
            raise ConfigError("scenario too short for a single evaluation")
        if WINDOW_LEN * self.cadence_s != self.duty_cycle_s:
            raise ConfigError("window must span exactly one duty cycle")


@dataclass
class CupsMetrics:
    telemetry_latency_ms: list[float] = field(default_factory=list)
    evaluations: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)
    tasks: list[dict] = field(default_factory=list)
    skipped_evaluations: int = 0
    handler_failures: int = 0


class CupsPipeline:
    """Wires the three-node deployment and runs it on one clock."""

    def __init__(self, sim: Simulator, network: Network, state_dir: str | Path,
                 params: CupsParams, weather: WeatherModel, system: SystemSpec,
                 cost_model: CfdCostModel):
        check_task_fits(params.task_cores, system, cost_model)
        self.sim = sim
        self.params = params
        self.weather = weather
        self.metrics = CupsMetrics()

        state_dir = Path(state_dir)
        self.unl = FabricNode(sim, network, UNL, state_dir / UNL)
        self.ucsb = FabricNode(sim, network, UCSB, state_dir / UCSB)
        self.nd = FabricNode(sim, network, ND, state_dir / ND)
        self.nodes = {n.name: n for n in (self.unl, self.ucsb, self.nd)}

        self.ucsb.create_log("telemetry", TELEMETRY_ELEMENT, TELEMETRY_CAPACITY)
        self.ucsb.create_log("alerts", ALERT_SIZE, DEFAULT_WINDOW)
        self.nd.create_log("pilot_events", 256, 1024)

        self.facility = Facility(sim, system, stream_label=ND)
        self.facility.on_event = self._audit
        self.controller = PilotController(self.facility, cost_model, params.strategy)

        self.graph = self._deploy()
        self._wire_alert_filter()

    # -- deployment ------------------------------------------------------

    def _deploy(self) -> DeployedGraph:
        """Detector and CFD stub as one graph without edges: the alert filter
        and the forwarder carry alerts from the one to the other."""
        params = self.params

        def detect_op(pair: bytes):
            records = [TelemetryRecord.unpack(pair[i * RECORD_SIZE:(i + 1) * RECORD_SIZE])
                       for i in range(2 * WINDOW_LEN)]
            previous = Window(tuple(records[:WINDOW_LEN]))
            current = Window(tuple(records[WINDOW_LEN:]))
            chosen = None
            for channel in params.channels:
                alert = detect_change(current, previous, params.alpha, channel)
                if chosen is None or (alert.vote and not chosen.vote):
                    chosen = alert
            return chosen.pack()

        def cfd_op(alert_bytes: bytes):
            alert = ChangeAlert.unpack(alert_bytes)
            task = TaskSpec(
                data_size_bytes=PAIR_BYTES,
                threshold_bytes=params.threshold_bytes,
                estimated_runtime_s=params.estimated_runtime_s,
                cores=params.task_cores,
                telemetry_timestamp_us=alert.timestamp_us)
            result = yield from self.controller.handle_task(task)
            return result.pack()

        graph = DataflowGraph(
            graph_id="cups",
            nodes=[GraphNode("detect", (("pair", BYTES(PAIR_BYTES)),),
                             BYTES(ALERT_SIZE), "detect_change"),
                   GraphNode("cfd", (("alert", BYTES(ALERT_SIZE)),),
                             BYTES(TASK_RESULT_SIZE), "run_simulation")],
            edges=[],
            placement={"detect": UCSB, "cfd": ND})
        return compile_graph(graph, self.nodes,
                             {"detect_change": OpDef(detect_op),
                              "run_simulation": OpDef(cfd_op, activity=True)})

    def _wire_alert_filter(self) -> None:
        """Fires once per detector output: records the evaluation (and the
        alert, on a vote) as it arrives, so the report never depends on how
        long the output logs retain entries."""
        vt = BYTES(ALERT_SIZE)

        def filter_votes(entry, ctx):
            _, raw = unpack_operand(vt, entry.payload)
            alert = ChangeAlert.unpack(raw)
            row = {
                "timestamp_us": alert.timestamp_us,
                "channel": alert.channel,
                "vote": alert.vote,
                **{f"p_{r.test_name}": r.p_value for r in alert.results},
                **{f"reject_{r.test_name}": r.reject for r in alert.results},
            }
            self.metrics.evaluations.append(row)
            if not alert.vote:
                return []
            self.metrics.alerts.append(row)
            return [AppendEffect(UCSB, "alerts", alert.pack())]

        self.ucsb.engine.register_handler("alert.filter", filter_votes)
        self.ucsb.engine.bind(self.graph.out_log("detect"), "alert.filter")

    def _audit(self, event: dict) -> None:
        self.nd.append_local("pilot_events", json.dumps(event, sort_keys=True).encode()[:256])

    # -- processes ----------------------------------------------------------

    def station(self):
        """Telemetry source at the edge; one record per cadence interval."""
        rng = self.sim.rng("weather")
        count = int(self.params.duration_s // self.params.cadence_s)
        for i in range(1, count + 1):
            target_us = s_to_us(i * self.params.cadence_s)
            if target_us > self.sim.now_us:
                yield sleep(target_us - self.sim.now_us)
            record = self.weather.record_at(i * self.params.cadence_s, rng)
            t0 = self.sim.now_us
            yield from self.unl.remote_append(UCSB, "telemetry", record.pack())
            self.metrics.telemetry_latency_ms.append((self.sim.now_us - t0) / 1000.0)

    def evaluator(self):
        """Duty-cycle change detection at the repository node."""
        p = self.params
        ticks = int(p.duration_s // p.duty_cycle_s)
        for m in range(2, ticks + 1):
            target_us = s_to_us(m * p.duty_cycle_s + p.eval_offset_s)
            if target_us > self.sim.now_us:
                yield sleep(target_us - self.sim.now_us)
            records = self._telemetry_window(m)
            if len(records) != 2 * WINDOW_LEN:
                self.metrics.skipped_evaluations += 1
                continue
            pair = b"".join(r.pack() for r in records)
            yield from self.graph.inject(self.ucsb, "detect", "pair",
                                         iteration=m, value=pair)

    def _telemetry_window(self, m: int) -> list[TelemetryRecord]:
        """The records of duty cycles m-1 and m. The one station appends each
        record exactly once and in order, so record i lands as seq i. The
        timestamp filter stays: after a missing or late record the window
        comes up short and is skipped instead of shifting."""
        p = self.params
        lo_us, hi_us = s_to_us((m - 2) * p.duty_cycle_s), s_to_us(m * p.duty_cycle_s)
        store = self.ucsb.registry.get("telemetry")
        entries = store.scan((m - 2) * WINDOW_LEN + 1, m * WINDOW_LEN).entries
        records = [TelemetryRecord.unpack(e.payload) for e in entries]
        return [r for r in records if lo_us < r.timestamp_us <= hi_us]

    def forwarder(self):
        """Pushes fresh vote=true alerts to the HPC node each duty cycle."""
        p = self.params
        forwarded = 0
        ticks = int(p.duration_s // p.duty_cycle_s)
        for m in range(2, ticks + 2):
            target_us = s_to_us(m * p.duty_cycle_s + p.forward_offset_s)
            if target_us > self.sim.now_us:
                yield sleep(target_us - self.sim.now_us)
            store = self.ucsb.registry.get("alerts")
            result = store.scan(forwarded + 1, store.next_seq - 1)
            for entry in result.entries:
                iteration = entry.seq - 1
                yield from self.graph.inject(self.ucsb, "cfd", "alert",
                                             iteration=iteration,
                                             value=entry.payload)
                forwarded = entry.seq

    # -- run -------------------------------------------------------------------

    def run(self) -> CupsMetrics:
        self.controller.start()
        self.sim.spawn(self.station(), name="station")
        self.sim.spawn(self.evaluator(), name="evaluator")
        self.sim.spawn(self.forwarder(), name="forwarder")
        # generous tail so queued pilots and in-flight tasks finish; a task
        # still running past it leaves every_alert_completed false
        self.sim.run(until_us=s_to_us(self.params.duration_s + 48 * 3600))
        for result in self.controller.results:
            validity_s = (self.params.duty_cycle_s
                          - (result.complete_us - result.telemetry_timestamp_us) / 1e6)
            self.metrics.tasks.append({**asdict(result), "validity_s": validity_s})
        self.metrics.handler_failures = sum(len(n.engine.failures)
                                            for n in self.nodes.values())
        return self.metrics

    def check_invariants(self) -> dict[str, bool]:
        alert_ts = {a["timestamp_us"] for a in self.metrics.alerts}
        tasks_have_alerts = all(t["telemetry_timestamp_us"] in alert_ts
                                for t in self.metrics.tasks)
        telemetry = self.ucsb.registry.get("telemetry")
        head = telemetry.next_seq - 1
        expected = int(self.params.duration_s // self.params.cadence_s)
        return {
            "no_task_without_alert": tasks_have_alerts,
            "every_alert_completed": len(self.metrics.tasks) == len(self.metrics.alerts),
            "telemetry_complete": head == expected,
            "no_handler_failures": self.metrics.handler_failures == 0,
        }


def sustained_rate_s(sim: Simulator, tasks: int, cores: int,
                     cost_model: CfdCostModel) -> list[float]:
    """Gaps between completions of `tasks` back-to-back runs of the stub: each
    run after the first, as the clock sees it. The runtimes come from `sim`'s
    `sustained` stream, which depends only on the seed."""
    rng = sim.rng("sustained")
    runtimes = [cost_model.sample_runtime_s(cores, rng) for _ in range(tasks)]
    return [s_to_us(r) / 1e6 for r in runtimes[1:]]
