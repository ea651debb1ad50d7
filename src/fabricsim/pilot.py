"""Pilot controller over a simulated batch facility.

The allocation decision logic: size the node request from the incoming data
volume, count nodes already active in pilots, submit a new pilot only when
the active capacity falls short, and clamp submission parameters to the
facility limits. A proactive strategy parks a single-node placeholder pilot
in the queue ahead of demand so queueing delay overlaps idle time instead of
adding to response time; the reactive strategy submits on demand.

The embedded simulation task is a cost-model stub: a 64-core run completes
in normal(420.39, 36.29) seconds, other core counts follow a fixed table,
and spanning more than one node slows the end-to-end task down.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientResources
from .simcore import Simulator, Trigger, s_to_us, sleep, wait

HOURS_24_S = 24 * 3600.0
MAX_LOG_DELAY = 50.0  # bounds a lognormal delay's |mu| and sigma: e**50 s is far past 24 h
MAX_NODE_PENALTY = 10.0  # bounds the runtime factor of each node past the first

REFERENCE_CORES = 64
REFERENCE_MEAN_S = 420.39
REFERENCE_SD_S = 36.29
# data volume one node handles; larger task inputs get more nodes
DEFAULT_THRESHOLD_BYTES = 1024
# single-node scaling fit: serial floor plus a parallelizable share anchored
# at the measured 64-core point
_SERIAL_S = 180.0
_PARALLEL_S = (REFERENCE_MEAN_S - _SERIAL_S) * REFERENCE_CORES
# mean runtime by core count; the reference point itself uses mean_runtime_s
RUNTIME_TABLE = {c: _SERIAL_S + _PARALLEL_S / c for c in (1, 2, 4, 8, 16, 32, 64)}


# -- allocation decision logic ----------------------------------------------

def required_nodes(data_size_bytes: int, threshold_bytes: int) -> int:
    """Nodes needed for a data volume; at least one, rounded up so the
    request never under-provisions."""
    if threshold_bytes <= 0:
        raise ConfigError("threshold must be positive")
    if data_size_bytes < 0:
        raise ConfigError("data size cannot be negative")
    return max(1, math.ceil(data_size_bytes / threshold_bytes))


def available_nodes(pilots, now_us: int, include_queued: bool = False) -> int:
    states = {"active", "queued"} if include_queued else {"active"}
    return sum(p.nodes for p in pilots if p.state_at(now_us) in states)


def decide_submit(n_req: int, n_avail: int) -> bool:
    """True when a new pilot must be submitted (available < required)."""
    return n_avail < n_req


def pilot_parameters(n_req: int, estimated_runtime_s: float,
                     system: "SystemSpec") -> tuple[int, float]:
    nodes = min(system.total_nodes, n_req)
    runtime = min(system.max_runtime_s, estimated_runtime_s)
    return nodes, runtime


def check_task_fits(cores: int, system: SystemSpec, cost_model: CfdCostModel) -> None:
    """Build-time check: a task no pilot can host would wait for capacity
    forever, and a core count with no runtime would fail only once it runs."""
    if cores > system.total_nodes * system.cores_per_node:
        raise ConfigError(f"task needs {cores} cores but the facility has "
                          f"{system.total_nodes} x {system.cores_per_node}")
    cost_model.mean_for(cores)  # ConfigError when the runtime table has no entry


# -- facility model ------------------------------------------------------------

@dataclass(frozen=True)
class QueueDelayModel:
    """Queue wait sampler; samples are clamped into [0, 24 h]."""

    kind: str = "constant"   # constant | uniform | lognormal
    value_s: float = 0.0     # constant value, or uniform upper bound
    mu: float = 7.0          # lognormal log-scale parameters
    sigma: float = 1.5

    def sample_s(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            delay = self.value_s
        elif self.kind == "uniform":
            delay = rng.uniform(0.0, self.value_s)
        elif self.kind == "lognormal":
            delay = rng.lognormal(self.mu, self.sigma)
        else:
            raise ConfigError(f"unknown queue delay model {self.kind!r}")
        return float(min(max(delay, 0.0), HOURS_24_S))


@dataclass(frozen=True)
class SystemSpec:
    total_nodes: int = 4
    cores_per_node: int = 64
    max_runtime_s: float = 48 * 3600.0
    queue_delay: QueueDelayModel = QueueDelayModel()


@dataclass(frozen=True)
class TaskSpec:
    data_size_bytes: int
    threshold_bytes: int
    estimated_runtime_s: float
    cores: int
    telemetry_timestamp_us: int = 0


_TASK_RESULT = struct.Struct("<IIQQdQ")
TASK_RESULT_SIZE = _TASK_RESULT.size


@dataclass(frozen=True)
class TaskResult:
    pilot_id: int
    cores: int
    start_us: int
    complete_us: int
    runtime_s: float
    telemetry_timestamp_us: int

    def pack(self) -> bytes:
        return _TASK_RESULT.pack(self.pilot_id, self.cores, self.start_us,
                                 self.complete_us, self.runtime_s,
                                 self.telemetry_timestamp_us)

    @classmethod
    def unpack(cls, raw: bytes) -> "TaskResult":
        return cls(*_TASK_RESULT.unpack(raw[:TASK_RESULT_SIZE]))


@dataclass
class PilotSpec:
    pilot_id: int
    nodes: int
    runtime_s: float
    submit_time_us: int
    activate_time_us: int | None = None  # set when the queue delay is known

    def expire_time_us(self) -> int | None:
        if self.activate_time_us is None:
            return None
        return self.activate_time_us + s_to_us(self.runtime_s)

    def state_at(self, now_us: int) -> str:
        if self.activate_time_us is None or now_us < self.activate_time_us:
            return "queued"
        if now_us >= self.expire_time_us():
            return "expired"
        return "active"


@dataclass(frozen=True)
class CfdCostModel:
    """Runtime distribution of the simulation stub."""

    mean_runtime_s: float = REFERENCE_MEAN_S
    runtime_sd_s: float = REFERENCE_SD_S
    multi_node_penalty: float = 1.15

    def mean_for(self, cores: int, nodes: int = 1) -> float:
        if cores == REFERENCE_CORES:
            mean = self.mean_runtime_s
        elif cores in RUNTIME_TABLE:
            mean = RUNTIME_TABLE[cores]
        else:
            raise ConfigError(f"no runtime table entry for {cores} cores")
        if nodes > 1:
            mean *= self.multi_node_penalty ** (nodes - 1)
        return mean

    def sample_runtime_s(self, cores: int, rng: np.random.Generator,
                         nodes: int = 1) -> float:
        mean = self.mean_for(cores, nodes)
        sd = self.runtime_sd_s * mean / self.mean_runtime_s
        sample = rng.normal(mean, sd)
        return float(max(sample, 1.0))


class Facility:
    """Batch facility on the simulation clock: pilots queue, activate after a
    sampled delay, then expire once their runtime elapses.

    Queue delays are drawn from streams keyed by (stream_label, delay_key),
    so two runs that differ only in scheduling strategy face identical queue
    behaviour for the same demand (common random numbers)."""

    def __init__(self, sim: Simulator, system: SystemSpec, stream_label: str = "hpc"):
        self.sim = sim
        self.system = system
        self.stream_label = stream_label
        self.pilots: list[PilotSpec] = []  # expired pilots are dropped by the queries
        self._submitted = 0
        self.activation = Trigger()  # fires, and is replaced, per activation
        self.on_event = None  # optional hook(dict) for audit logging

    def _record(self, kind: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event({"t_us": self.sim.now_us, "kind": kind, **fields})

    def submit_pilot(self, nodes: int, runtime_s: float,
                     delay_key: str | int | None = None) -> PilotSpec:
        self._submitted += 1
        pilot = PilotSpec(self._submitted, nodes, runtime_s, self.sim.now_us)
        self.pilots.append(pilot)
        if delay_key is None:
            delay_key = pilot.pilot_id
        rng = self.sim.rng(f"queue:{self.stream_label}:{delay_key}")
        delay_s = self.system.queue_delay.sample_s(rng)
        self._record("pilot-submit", pilot=pilot.pilot_id, nodes=nodes,
                     runtime_s=runtime_s, queue_delay_s=delay_s)
        self.sim.schedule(s_to_us(delay_s), self._activate, pilot)
        return pilot

    def _activate(self, pilot: PilotSpec) -> None:
        pilot.activate_time_us = self.sim.now_us
        self._record("pilot-active", pilot=pilot.pilot_id)
        trigger, self.activation = self.activation, Trigger()
        trigger.fire(pilot)

    def active_pilots(self) -> list[PilotSpec]:
        now = self.sim.now_us
        self.pilots = [p for p in self.pilots if p.state_at(now) != "expired"]
        return [p for p in self.pilots if p.state_at(now) == "active"]

    def available_nodes(self, include_queued: bool = False) -> int:
        self.pilots = [p for p in self.pilots if p.state_at(self.sim.now_us) != "expired"]
        return available_nodes(self.pilots, self.sim.now_us, include_queued)

    def execute_task(self, task: TaskSpec, pilot: PilotSpec, model: CfdCostModel,
                     rng: np.random.Generator):
        """Process: run the stub on an active pilot; completes after the
        sampled runtime."""
        if pilot.state_at(self.sim.now_us) != "active":
            raise InsufficientResources(
                f"pilot {pilot.pilot_id} is {pilot.state_at(self.sim.now_us)}, "
                f"not active")
        if pilot.nodes * self.system.cores_per_node < task.cores:
            raise InsufficientResources(
                f"task needs {task.cores} cores, pilot has "
                f"{pilot.nodes * self.system.cores_per_node}")
        runtime_s = model.sample_runtime_s(task.cores, rng, nodes=pilot.nodes)
        start = self.sim.now_us
        self._record("task-start", pilot=pilot.pilot_id, cores=task.cores)
        yield sleep(s_to_us(runtime_s))
        result = TaskResult(pilot.pilot_id, task.cores, start, self.sim.now_us,
                            runtime_s, task.telemetry_timestamp_us)
        self._record("task-complete", pilot=pilot.pilot_id, runtime_s=runtime_s)
        return result


class PilotController:
    """Decision loop binding alerts to task executions."""

    def __init__(self, facility: Facility, cost_model: CfdCostModel, strategy: str):
        if strategy not in ("reactive", "proactive"):
            raise ConfigError(f"unknown pilot strategy {strategy!r}")
        self.facility = facility
        self.cost_model = cost_model
        self.strategy = strategy
        self.results: list[TaskResult] = []

    def start(self) -> None:
        """Proactive policy parks an initial single-node placeholder."""
        if self.strategy == "proactive":
            runtime = min(self.facility.system.max_runtime_s,
                          self.cost_model.mean_runtime_s * 1000)
            self.facility.submit_pilot(1, runtime, delay_key="placeholder")

    def nodes_for_task(self, task: TaskSpec) -> int:
        """At most the facility's nodes: `_acquire` resubmits while a request is unfilled."""
        system = self.facility.system
        by_data = required_nodes(task.data_size_bytes, task.threshold_bytes)
        by_cores = math.ceil(task.cores / system.cores_per_node)  # check_task_fits caps it
        return max(min(by_data, system.total_nodes), by_cores)

    def handle_task(self, task: TaskSpec):
        """Process: check the task fits (ConfigError), decide, wait for capacity, execute."""
        check_task_fits(task.cores, self.facility.system, self.cost_model)
        n_req = self.nodes_for_task(task)
        if decide_submit(n_req, self.facility.available_nodes()):
            self._submit(task, n_req, task.telemetry_timestamp_us)
        pilot = yield from self._acquire(task, n_req)
        rng = self.facility.sim.rng(
            f"task:{self.facility.stream_label}:{task.telemetry_timestamp_us}")
        result = yield from self.facility.execute_task(task, pilot,
                                                       self.cost_model, rng)
        self.results.append(result)
        return result

    def _submit(self, task: TaskSpec, n_req: int, delay_key: str | int) -> None:
        nodes, runtime = pilot_parameters(n_req, task.estimated_runtime_s,
                                          self.facility.system)
        self.facility.submit_pilot(nodes, runtime, delay_key=delay_key)

    def _acquire(self, task: TaskSpec, n_req: int):
        """Process: wait until an active pilot can host the task.

        Periodically re-evaluates the decision logic so a pilot that expired
        while we waited gets replaced instead of wedging the backlog."""
        per_node = self.facility.system.cores_per_node
        resubmits = 0
        while True:
            for pilot in self.facility.active_pilots():
                if pilot.nodes * per_node >= task.cores:
                    return pilot
            if self.facility.available_nodes(include_queued=True) < n_req:
                resubmits += 1
                self._submit(task, n_req, f"{task.telemetry_timestamp_us}:retry{resubmits}")
            yield wait(self.facility.activation, timeout_us=s_to_us(300))
