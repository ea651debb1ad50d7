import time

import numpy as np
import pytest

from fabricsim.errors import ConfigError, InsufficientResources
from fabricsim.pilot import (
    RUNTIME_TABLE,
    CfdCostModel,
    Facility,
    PilotController,
    PilotSpec,
    QueueDelayModel,
    SystemSpec,
    TaskResult,
    TaskSpec,
    available_nodes,
    check_task_fits,
    decide_submit,
    pilot_parameters,
    required_nodes,
)
from fabricsim.simcore import Simulator, s_to_us, sleep


# -- allocation equations -----------------------------------------------------

def test_required_nodes_zero_data_floors_at_one():
    assert required_nodes(0, 1024) == 1


def test_required_nodes_boundary_equal_threshold():
    assert required_nodes(1024, 1024) == 1


def test_required_nodes_rounds_up():
    # 2.5x threshold needs 3 nodes: never under-provision
    assert required_nodes(2560, 1024) == 3


def test_required_nodes_rejects_bad_threshold():
    with pytest.raises(ConfigError):
        required_nodes(10, 0)


def test_available_nodes_empty():
    assert available_nodes([], now_us=0) == 0


def test_available_nodes_counts_active_only():
    active = PilotSpec(1, 4, 3600.0, submit_time_us=0, activate_time_us=0)
    queued = PilotSpec(2, 8, 3600.0, submit_time_us=0, activate_time_us=None)
    assert available_nodes([active, queued], now_us=10) == 4
    assert available_nodes([active, queued], now_us=10, include_queued=True) == 12


def test_available_nodes_sums_active():
    pilots = [PilotSpec(1, 2, 3600.0, 0, 0), PilotSpec(2, 3, 3600.0, 0, 0)]
    assert available_nodes(pilots, now_us=100) == 5


def test_expired_pilot_not_counted():
    pilot = PilotSpec(1, 4, runtime_s=10.0, submit_time_us=0, activate_time_us=0)
    assert available_nodes([pilot], now_us=s_to_us(11)) == 0


def test_decide_submit_cases():
    assert decide_submit(4, 4) is False   # available >= required
    assert decide_submit(4, 3) is True    # available < required
    assert decide_submit(1, 0) is True    # cold start


def test_pilot_parameters_clamps():
    system = SystemSpec(total_nodes=4, max_runtime_s=48 * 3600.0)
    assert pilot_parameters(10, 420.0, system) == (4, 420.0)
    assert pilot_parameters(1, 420.39, system) == (1, 420.39)
    assert pilot_parameters(2, 1e9, system) == (2, 48 * 3600.0)


def test_decision_logic_exhaustive_grid():
    # exhaustive over the documented case split and clamping behaviour
    system = SystemSpec(total_nodes=4, max_runtime_s=1000.0)
    for n_req in range(0, 17):
        for n_avail in range(0, 17):
            assert decide_submit(n_req, n_avail) == (n_avail < n_req)
            nodes, runtime = pilot_parameters(max(n_req, 1), 420.0, system)
            assert nodes == min(4, max(n_req, 1))
            assert runtime == 420.0


# -- queue delay models ------------------------------------------------------------

def test_queue_delay_constant():
    rng = np.random.default_rng(1)
    model = QueueDelayModel("constant", 900.0)
    assert model.sample_s(rng) == 900.0


def test_queue_delay_uniform_bounds():
    rng = np.random.default_rng(2)
    model = QueueDelayModel("uniform", 7200.0)
    samples = [model.sample_s(rng) for _ in range(200)]
    assert all(0.0 <= s <= 7200.0 for s in samples)


def test_queue_delay_lognormal_clamped_to_24h():
    rng = np.random.default_rng(3)
    model = QueueDelayModel("lognormal", mu=11.0, sigma=2.0)
    samples = [model.sample_s(rng) for _ in range(500)]
    assert max(samples) <= 24 * 3600.0
    assert min(samples) >= 0.0


# -- facility lifecycle ---------------------------------------------------------------

def test_pilot_activates_after_queue_delay():
    sim = Simulator(seed=1)
    system = SystemSpec(queue_delay=QueueDelayModel("constant", 600.0))
    facility = Facility(sim, system)
    pilot = facility.submit_pilot(2, 3600.0)
    assert pilot.state_at(sim.now_us) == "queued"
    sim.run(until_us=s_to_us(599))
    assert pilot.state_at(sim.now_us) == "queued"
    sim.run()
    assert pilot.activate_time_us == s_to_us(600)
    assert pilot.state_at(pilot.activate_time_us) == "active"


def test_pilot_expires_after_runtime():
    sim = Simulator(seed=1)
    system = SystemSpec(queue_delay=QueueDelayModel("constant", 0.0))
    facility = Facility(sim, system)
    pilot = facility.submit_pilot(1, runtime_s=100.0)
    sim.run()
    assert pilot.state_at(s_to_us(50)) == "active"
    assert pilot.state_at(s_to_us(101)) == "expired"


def test_facility_queries_skip_expired_pilots(monkeypatch):
    # time only moves forward, so a query need not look at a pilot again once
    # it has expired: its cost follows the live pilots, not every pilot ever
    # submitted
    sim = Simulator(seed=1)
    facility = Facility(sim, SystemSpec(queue_delay=QueueDelayModel("constant", 0.0)))
    for _ in range(100):
        facility.submit_pilot(1, 10.0)
        sim.run(until_us=sim.now_us + s_to_us(20))
        assert facility.available_nodes(include_queued=True) == 0
    calls = []
    state_at = PilotSpec.state_at
    monkeypatch.setattr(PilotSpec, "state_at",
                        lambda pilot, now_us: calls.append(pilot) or state_at(pilot, now_us))
    live = facility.submit_pilot(1, 10.0)
    sim.run()
    assert facility.active_pilots() == [live]
    assert facility.available_nodes() == 1
    assert live.pilot_id == 101
    assert len(calls) <= 4


def test_pilot_runtime_capped_on_first_submit_and_resubmit():
    sim = Simulator(seed=1)
    system = SystemSpec(total_nodes=1, cores_per_node=64, max_runtime_s=3600.0,
                        queue_delay=QueueDelayModel("constant", 0.0))
    facility = Facility(sim, system)
    submits = []
    submit_pilot = facility.submit_pilot
    facility.submit_pilot = lambda nodes, runtime_s, delay_key=None: (
        submits.append((delay_key, runtime_s)) or submit_pilot(nodes, runtime_s, delay_key))
    # 2,048 bytes at 1,024 per node would take two nodes, but the request is
    # capped at the one node the facility has, and that node's pilot is enough
    task = TaskSpec(2048, 1024, 7200.0, 64, telemetry_timestamp_us=5)
    controller = PilotController(facility, CfdCostModel(), strategy="reactive")
    sim.spawn(controller.handle_task(task))
    sim.run(until_us=s_to_us(60))
    assert submits == [(5, 3600.0)]


def test_task_wider_than_the_facility_submits_one_pilot():
    # 8,192 bytes ask for 8 nodes of a 1 x 64 facility; an uncapped request
    # stays unfilled while the pilot queues, and `_acquire` used to resubmit
    # on every 300 s wake until 8 pilots were queued
    sim = Simulator(seed=1)
    system = SystemSpec(total_nodes=1, cores_per_node=64,
                        queue_delay=QueueDelayModel("constant", 3 * 3600.0))
    facility = Facility(sim, system)
    submits = []
    submit_pilot = facility.submit_pilot
    facility.submit_pilot = lambda nodes, runtime_s, delay_key=None: (
        submits.append(nodes) or submit_pilot(nodes, runtime_s, delay_key))
    controller = PilotController(facility, CfdCostModel(), strategy="reactive")
    proc = sim.spawn(controller.handle_task(TaskSpec(8192, 1024, 420.0, 64)))
    sim.run()
    assert submits == [1]
    assert proc.result.complete_us > s_to_us(3 * 3600)


def test_handle_task_no_pilot_can_host_raises_before_any_submit():
    # driven directly, without a pipeline's build-time check: 64 cores on a
    # 1 x 32-core facility would otherwise resubmit a pilot every 300 s forever
    sim = Simulator(seed=1)
    system = SystemSpec(total_nodes=1, cores_per_node=32,
                        queue_delay=QueueDelayModel("constant", 0.0))
    facility = Facility(sim, system)
    controller = PilotController(facility, CfdCostModel(), strategy="reactive")
    sim.spawn(controller.handle_task(TaskSpec(0, 1024, 420.0, 64)))
    started = time.process_time()
    with pytest.raises(ConfigError, match="64 cores .* 1 x 32"):
        sim.run()
    assert time.process_time() - started < 1.0
    assert facility.pilots == [] and sim.now_us == 0


def test_execute_task_on_queued_pilot_rejected():
    sim = Simulator(seed=1)
    system = SystemSpec(queue_delay=QueueDelayModel("constant", 3600.0))
    facility = Facility(sim, system)
    pilot = facility.submit_pilot(1, 3600.0)
    task = TaskSpec(0, 1024, 420.0, 64)
    with pytest.raises(InsufficientResources):
        next(facility.execute_task(task, pilot, CfdCostModel(), sim.rng("task")))


def test_execute_task_needs_enough_cores():
    sim = Simulator(seed=1)
    system = SystemSpec(cores_per_node=64, queue_delay=QueueDelayModel("constant", 0))
    facility = Facility(sim, system)
    pilot = facility.submit_pilot(1, 3600.0)
    sim.run()
    task = TaskSpec(0, 1024, 420.0, cores=128)
    with pytest.raises(InsufficientResources):
        next(facility.execute_task(task, pilot, CfdCostModel(), sim.rng("task")))


def test_execute_task_completes_after_sampled_runtime():
    sim = Simulator(seed=4)
    system = SystemSpec(queue_delay=QueueDelayModel("constant", 0))
    facility = Facility(sim, system)
    pilot = facility.submit_pilot(1, 7200.0)
    sim.run()

    def driver():
        task = TaskSpec(0, 1024, 420.0, 64)
        result = yield from facility.execute_task(task, pilot, CfdCostModel(),
                                                  sim.rng("task"))
        return result

    proc = sim.spawn(driver())
    sim.run()
    result = proc.result
    assert isinstance(result, TaskResult)
    assert result.complete_us - result.start_us == pytest.approx(
        result.runtime_s * 1e6, abs=1)
    assert 250 < result.runtime_s < 600


# -- cost model statistics ---------------------------------------------------------------

def test_reference_runtime_statistics():
    rng = np.random.default_rng(77)
    model = CfdCostModel()
    samples = np.array([model.sample_runtime_s(64, rng) for _ in range(1000)])
    assert 413.0 <= samples.mean() <= 428.0
    assert 32.0 <= samples.std(ddof=1) <= 41.0


def test_multi_node_total_time_slower_than_single_node():
    model = CfdCostModel()
    assert model.mean_for(64, nodes=2) > model.mean_for(64, nodes=1)
    assert model.mean_for(64, nodes=4) > model.mean_for(64, nodes=2)


def test_runtime_table_monotone_decreasing_in_cores():
    model = CfdCostModel()
    cores = sorted(RUNTIME_TABLE)
    means = [model.mean_for(c) for c in cores]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert model.mean_for(64) == pytest.approx(420.39)


def test_unknown_core_count_rejected():
    with pytest.raises(ConfigError):
        CfdCostModel().mean_for(48)


def test_check_task_fits_rejects_tasks_no_pilot_can_run():
    system = SystemSpec(total_nodes=2, cores_per_node=32)
    check_task_fits(64, system, CfdCostModel())  # two full nodes
    with pytest.raises(ConfigError, match="65 cores .* 2 x 32"):
        check_task_fits(65, system, CfdCostModel())
    with pytest.raises(ConfigError, match="no runtime table entry for 48 cores"):
        check_task_fits(48, system, CfdCostModel())


def test_task_result_pack_round_trip():
    result = TaskResult(3, 64, 1_000_000, 421_390_000, 420.39, 9_000_000_000)
    assert TaskResult.unpack(result.pack()) == result


# -- controller strategies ---------------------------------------------------------------

def _run_controller(strategy, delay_model, alerts=4, interval_s=1800.0, seed=17):
    sim = Simulator(seed=seed)
    system = SystemSpec(total_nodes=4, cores_per_node=64, queue_delay=delay_model)
    # shared stream label: strategies face identical queue/runtime draws
    facility = Facility(sim, system, stream_label="f")
    controller = PilotController(facility, CfdCostModel(), strategy=strategy)
    controller.start()
    latencies = []

    def driver():
        for i in range(alerts):
            issued = sim.now_us
            task = TaskSpec(672, 1024, 420.39, 64, telemetry_timestamp_us=i)
            result = yield from controller.handle_task(task)
            latencies.append((result.complete_us - issued) / 1e6)
            wake = issued + s_to_us(interval_s)
            if wake > sim.now_us:
                yield sleep(wake - sim.now_us)

    sim.spawn(driver())
    sim.run()
    return latencies


def test_proactive_placeholder_beats_reactive_under_queue_delay():
    for delay in (QueueDelayModel("constant", 900.0),
                  QueueDelayModel("uniform", 7200.0),
                  QueueDelayModel("lognormal", mu=7.5, sigma=1.0)):
        reactive = _run_controller("reactive", delay)
        proactive = _run_controller("proactive", delay)
        assert np.mean(proactive) < np.mean(reactive), delay


def test_proactive_reduction_holds_in_expectation():
    # strict mean reduction over replications; any single realization is only
    # guaranteed not-worse (the placeholder may draw a tail queue delay)
    for delay in (QueueDelayModel("uniform", 7200.0),
                  QueueDelayModel("lognormal", mu=7.0, sigma=1.5)):
        reactive, proactive = [], []
        for seed in range(40, 45):
            reactive.extend(_run_controller("reactive", delay, seed=seed))
            proactive.extend(_run_controller("proactive", delay, seed=seed))
        assert np.mean(proactive) < np.mean(reactive), delay
        assert all(p <= r + 1e-9 for p, r in zip(proactive, reactive))


def test_zero_delay_strategies_equivalent_throughput():
    delay = QueueDelayModel("constant", 0.0)
    reactive = _run_controller("reactive", delay)
    proactive = _run_controller("proactive", delay)
    assert len(reactive) == len(proactive) == 4


def test_backlog_progress_under_heavy_queue_delay():
    # every alert eventually completes even when pilots appear hours late
    latencies = _run_controller("reactive", QueueDelayModel("uniform", 12 * 3600.0),
                                alerts=6, interval_s=600.0, seed=23)
    assert len(latencies) == 6


def test_audit_events_emitted():
    sim = Simulator(seed=2)
    facility = Facility(sim, SystemSpec(queue_delay=QueueDelayModel("constant", 0)))
    seen = []
    facility.on_event = seen.append
    facility.submit_pilot(1, 3600.0)
    sim.run()
    kinds = [e["kind"] for e in seen]
    assert kinds == ["pilot-submit", "pilot-active"]
