import hashlib
import json

import numpy as np
import pytest

from fabricsim.errors import ConfigError
from fabricsim.netsim import LinkSpec, Network
from fabricsim.pilot import CfdCostModel, QueueDelayModel, SystemSpec
from fabricsim.pipeline import CupsParams, CupsPipeline, sustained_rate_s
from fabricsim.runner import run_scenario
from fabricsim.scenario import load_scenario
from fabricsim.simcore import Simulator
from fabricsim.weather import ChannelModel, WeatherModel


def build_pipeline(tmp_path, seed, duration_s=14400, shift=(7300.0, 6.0),
                   noise=0.1, strategy="proactive",
                   queue=QueueDelayModel("constant", 0)):
    sim = Simulator(seed=seed)
    links = [
        LinkSpec("unl-ucsb", "unl-edge", "ucsb-repo", 25.25, 8.5,
                 base_capacity_mbps=10_000.0),
        LinkSpec("ucsb-nd", "ucsb-repo", "nd-hpc", 23.0, 0.5,
                 base_capacity_mbps=10_000.0),
    ]
    network = Network(sim, links)
    changes = (shift,) if shift else ()
    weather = WeatherModel(channels={
        "wind_speed": ChannelModel(2.0, noise, changes=changes)})
    params = CupsParams(duration_s=duration_s, strategy=strategy)
    system = SystemSpec(total_nodes=4, cores_per_node=64, queue_delay=queue)
    return CupsPipeline(sim, network, tmp_path, params, weather, system,
                        CfdCostModel())


def test_scenario_too_short_rejected(tmp_path):
    with pytest.raises(ConfigError):
        CupsParams(duration_s=1800)


def test_window_cadence_must_tile_duty_cycle(tmp_path):
    with pytest.raises(ConfigError):
        CupsParams(duration_s=7200, cadence_s=400)


def test_regime_shift_produces_one_alert_within_one_duty_cycle(tmp_path):
    pipe = build_pipeline(tmp_path, seed=16)
    metrics = pipe.run()
    assert len(metrics.alerts) == 1
    alert_s = metrics.alerts[0]["timestamp_us"] / 1e6
    assert 0 < alert_s - 7300.0 <= 1800.0
    assert pipe.check_invariants() == {
        "no_task_without_alert": True,
        "every_alert_completed": True,
        "telemetry_complete": True,
        "no_handler_failures": True,
    }


def test_no_shift_low_noise_rarely_alerts(tmp_path):
    pipe = build_pipeline(tmp_path, seed=6, shift=None, noise=0.05,
                          duration_s=10800)
    metrics = pipe.run()
    assert metrics.alerts == []
    assert metrics.tasks == []


def test_alert_triggers_task_with_validity_window(tmp_path):
    pipe = build_pipeline(tmp_path, seed=16)
    metrics = pipe.run()
    assert len(metrics.tasks) == 1
    task = metrics.tasks[0]
    # retrospective result stays valid for the rest of the duty cycle
    expected = 1800.0 - (task["complete_us"] - task["telemetry_timestamp_us"]) / 1e6
    assert task["validity_s"] == pytest.approx(expected, abs=1e-6)
    assert task["validity_s"] >= 23 * 60


def test_telemetry_latency_tracks_configured_path(tmp_path):
    pipe = build_pipeline(tmp_path, seed=16)
    metrics = pipe.run()
    mean = np.mean(metrics.telemetry_latency_ms)
    assert mean == pytest.approx(101.0, abs=2 * 17.0)


def test_evaluations_only_on_complete_windows(tmp_path):
    # 2 duty cycles: the first evaluation needs two full windows, so exactly
    # one evaluation happens at the end of cycle 2
    pipe = build_pipeline(tmp_path, seed=5, duration_s=3600, shift=None)
    metrics = pipe.run()
    assert len(metrics.evaluations) == 1
    assert metrics.skipped_evaluations == 0


def test_reactive_strategy_with_queue_delay_still_completes(tmp_path):
    pipe = build_pipeline(tmp_path, seed=16, strategy="reactive",
                          queue=QueueDelayModel("constant", 3600.0))
    metrics = pipe.run()
    assert len(metrics.alerts) == 1
    assert len(metrics.tasks) == 1
    # queue delay pushes completion past the validity horizon: still recorded
    assert metrics.tasks[0]["validity_s"] < 0


def test_proactive_strategy_beats_reactive_on_validity(tmp_path):
    queue = QueueDelayModel("constant", 1800.0)
    reactive = build_pipeline(tmp_path / "r", seed=16, strategy="reactive",
                              queue=queue).run()
    proactive = build_pipeline(tmp_path / "p", seed=16, strategy="proactive",
                               queue=queue).run()
    assert proactive.tasks[0]["validity_s"] > reactive.tasks[0]["validity_s"]


def test_sustained_rate_about_seven_minutes():
    gaps = sustained_rate_s(seed=16, tasks=8)
    mean_gap = float(np.mean(gaps))
    assert 420.39 * 0.9 <= mean_gap <= 420.39 * 1.1


def test_multi_channel_or_voting_catches_temperature_shift(tmp_path):
    sim = Simulator(seed=16)
    links = [
        LinkSpec("unl-ucsb", "unl-edge", "ucsb-repo", 25.25, 8.5,
                 base_capacity_mbps=10_000.0),
        LinkSpec("ucsb-nd", "ucsb-repo", "nd-hpc", 23.0, 0.5,
                 base_capacity_mbps=10_000.0),
    ]
    network = Network(sim, links)
    weather = WeatherModel(channels={
        "wind_speed": ChannelModel(2.0, 0.1),
        "temperature": ChannelModel(22.0, 0.2, changes=((7300.0, 30.0),))})
    params = CupsParams(duration_s=14400,
                        channels=("wind_speed", "temperature"))
    system = SystemSpec(total_nodes=4, cores_per_node=64,
                        queue_delay=QueueDelayModel("constant", 0))
    pipe = CupsPipeline(sim, network, tmp_path, params, weather, system,
                        CfdCostModel())
    metrics = pipe.run()
    assert len(metrics.alerts) >= 1
    first = metrics.alerts[0]
    assert first["channel"] == "temperature"
    assert first["timestamp_us"] / 1e6 == pytest.approx(9000.0)


def test_pilot_audit_log_populated(tmp_path):
    pipe = build_pipeline(tmp_path, seed=16)
    pipe.run()
    audit = pipe.nd.registry.get("pilot_events")
    kinds = [e.payload for e in audit.scan(1, audit.next_seq - 1).entries]
    assert any(b"pilot-submit" in k for k in kinds)
    assert any(b"task-complete" in k for k in kinds)


def test_week_long_cups_evaluation_history_pinned(tmp_path):
    # the bundled run makes only 7 evaluations; a week at seed 16 makes 335,
    # past the detector log's 128 h retention, and pins every p-value and
    # reject flag that reaches a report
    config = load_scenario("e2e_cups")
    config["cups"]["duration_s"] = 168 * 3600.0
    _, series, ok = run_scenario(config, tmp_path, seed=16)
    evaluations = series["evaluations"][1]
    assert ok and len(evaluations) == 335
    assert hashlib.sha256(json.dumps(evaluations).encode()).hexdigest() \
        == "cbfcc2c812853493d345cd133b677f34a5c1c11e74874989816dd984c40fa887"
