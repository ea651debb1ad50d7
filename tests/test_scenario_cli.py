import csv
import hashlib
import json
import math
import subprocess
import sys

import pytest

from fabricsim.cli import main
from fabricsim.errors import ConfigError
from fabricsim.framing import MAX_PAYLOAD
from fabricsim.logstore import HEADER_SIZE, LogStore
from fabricsim.metrics import summarize, write_report
from fabricsim.runner import run_scenario
from fabricsim.scenario import BUNDLED, load_scenario, validate_scenario

from .test_scenario_mutation import Hang, run_within_alarm


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_bundled_scenarios_load_and_validate():
    for name in BUNDLED:
        config = load_scenario(name)
        assert config["name"] == name


def test_unknown_top_level_key_named_in_error():
    config = load_scenario("table1")
    config["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown key: surprise"):
        validate_scenario(config)


def test_unknown_nested_key_named_in_error():
    config = load_scenario("table1")
    config["topology"]["links"][0]["fooo"] = 1
    with pytest.raises(ConfigError, match=r"unknown key: topology.links\[0\].fooo"):
        validate_scenario(config)


def test_missing_required_key_named():
    config = load_scenario("slicing")
    del config["slicing"]["fractions"]
    with pytest.raises(ConfigError, match="missing key: slicing.fractions"):
        validate_scenario(config)


def test_bad_value_type_rejected():
    config = load_scenario("table1")
    config["seed"] = "three"
    with pytest.raises(ConfigError, match="seed"):
        validate_scenario(config)
    config["seed"] = True  # a bool is not an integer
    with pytest.raises(ConfigError, match="^bad value for seed: expected integer$"):
        validate_scenario(config)
    config = load_scenario("e2e_cups")
    config["cups"]["duration_s"] = "long"
    with pytest.raises(ConfigError,
                       match=r"^bad value for cups\.duration_s: expected number$"):
        validate_scenario(config)
    config = load_scenario("table1")
    config["latency"]["measurements"][0]["use_cache"] = True
    validate_scenario(config)


def test_a_cached_latency_row_takes_one_round_trip_where_the_uncached_takes_two(tmp_path):
    # C3's band: the cached mean is half the uncached one, to within 10%
    config = load_scenario("table1")
    uncached = run_scenario(config, tmp_path / "uncached")[0]["latency_table"]
    config["latency"]["measurements"][1]["use_cache"] = True
    report, _, ok = run_scenario(config, tmp_path / "cached")
    cached = report["latency_table"]
    assert ok and cached[0] == uncached[0] and cached[2] == uncached[2]
    assert abs(cached[1]["mean_ms"] / uncached[1]["mean_ms"] - 0.5) <= 0.10 * 0.5


def test_unknown_scenario_kind_rejected():
    config = load_scenario("table1")
    config["kind"] = "mystery"
    with pytest.raises(ConfigError, match="unknown scenario kind"):
        validate_scenario(config)


def test_nonexistent_scenario_reference():
    with pytest.raises(ConfigError, match="scenario not found"):
        load_scenario("does-not-exist")


# -- runner: determinism and stats recomputation -----------------------------------

def test_table1_report_deterministic(tmp_path):
    config = load_scenario("table1")
    report1, series1, ok1 = run_scenario(config, tmp_path / "a")
    report2, series2, ok2 = run_scenario(config, tmp_path / "b")
    assert ok1 and ok2
    p1 = write_report(tmp_path / "a", report1, series1)
    p2 = write_report(tmp_path / "b", report2, series2)
    assert p1.read_bytes() == p2.read_bytes()
    for name in series1:
        assert (tmp_path / "a" / f"{name}.csv").read_bytes() == \
            (tmp_path / "b" / f"{name}.csv").read_bytes()


# sha256 over the relative path, size and bytes of every file a bundled
# scenario writes at its bundled seed, state logs, .dedup journals and the
# nodes' element-sizes.json files included
BUNDLED_OUTPUT_SHA256 = {
    "table1": "5346866d96afe066a01914fcac05726cf2a45bbe90653c55323d898c6b520f24",
    "slicing": "93a9cb9c03fa6590a59bf80aca3bbbbb17dfd66663cd5631ec9c488c0aeb30f9",
    "e2e_cups": "9d781de5e94f81a980d42d52dc81a290485cd2ac4b5128a152fff64ca6afacb4",
    "queue_sweep": "6567ca6cb150c6bdff1d837e01aa1e737d901682735557005f93e4b0d729fe76",
}


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_output_directory_pinned(tmp_path, name):
    report, series, ok = run_scenario(load_scenario(name), tmp_path)
    assert ok
    write_report(tmp_path, report, series)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(tmp_path).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    assert digest.hexdigest() == BUNDLED_OUTPUT_SHA256[name]


def test_different_seed_changes_report(tmp_path):
    config = load_scenario("table1")
    report1, _, _ = run_scenario(config, tmp_path / "a", seed=1)
    report2, _, _ = run_scenario(config, tmp_path / "b", seed=2)
    assert report1 != report2


def test_latency_summary_recomputable_from_raw_csv(tmp_path):
    config = load_scenario("table1")
    report, series, ok = run_scenario(config, tmp_path)
    write_report(tmp_path, report, series)
    raw = read_csv(tmp_path / "latency_samples.csv")
    table = {row["label"]: row for row in read_csv(tmp_path / "latency_table.csv")}
    for label, row in table.items():
        samples = [float(r["latency_ms"]) for r in raw if r["label"] == label]
        stats = summarize(samples)
        assert stats["mean"] == pytest.approx(float(row["mean_ms"]), rel=1e-9)
        assert stats["sd"] == pytest.approx(float(row["sd_ms"]), rel=1e-9)
        assert stats["n"] == int(row["n"])


def test_slicing_summary_recomputable_from_raw_csv(tmp_path):
    config = load_scenario("slicing")
    report, series, ok = run_scenario(config, tmp_path)
    assert ok
    write_report(tmp_path, report, series)
    raw = read_csv(tmp_path / "slicing_samples.csv")
    for row in read_csv(tmp_path / "slicing_curve.csv"):
        samples = [float(r["mbps"]) for r in raw
                   if r["config"] == row["config"] and r["ue"] == row["ue"]]
        stats = summarize(samples)
        assert stats["mean"] == pytest.approx(float(row["mean_mbps"]), rel=1e-9)
        assert stats["sd"] == pytest.approx(float(row["sd_mbps"]), rel=1e-9)


# -- CLI ------------------------------------------------------------------------------

def test_cli_run_table1_exit_zero(tmp_path, capsys):
    code = main(["run", "--scenario", "table1", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "invariants: all held" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"] == "table1"
    assert len(report["latency_table"]) == 3


def test_cli_rejects_bad_config_with_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    config = load_scenario("table1")
    config["latency"]["measurements"][0]["typo_key"] = True
    bad.write_text(json.dumps(config))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "typo_key" in err


def _set_key(config: dict, path: str, value) -> None:
    """Set a dotted key path, with list indexes as numbers, in a scenario."""
    *parents, last = path.split(".")
    for key in parents:
        config = config[int(key)] if isinstance(config, list) else config.setdefault(key, {})
    config[int(last) if isinstance(config, list) else last] = value


@pytest.mark.parametrize("scenario, edits, named", [
    ("e2e_cups", {"cups.pilot.strategy": "bogus"}, "bogus"),
    # values the schema's types accept but `LinkSpec` rejects
    ("e2e_cups", {"topology.links.0.loss_prob": 1.5}, "topology.links[0]"),
    ("e2e_cups", {"topology.links.0.duplicate_prob": 1.0}, "topology.links[0]"),
    ("e2e_cups", {"topology.links.0.base_capacity_mbps": 0}, "topology.links[0]"),
    # values the schema's types accept that used to crash or fail every evaluation
    ("e2e_cups", {"cups.cadence_s": 0, "cups.duty_cycle_s": 0}, "cadence_s"),
    ("e2e_cups", {"cups.cadence_s": -300, "cups.duty_cycle_s": -1800}, "cadence_s"),
    ("e2e_cups", {"cups.alpha": 1.5}, "alpha"),
    ("e2e_cups", {"cups.channels": ["nope"]}, "channels"),
    ("e2e_cups", {"cups.channels": []}, "channels"),
    ("e2e_cups", {"cups.cost_model.runtime_sd_s": -1}, "runtime_sd_s"),
    ("e2e_cups", {"cups.weather.channels.wind_speed.noise_sd": -1}, "noise_sd"),
    ("queue_sweep", {"queue_sweep.delays.2.value_s": -5}, "value_s"),
    ("queue_sweep", {"queue_sweep.alerts": 0}, "queue_sweep.alerts"),
    ("queue_sweep", {"queue_sweep.alert_interval_s": -5}, "queue_sweep.alert_interval_s"),
    ("slicing", {"slicing.link": "nope"}, "slicing.link"),
    # values that used to end in a traceback
    ("e2e_cups", {"cups.cost_model.mean_runtime_s": 0}, "mean_runtime_s"),
    ("slicing", {"slicing.ue_low.efficiency": 0}, "slicing.ue_low.efficiency"),
    ("slicing", {"slicing.ue_high.efficiency": -1}, "slicing.ue_high.efficiency"),
    ("slicing", {"slicing.noise_sd_mbps": -1}, "slicing.noise_sd_mbps"),
    ("table1", {"topology.routes": {"unl-edge-5g->ucsb-repo": ["nope"]}}, "topology.routes"),
    # values that used to exit 1 once the run had started
    ("slicing", {"slicing.samples": 0}, "slicing.samples"),
    ("slicing", {"slicing.duration_s": 0}, "slicing.duration_s"),
    ("slicing", {"slicing.fractions": [0.1] * 10}, "slicing.fractions"),
    ("slicing", {"slicing.fractions": [0.0, 0.5]}, "slicing.fractions"),
    ("slicing", {"slicing.fractions": [0.5, 1.0]}, "slicing.fractions"),
    ("table1", {"latency.measurements.1.count": 1}, "latency.measurements[1].count"),
    ("table1", {"latency.measurements.1.server": "nowhere"}, "latency.measurements[1].server"),
    ("table1", {"latency.measurements.0.payload_bytes": 0},
     "latency.measurements[0].payload_bytes"),
    ("table1", {"latency.measurements.0.element_size": 512},
     "latency.measurements[0].element_size"),
    ("e2e_cups", {"topology.links.1.id": "unl-ucsb-5g"}, "topology.links[1]"),
    ("e2e_cups", {"topology.links.0.b": "unl-edge"}, "topology: no route"),
    # values that used to be accepted silently
    ("table1", {"topology.links.0.partitions_s": [[5, 1]]}, "topology.links[0]"),
    ("table1", {"topology.links.1.latency_sd_ms": -1}, "latency_sd_ms"),
    ("table1", {"topology.links.1.latency_mean_ms": -1}, "latency_mean_ms"),
    ("e2e_cups", {"cups.sustained_check_tasks": -1}, "cups.sustained_check_tasks"),
    ("e2e_cups", {"topology.routes": {"unl-edge->ucsb-repo": []}}, "topology.routes"),
    ("e2e_cups", {"topology.routes": {"unl-edge->ucsb-repo": ["ucsb-nd"]}}, "topology.routes"),
    ("e2e_cups", {"topology.routes": {"unl-edge->ucsb-repo": ["unl-ucsb-5g"],
                                      "unl-edge -> ucsb-repo": ["unl-ucsb-5g"]}},
     "topology.routes['unl-edge -> ucsb-repo']"),
    ("e2e_cups", {"cups.weather.channels.wind_speed.changes": [[7300, 6.0], [100, 3.0]]},
     "changes"),
    # two devices with one name: exit 1 with 5 or more fractions, and with
    # fewer, one device's efficiency, RNG stream and invariants replaced the other's
    ("slicing", {"slicing.ue_high.name": "rpi1"}, "slicing.ue_high.name"),
    ("slicing", {"slicing.ue_high.name": "rpi1", "slicing.fractions": [0.3, 0.7]},
     "slicing.ue_high.name"),
    # values that used to exit 1 once the run had started: the complement rounds to 0
    ("slicing", {"slicing.fractions": [0.5, 0.99999999999]}, "slicing.fractions"),
    # a duration between two microseconds: exit 0, with every rate counted over
    # `duration_s` but divided by the rounded microseconds (2.5e-6 s read as 2 us)
    ("slicing", {"slicing.duration_s": 2.5e-6}, "slicing.duration_s"),
    # NaN and Infinity, which Python's `json` reads: a traceback once the run was built
    ("table1", {"topology.links.0.latency_mean_ms": math.nan},
     "topology.links[0].latency_mean_ms"),
    ("e2e_cups", {"topology.links.1.latency_sd_ms": math.inf}, "topology.links[1].latency_sd_ms"),
    ("slicing", {"topology.links.0.base_capacity_mbps": math.nan},
     "topology.links[0].base_capacity_mbps"),
    ("e2e_cups", {"cups.cost_model.runtime_sd_s": math.inf}, "cups.cost_model.runtime_sd_s"),
    ("slicing", {"slicing.ue_low.efficiency": math.nan}, "slicing.ue_low.efficiency"),
    ("queue_sweep", {"queue_sweep.delays.3.mu": math.nan}, "queue_sweep.delays[3].mu"),
    ("queue_sweep", {"queue_sweep.alert_interval_s": math.inf}, "queue_sweep.alert_interval_s"),
    ("e2e_cups", {"cups.weather.channels.wind_speed.changes": [[7300, math.nan]]},
     "cups.weather.channels.wind_speed.changes[0]"),
    # a traceback from numpy's SeedSequence
    ("table1", {"seed": -1}, "seed"),
    # exit 1: the first sample is discarded, and the sd of the one left is NaN
    ("table1", {"latency.measurements.1.count": 2}, "latency.measurements[1].count"),
    # one past the largest payload an append frame carries, whatever its log name:
    # 2**24 used to run forever (a frame the server cannot decode, resent), and
    # 2**32 to end in a struct.error
    ("table1", {"latency.measurements.0.payload_bytes": MAX_PAYLOAD + 1},
     "latency.measurements[0].payload_bytes"),
    ("table1", {"latency.measurements.0.element_size": MAX_PAYLOAD + 1},
     "latency.measurements[0].element_size"),
    # an OverflowError traceback once the run was built
    ("table1", {"topology.links.1.latency_sd_ms": 1e308}, "topology.links[1].latency_sd_ms"),
    ("slicing", {"slicing.duration_s": 1e308}, "slicing.duration_s"),
    ("slicing", {"slicing.ue_high.efficiency": 1e308}, "slicing.ue_high.efficiency"),
    ("e2e_cups", {"cups.cost_model.mean_runtime_s": 1e308}, "cups.cost_model.mean_runtime_s"),
    # exit 0, with every Welch t-test NaN and numpy's RuntimeWarnings on stderr
    ("e2e_cups", {"cups.weather.channels.wind_speed.mean": 1e308},
     "cups.weather.channels.wind_speed.mean"),
    ("e2e_cups", {"cups.weather.channels.wind_speed.mean": -1e308},
     "cups.weather.channels.wind_speed.mean"),
    ("e2e_cups", {"cups.weather.channels.wind_speed.noise_sd": 1e308},
     "cups.weather.channels.wind_speed.noise_sd"),
    ("e2e_cups", {"cups.weather.channels.wind_speed.changes.0.1": 1e308},
     "cups.weather.channels.wind_speed.changes[0][1]"),
    # exit 0, with runtimes past any walltime or every delay clamped to 0 or 24 h
    ("e2e_cups", {"cups.cost_model.multi_node_penalty": 1e308},
     "cups.cost_model.multi_node_penalty"),
    ("queue_sweep", {"queue_sweep.delays.3.mu": -1e308}, "queue_sweep.delays[3].mu"),
    ("queue_sweep", {"queue_sweep.delays.3.sigma": 1e308}, "queue_sweep.delays[3].sigma"),
    # exit 1, "pilot 1 is expired, not active"
    ("e2e_cups", {"cups.cost_model.runtime_sd_s": 1e15}, "cups.cost_model.runtime_sd_s"),
    # a nominal slice rate below the capacity floor: an OverflowError traceback
    ("slicing", {"slicing.ue_low.efficiency": 5e-324}, "'rpi1' at fraction 0.1 "),
    ("slicing", {"slicing.fractions.0": 5e-324}, "'rpi1' at fraction 5e-324 "),
    # values of the wrong shape, rejected on load
    ("e2e_cups", {"cups.system": 4}, "cups.system must be a mapping"),
    ("e2e_cups", {"cups.pilot.strategy": 5}, "bad value for cups.pilot.strategy: expected string"),
    ("e2e_cups", {"cups.channels": "wind_speed"}, "bad value for cups.channels: expected a list"),
    ("e2e_cups", {"topology.routes": []}, "bad value for topology.routes: expected a mapping"),
    ("e2e_cups", {"topology.links.0.partitions_s": [[1, 2, 3]]},
     "bad value for topology.links[0].partitions_s[0]: expected [number, number]"),
    ("e2e_cups", {"topology.routes": {"unl-edge": ["unl-ucsb-5g"]}}, "bad route key 'unl-edge'"),
], ids=["pilot-strategy", "loss_prob", "duplicate_prob", "base_capacity_mbps",
        "cadence-zero", "cadence-negative", "alpha", "channels-unknown", "channels-empty",
        "runtime_sd_s", "noise_sd", "uniform-value_s", "alerts", "alert_interval_s",
        "slicing-link", "mean_runtime_s-zero", "efficiency-zero", "efficiency-negative",
        "noise_sd_mbps", "route-unknown-link", "samples-zero", "duration_s-zero",
        "fractions-ten", "fraction-zero", "fraction-one", "latency-count-one",
        "latency-server-unreachable", "payload_bytes-zero", "payload-above-element_size",
        "link-id-duplicate", "cups-no-route", "partition-backwards", "latency_sd_ms",
        "latency_mean_ms", "sustained_check_tasks", "route-empty", "route-not-a-chain",
        "route-same-pair", "changes-out-of-order", "ue-names-shared",
        "ue-names-shared-two-fractions", "fraction-complement-zero",
        "duration_s-between-microseconds",
        "latency_mean_ms-nan", "latency_sd_ms-infinity",
        "base_capacity_mbps-nan", "runtime_sd_s-infinity", "efficiency-nan", "mu-nan",
        "alert_interval_s-infinity", "changes-nan", "seed-negative", "latency-count-two",
        "payload_bytes-above-max-payload", "element_size-above-max-payload",
        "latency_sd_ms-1e308", "slicing-duration_s-1e308", "efficiency-1e308",
        "mean_runtime_s-1e308", "weather-mean-1e308", "weather-mean-minus-1e308",
        "weather-noise_sd-1e308", "weather-change-1e308", "multi_node_penalty-1e308",
        "mu-minus-1e308", "sigma-1e308", "runtime_sd_s-1e15", "efficiency-subnormal",
        "fraction-subnormal", "section-not-a-mapping", "number-for-a-string",
        "list-not-a-list", "mapping-not-a-mapping", "pair-not-a-pair", "route-key-without-arrow"])
def test_cli_config_error_found_while_building_exits_two(
        tmp_path, capsys, scenario, edits, named):
    bad = tmp_path / "bad.json"
    config = load_scenario(scenario)
    for path, value in edits.items():
        _set_key(config, path, value)
    bad.write_text(json.dumps(config))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and named in err


def _without(key: str) -> str:
    config = load_scenario("e2e_cups")
    del config[key]
    return json.dumps(config)


@pytest.mark.parametrize("text, named", [
    (_without("cups"), "missing key: cups (required for kind 'cups')"),
    (_without("topology"), "missing key: topology (required for kind 'cups')"),
    ('{"name": "e2e_cups",', "scenario is not valid JSON"),
], ids=["kind-without-its-section", "topology-missing", "invalid-json"])
def test_cli_scenario_file_rejected_on_load_exits_two(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}")
    assert not (tmp_path / "out").exists()


def test_cli_failed_invariant_exits_one(tmp_path):
    # a mean runtime of 1e6 s outlasts the 48 h drain: the alert's task never completes
    config = load_scenario("e2e_cups")
    config["cups"]["cost_model"]["mean_runtime_s"] = 1e6
    assert run_within_alarm(tmp_path, config) == (
        1, "invariants FAILED: every_alert_completed\n")
    assert (tmp_path / "out" / "report.json").is_file()


@pytest.mark.parametrize("scenario, edits, named", [
    # a pilot walltime that rounds to 0 us: `_acquire` resubmitted forever at one instant
    ("e2e_cups", {"cups.system.max_runtime_s": 0}, "max_runtime_s"),
    ("e2e_cups", {"cups.system.max_runtime_s": -0.0}, "max_runtime_s"),
    ("queue_sweep", {"queue_sweep.system.max_runtime_s": 1e-9}, "max_runtime_s"),
    ("queue_sweep", {"queue_sweep.estimated_runtime_s": -1}, "queue_sweep.estimated_runtime_s"),
    ("e2e_cups", {"cups.pilot.strategy": "reactive", "cups.pilot.estimated_runtime_s": 0},
     "estimated_runtime_s"),
    # a link so slow that each frame outlasts a million retry timeouts
    ("table1", {"topology.links.2.base_capacity_mbps": 1e-9}, "topology.links[2]"),
    # a latency or a run longer than the model is built for
    ("table1", {"topology.links.0.latency_mean_ms": 1e15}, "topology.links[0].latency_mean_ms"),
    ("e2e_cups", {"cups.duration_s": 1e15}, "cups.duration_s"),
], ids=["max_runtime_s-zero", "max_runtime_s-minus-zero", "max_runtime_s-below-a-microsecond",
        "estimated_runtime_s-negative", "cups-estimated_runtime_s-zero",
        "base_capacity_mbps-below-floor", "latency_mean_ms-1e15", "cups-duration_s-1e15"])
def test_cli_run_that_never_ended_exits_two(tmp_path, scenario, edits, named):
    config = load_scenario(scenario)
    for path, value in edits.items():
        _set_key(config, path, value)
    try:
        code, err = run_within_alarm(tmp_path, config)
    except Hang:
        pytest.fail("the run did not end")
    assert code == 2
    assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("scenario, path", [
    ("e2e_cups", "cups.weather.channels.wind_speed.noise_sd"),
    ("e2e_cups", "cups.cost_model.runtime_sd_s"),
    ("queue_sweep", "queue_sweep.delays.2.value_s"),  # uniform
    ("queue_sweep", "queue_sweep.delays.3.sigma"),  # lognormal
], ids=["noise_sd", "runtime_sd_s", "uniform-value_s", "lognormal-sigma"])
def test_cli_minus_zero_runs_as_zero(tmp_path, scenario, path):
    # numpy rejects a scale, bound or sigma of -0.0, which `x < 0` lets through
    reports = []
    for value in (0.0, -0.0):
        config = load_scenario(scenario)
        _set_key(config, path, value)
        assert run_within_alarm(tmp_path / str(value), config) == (0, "")
        reports.append((tmp_path / str(value) / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_cups_sustained_check_at_one_core_runs(tmp_path):
    # the sustained check draws its runs at the task's own cores: a 15,565 s
    # mean at 1 core, not the 64-core 420.39 s
    config = load_scenario("e2e_cups")
    config["cups"]["pilot"]["task_cores"] = 1
    assert run_within_alarm(tmp_path, config) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["invariants"]) == 4 and all(report["invariants"].values())
    assert report["sustained"]["n"] == 7


@pytest.mark.parametrize("seed", [1, 2, 4, 8])
def test_cli_cups_sustained_check_with_a_wide_cost_model_runs(tmp_path, seed):
    # runtimes of 100 +- 90 s: the sustained check runs on no pilot, so no
    # walltime cuts its back-to-back runs short
    config = load_scenario("e2e_cups")
    config["seed"] = seed
    config["cups"]["cost_model"] = {"mean_runtime_s": 100, "runtime_sd_s": 90}
    assert run_within_alarm(tmp_path, config) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["invariants"]) == 4 and all(report["invariants"].values())
    assert report["sustained"]["n"] == 7


def test_cli_cups_sustained_check_of_one_task_reports_no_gap(tmp_path):
    config = load_scenario("e2e_cups")
    config["cups"]["sustained_check_tasks"] = 1
    assert run_within_alarm(tmp_path, config) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["sustained"] == {"n": 0, "mean": None, "sd": None}
    assert (tmp_path / "out" / "sustained_gaps.csv").read_bytes() == b"gap_index,gap_s\r\n"


@pytest.mark.parametrize("scenario", ["table1", "e2e_cups"])
def test_cli_repeat_run_into_one_directory(tmp_path, capsys, scenario):
    # the second run used to stop at the first log the first one left in `state/`
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
    first = (out / "report.json").read_bytes()
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == first


def test_cli_repeat_sweep_into_one_directory(tmp_path, capsys):
    args = ["sweep", "--scenario", "table1", "--seeds", "1..2", "--out", str(tmp_path)]
    assert main(args) == 0
    assert main(args) == 0
    assert read_csv(tmp_path / "sweep_summary.csv") == [{"seed": "1", "ok": "true"},
                                                         {"seed": "2", "ok": "true"}]


def _cli_run_within_5_s(tmp_path, config):
    """`fabric run` on `config` in a child process that is stopped after 5 s,
    so a run that never ends fails the test instead of hanging it."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    result = subprocess.run(
        [sys.executable, "-m", "fabricsim.cli", "run", "--scenario", str(path),
         "--out", str(tmp_path / "out")], capture_output=True, text=True, timeout=5)
    return result.returncode, result.stderr


def test_cli_cups_task_larger_than_the_facility_exits_two(tmp_path):
    config = load_scenario("e2e_cups")
    config["cups"]["system"].update(total_nodes=1, cores_per_node=32)
    code, err = _cli_run_within_5_s(tmp_path, config)
    assert code == 2
    assert err.startswith("config error: ") and "64 cores" in err and "1 x 32" in err


def test_cli_queue_sweep_task_larger_than_the_facility_exits_two(tmp_path):
    config = load_scenario("queue_sweep")
    config["queue_sweep"]["cores"] = 128
    config["queue_sweep"]["system"]["total_nodes"] = 1
    code, err = _cli_run_within_5_s(tmp_path, config)
    assert code == 2
    assert err.startswith("config error: ") and "128 cores" in err and "1 x 64" in err


def test_cli_station_id_longer_than_16_bytes_exits_two(tmp_path):
    config = load_scenario("e2e_cups")
    config["cups"]["weather"]["station_id"] = "cups-station-12\u00e9"
    code, err = _cli_run_within_5_s(tmp_path, config)
    assert code == 2
    assert err.startswith("config error: ") and "station_id" in err


@pytest.mark.parametrize("command, option, message", [
    ("run", "--seed=-1", "bad value for --seed: -1 "),
    ("sweep", "--seeds=-1..1", "bad value for --seeds: -1 "),  # the range's first seed
    ("sweep", "--seeds=5..3", "bad value for --seeds: 5..3 is an empty range"),
    ("sweep", "--seeds=1-3", "bad seed range '1-3'; expected A..B"),
], ids=["run---seed=-1", "sweep---seeds=-1..1", "sweep---seeds=5..3", "sweep---seeds=1-3"])
def test_cli_negative_seed_exits_two(tmp_path, capsys, command, option, message):
    code = main([command, "--scenario", "table1", option, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


def test_cli_sweep_records_a_seed_that_raises(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    config = load_scenario("e2e_cups")
    config["cups"]["pilot"] = {"strategy": "bogus"}
    bad.write_text(json.dumps(config))
    code = main(["sweep", "--scenario", str(bad), "--seeds", "1..2",
                 "--out", str(tmp_path / "sweep")])
    assert code == 1
    rows = read_csv(tmp_path / "sweep" / "sweep_summary.csv")
    assert rows == [{"seed": "1", "ok": "false"}, {"seed": "2", "ok": "false"}]


def test_cli_scenarios_lists_bundled(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(BUNDLED)


def test_cli_sweep_runs_seed_range(tmp_path, capsys):
    code = main(["sweep", "--scenario", "table1", "--seeds", "1..2",
                 "--out", str(tmp_path / "sweep")])
    assert code == 0
    rows = read_csv(tmp_path / "sweep" / "sweep_summary.csv")
    assert [r["seed"] for r in rows] == ["1", "2"]
    assert (tmp_path / "sweep" / "seed-1" / "report.json").exists()


def test_cli_log_inspect_round_trip(tmp_path, capsys):
    from fabricsim.logstore import LogStore

    path = tmp_path / "demo.log"
    store = LogStore.create(path, "demo", 32, 16)
    for i in range(3):
        store.append(f"v{i}".encode(), i.to_bytes(16, "little"))
    store.close()
    code = main(["log", "inspect", str(path)])
    dump = json.loads(capsys.readouterr().out)
    assert code == 0
    assert dump["header"]["next_seq"] == 4
    assert [e["seq"] for e in dump["entries"]] == [1, 2, 3]
    assert dump["torn_entry_discarded"] is False


def test_cli_log_inspect_wrapped_log_output_pinned(tmp_path, capsys):
    path = tmp_path / "wrapped.log"
    store = LogStore.create(path, "wrapped", 16, 8)
    for i in range(1, 14):  # seqs 6..13 live, wrapped past slot 0
        store.append(bytes([i]) * (i % 7 + 1), i.to_bytes(16, "little"), 1_000 * i + 7)
    store.close()
    assert main(["log", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e5a9a54bdaf1e1cec30485fc01f9c96ba8e586ddef72a634135cf5074398163c")


def test_cli_log_inspect_leaves_a_log_needing_recovery_as_it_was(tmp_path, capsys):
    # a header two seqs behind its records, a stray `.tmp` and no `.dedup`
    # sidecar: recovery would rewrite, create and delete one file each
    path = tmp_path / "x.log"
    store = LogStore.create(path, "x", 16, 8)
    store.append(b"a", bytes(16))
    header = path.read_bytes()[:HEADER_SIZE]
    for i in (1, 2):
        store.append(bytes([i]), i.to_bytes(16, "little"))
    store.close()
    with open(path, "r+b") as f:
        f.write(header)
    (tmp_path / "x.log.dedup").unlink()
    (tmp_path / "x.log.tmp").write_bytes(b"half a resize")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["log", "inspect", str(path)]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert [e["seq"] for e in dump["entries"]] == [1, 2, 3]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cli_log_inspect_fresh_log(tmp_path, capsys):
    from fabricsim.logstore import LogStore

    path = tmp_path / "fresh.log"
    LogStore.create(path, "fresh", 32, 16).close()
    assert main(["log", "inspect", str(path)]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["entries"] == []


def test_cli_log_inspect_truncated_file_reports_torn(tmp_path, capsys):
    from fabricsim.logstore import RECORD_OVERHEAD, LogStore

    path = tmp_path / "torn.log"
    store = LogStore.create(path, "torn", 16, 64)
    for i in range(5):
        store.append(bytes([i]), i.to_bytes(16, "little"))
    store.close()
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size - (RECORD_OVERHEAD + 16) // 2)
    assert main(["log", "inspect", str(path)]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["torn_entry_discarded"] is True
    assert dump["header"]["next_seq"] == 5


def test_cli_log_inspect_corrupt_header_exit_one(tmp_path, capsys):
    path = tmp_path / "junk.log"
    path.write_bytes(b"\x00" * 200)
    assert main(["log", "inspect", str(path)]) == 1
    dump = json.loads(capsys.readouterr().out)
    assert dump["error"] == "corrupt-header"


def test_console_entry_point_installed():
    result = subprocess.run([sys.executable, "-m", "fabricsim.cli", "scenarios"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "table1" in result.stdout
