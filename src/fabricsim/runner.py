"""Scenario execution: builds the simulation a config describes, runs it,
checks invariants, and assembles the report plus raw CSV series.

The runner doubles as an invariant monitor: the process exits zero only if
the scenario completed and every invariant held.
"""

from __future__ import annotations

import shutil
from dataclasses import fields
from pathlib import Path

from .detect import TEST_NAMES
from .errors import ConfigError, RouteUnreachable
from .metrics import summarize
from .netsim import CAPACITY_FLOOR_MBPS, DEFAULT_SLICE_SD_MBPS, Network, slice_rate_mbps
from .node import FabricNode
from .pilot import (
    DEFAULT_THRESHOLD_BYTES,
    REFERENCE_CORES,
    REFERENCE_MEAN_S,
    Facility,
    PilotController,
    TaskResult,
    TaskSpec,
)
from .pipeline import (ND, PAIR_BYTES, UCSB, UNL, CupsParams, CupsPipeline, sustained_rate_s,
                       sustained_walltime_s)
from .scenario import (
    WALLTIME,
    build_cost_model,
    build_links,
    build_routes,
    build_system,
    build_weather,
)
from .simcore import Simulator, run_to_completion, s_to_us, sleep
from .transport import SizeCache


def run_scenario(config: dict, out_dir: str | Path,
                 seed: int | None = None) -> tuple[dict, dict, bool]:
    """Returns (report, csv_series, ok)."""
    seed = config["seed"] if seed is None else seed
    kind = config["kind"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if (out_dir / "state").is_dir():  # every run starts from empty logs
        shutil.rmtree(out_dir / "state")
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    results, invariants, series = _RUNNERS[kind](config, out_dir, seed)
    report = {"scenario": config["name"], "kind": kind, "seed": seed,
              **results, "invariants": invariants}
    return report, series, all(invariants.values())


def _check_reachable(network: Network, where: str, a: str, b: str) -> None:
    """Requests go a -> b and replies b -> a; both need a route before the run."""
    for src, dst in ((a, b), (b, a)):
        try:
            network.route(src, dst)
        except RouteUnreachable as exc:
            raise ConfigError(f"bad value for {where}: {exc}") from exc


# -- latency table ------------------------------------------------------------

def _run_latency_table(config: dict, out_dir: Path, seed: int):
    sim = Simulator(seed=seed)
    network = Network(sim, build_links(config), routes=build_routes(config))
    state = out_dir / "state"
    nodes: dict[str, FabricNode] = {}

    def node(name: str) -> FabricNode:
        if name not in nodes:
            nodes[name] = FabricNode(sim, network, name, state / name)
        return nodes[name]

    for i, m in enumerate(config["latency"]["measurements"]):
        where = f"latency.measurements[{i}]"
        if m.get("element_size", m["payload_bytes"]) < m["payload_bytes"]:
            raise ConfigError(f"bad value for {where}.element_size: "
                              f"{m['element_size']} is below payload_bytes")
        _check_reachable(network, f"{where}.server", m["client"], m["server"])
    rows, raw_rows = [], []
    invariants = {}
    for i, m in enumerate(config["latency"]["measurements"]):
        client_node = node(m["client"])
        server_node = node(m["server"])
        log_name = m.get("log_name", f"lat_{i}")
        element_size = m.get("element_size", m["payload_bytes"])
        server_node.create_log(log_name, element_size, m["count"] + 8)
        client_node.client.cache = SizeCache() if m.get("use_cache") else None
        stats = run_to_completion(sim, client_node.client.measure_latency(
            m["server"], log_name, m["payload_bytes"], m["count"]))
        rows.append({"label": m["label"], "mean_ms": stats.mean_ms,
                     "sd_ms": stats.sd_ms, "n": stats.n})
        for j, sample in enumerate(stats.samples_ms):
            raw_rows.append({"label": m["label"], "sample": j, "latency_ms": sample})
        store = server_node.registry.get(log_name)
        invariants[f"delivered_all[{m['label']}]"] = (
            store.next_seq - 1 == m["count"])
        recomputed = summarize(stats.samples_ms)
        invariants[f"stats_recomputable[{m['label']}]"] = (
            abs(recomputed["mean"] - stats.mean_ms) <= 1e-9 * max(1.0, stats.mean_ms)
            and abs(recomputed["sd"] - stats.sd_ms) <= 1e-9 * max(1.0, stats.sd_ms))

    series = {
        "latency_table": (["label", "mean_ms", "sd_ms", "n"], rows),
        "latency_samples": (["label", "sample", "latency_ms"], raw_rows),
    }
    for n in nodes.values():
        n.close()
    return {"latency_table": rows}, invariants, series


# -- slicing sweep -------------------------------------------------------------

def _run_slicing_sweep(config: dict, out_dir: Path, seed: int):
    """Each configuration splits the link's PRBs between the two devices; a
    sample is the whole bytes one rate moves in `duration_s`, as iperf counts."""
    spec = config["slicing"]
    fractions = [float(f) for f in spec["fractions"]]
    if not (0 < len(fractions) <= 9 and all(round(1.0 - f, 10) > 0 for f in fractions)):
        raise ConfigError("bad value for slicing.fractions: need 1 to 9, each below 1 to 10 places")
    ues = (spec["ue_low"], spec["ue_high"])
    if ues[1]["name"] == ues[0]["name"]:  # rows, invariants and RNG streams are keyed by name
        raise ConfigError(f"bad value for slicing.ue_high.name: {ues[1]['name']!r} "
                          f"is also slicing.ue_low.name")
    links = {link.link_id: link for link in build_links(config)}
    build_routes(config)  # the sweep sends no frame, but a malformed route is still an error
    link_id = spec["link"]
    if link_id not in links:
        raise ConfigError(f"bad value for slicing.link: no link named {link_id!r}")
    base = links[link_id].base_capacity_mbps
    bound = base * max(ue["efficiency"] for ue in ues)
    sd_mbps = spec.get("noise_sd_mbps", DEFAULT_SLICE_SD_MBPS)
    duration_s = spec["duration_s"]
    if s_to_us(duration_s) / 1e6 != duration_s:  # a sample's bytes and rate share one duration
        raise ConfigError(f"bad value for slicing.duration_s: {duration_s} is not a whole "
                          f"number of microseconds")
    sim = Simulator(seed=seed)
    rngs = [sim.rng(f"slice:{link_id}:{ue['name']}") for ue in ues]

    rows, raw_rows = [], []
    invariants = {}
    for cfg_idx, f in enumerate(fractions, start=1):
        pair = (f, round(1.0 - f, 10))
        nominals = [fraction * base * ue["efficiency"] for ue, fraction in zip(ues, pair)]
        for ue, fraction, nominal, rng in zip(ues, pair, nominals, rngs):
            if nominal < CAPACITY_FLOOR_MBPS:  # else the noise's scale, sd / nominal, overflows
                raise ConfigError(f"bad value for slicing: {ue['name']!r} at fraction {fraction} "
                                  f"is a nominal {nominal:.3g} Mbps, below {CAPACITY_FLOOR_MBPS}")
            rates = [slice_rate_mbps(nominal, sd_mbps, rng) for _ in range(spec["samples"])]
            nbytes = [int(rate * 1e6 * duration_s / 8) for rate in rates]
            samples = [n * 8 / duration_s / 1e6 for n in nbytes]
            stats = summarize(samples)
            rows.append({"config": cfg_idx, "ue": ue["name"], "fraction": fraction,
                         "mean_mbps": stats["mean"], "sd_mbps": stats["sd"],
                         "n": stats["n"]})
            for j, s in enumerate(samples):
                raw_rows.append({"config": cfg_idx, "ue": ue["name"],
                                 "fraction": fraction, "sample": j, "mbps": s})
            # each sample moves every whole byte its rate allows in the duration
            invariants[f"transfer_consistency[{cfg_idx}:{ue['name']}]"] = all(
                0 <= rate * 1e6 * duration_s - n * 8 < 8 for rate, n in zip(rates, nbytes))
        invariants[f"conservation[{cfg_idx}]"] = nominals[0] + nominals[1] <= bound + 1e-9

    series = {
        "slicing_curve": (["config", "ue", "fraction", "mean_mbps", "sd_mbps", "n"], rows),
        "slicing_samples": (["config", "ue", "fraction", "sample", "mbps"], raw_rows),
    }
    return {"slicing_curve": rows}, invariants, series


# -- cups end-to-end ---------------------------------------------------------------

def _run_cups(config: dict, out_dir: Path, seed: int):
    spec = config["cups"]
    sim = Simulator(seed=seed)
    network = Network(sim, build_links(config), routes=build_routes(config))
    for a, b in ((UNL, UCSB), (UCSB, ND)):  # telemetry, then alerts to the CFD task
        _check_reachable(network, "topology", a, b)
    # only the keys the scenario sets; CupsParams holds the defaults
    overrides = {key: spec[key] for key in ("cadence_s", "duty_cycle_s", "alpha",
                                            "channels", "eval_offset_s",
                                            "forward_offset_s") if key in spec}
    if "channels" in overrides:
        overrides["channels"] = tuple(overrides["channels"])
    overrides.update(spec.get("pilot", {}))  # every pilot key is a CupsParams field
    params = CupsParams(duration_s=spec["duration_s"], **overrides)
    cost_model = build_cost_model(spec.get("cost_model"))
    sustained_tasks = spec.get("sustained_check_tasks", 0)
    if sustained_tasks:
        WALLTIME(sustained_walltime_s(sustained_tasks, params.task_cores, cost_model),
                 "cups.cost_model.mean_runtime_s at task_cores * (sustained_check_tasks + 2)")
    pipeline = CupsPipeline(
        sim, network, out_dir / "state", params,
        weather=build_weather(spec["weather"]),
        system=build_system(spec.get("system")),
        cost_model=cost_model)
    metrics = pipeline.run()
    invariants = pipeline.check_invariants()

    results = {"telemetry": summarize(metrics.telemetry_latency_ms),
               "evaluations": len(metrics.evaluations),
               "alerts": metrics.alerts, "tasks": metrics.tasks}
    if sustained_tasks:
        gaps = sustained_rate_s(seed, tasks=sustained_tasks,
                                cores=params.task_cores,
                                cost_model=cost_model)
        results["sustained"] = summarize(gaps)
        sustained_rows = [{"gap_index": i, "gap_s": g} for i, g in enumerate(gaps)]
    else:
        sustained_rows = []

    eval_fields = (["timestamp_us", "channel", "vote"]
                   + [f"p_{t}" for t in TEST_NAMES]
                   + [f"reject_{t}" for t in TEST_NAMES])
    task_fields = [f.name for f in fields(TaskResult)] + ["validity_s"]
    series = {
        "evaluations": (eval_fields, metrics.evaluations),
        "task_timeline": (task_fields, metrics.tasks),
        "telemetry_latency": (["sample", "latency_ms"],
                              [{"sample": i, "latency_ms": v}
                               for i, v in enumerate(metrics.telemetry_latency_ms)]),
        "sustained_gaps": (["gap_index", "gap_s"], sustained_rows),
    }
    for node in pipeline.nodes.values():
        node.close()
    return results, invariants, series


# -- queue sweep ----------------------------------------------------------------------

def _run_queue_sweep(config: dict, out_dir: Path, seed: int):
    spec = config["queue_sweep"]
    strategies = spec.get("strategies", ["reactive", "proactive"])
    rows = []
    summaries = []
    invariants = {}
    for d_idx, delay_spec in enumerate(spec["delays"]):
        means = {}
        for strategy in strategies:
            latencies = _queue_sweep_run(spec, delay_spec, strategy, seed)
            for i, latency in enumerate(latencies):
                rows.append({"delay_index": d_idx, "delay_kind": delay_spec["kind"],
                             "strategy": strategy, "alert": i,
                             "latency_s": latency})
            stats = summarize(latencies)
            means[strategy] = stats["mean"]
            summaries.append({"delay_index": d_idx, "delay_kind": delay_spec["kind"],
                              "strategy": strategy, "mean_latency_s": stats["mean"],
                              "sd_latency_s": stats["sd"], "n": stats["n"]})
        nonzero = delay_spec["kind"] != "constant" or delay_spec.get("value_s", 0) > 0
        if nonzero and "proactive" in means and "reactive" in means:
            # under common random numbers the placeholder can only help; a
            # realization where it draws a tail delay ties, never loses
            invariants[f"proactive_not_worse[{d_idx}]"] = (
                means["proactive"] <= means["reactive"] + 1e-9)

    series = {
        "queue_sweep_summary": (["delay_index", "delay_kind", "strategy",
                                 "mean_latency_s", "sd_latency_s", "n"], summaries),
        "queue_sweep_samples": (["delay_index", "delay_kind", "strategy",
                                 "alert", "latency_s"], rows),
    }
    return {"queue_sweep": summaries}, invariants, series


def _queue_sweep_run(spec: dict, delay_spec: dict, strategy: str,
                     seed: int) -> list[float]:
    sim = Simulator(seed=seed)
    system_spec = dict(spec.get("system") or {})
    system_spec["queue_delay"] = delay_spec
    # shared stream label: both strategies face identical queue-delay and
    # task-runtime draws, so the comparison isolates the policy
    facility = Facility(sim, build_system(system_spec), stream_label="sweep")
    cost_model = build_cost_model(None)
    threshold_bytes = spec.get("threshold_bytes", DEFAULT_THRESHOLD_BYTES)
    cores = spec.get("cores", REFERENCE_CORES)
    controller = PilotController(facility, cost_model, strategy)
    controller.start()
    latencies: list[float] = []

    def alert_driver(index: int):
        task = TaskSpec(spec.get("data_size_bytes", PAIR_BYTES), threshold_bytes,
                        spec.get("estimated_runtime_s", REFERENCE_MEAN_S), cores,
                        telemetry_timestamp_us=index)
        issued = sim.now_us
        result = yield from controller.handle_task(task)
        latencies.append((result.complete_us - issued) / 1e6)

    def spawner():
        interval_us = s_to_us(spec["alert_interval_s"])
        for i in range(spec["alerts"]):
            if i:
                yield sleep(interval_us)
            sim.spawn(alert_driver(i), name=f"alert-{i}")

    run_to_completion(sim, spawner())
    return latencies


# kind -> runner returning (results, invariants, csv_series) for the report frame
_RUNNERS = {"latency_table": _run_latency_table, "slicing_sweep": _run_slicing_sweep,
            "cups": _run_cups, "queue_sweep": _run_queue_sweep}
