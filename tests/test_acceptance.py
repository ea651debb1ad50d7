"""Acceptance suite: the nine exit criteria, one test each, with the
tolerances pinned in the assertions. Each criterion prints a PASS/FAIL line
(run with -s or -rA to see them all)."""

import struct

import numpy as np

from fabricsim.dataflow import INT64, DataflowGraph, GraphNode, OpDef, compile_graph
from fabricsim.detect import detect_change
from fabricsim.errors import SimulatedCrash, SizeMismatch
from fabricsim.events import AppendEffect
from fabricsim.logstore import LogRegistry
from fabricsim.netsim import LinkSpec, Network
from fabricsim.node import FabricNode
from fabricsim.pilot import (
    CfdCostModel,
    SystemSpec,
    decide_submit,
    pilot_parameters,
    required_nodes,
)
from fabricsim.runner import run_scenario
from fabricsim.scenario import load_scenario
from fabricsim.simcore import Simulator, run_to_completion
from fabricsim.transport import SizeCache, TransportClient, TransportServer, wire_node
from fabricsim.weather import TelemetryRecord

from .oracles import ORACLE_STATISTICS, permutation_pvalue


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# -- criterion 1: exactly-once delivery under loss/dup/reordering -------------------

def test_c1_exactly_once_under_heavy_faults(tmp_path):
    n = 10_000
    sim = Simulator(seed=1001)
    link = LinkSpec("lossy", "client", "server", latency_mean_ms=10.0,
                    latency_sd_ms=4.0, loss_prob=0.20, duplicate_prob=0.05,
                    base_capacity_mbps=10_000.0)
    net = Network(sim, [link])
    registry = LogRegistry(tmp_path / "server")
    server = TransportServer(sim, net, "server", registry)
    client = TransportClient(sim, net, "client")
    wire_node(net, "server", server=server)
    wire_node(net, "client", client=client)
    registry.create("inbox", 16, n)

    procs = []
    for i in range(n):
        payload = i.to_bytes(8, "little")
        procs.append(sim.spawn(
            client.remote_append("server", "inbox", payload)))
    sim.run()

    seqs = []
    for proc in procs:
        assert proc.error is None, proc.error
        seqs.append(proc.result)
    store = registry.get("inbox")
    entries = store.scan(1, n).entries
    mids = {e.message_id for e in entries}
    gap_free = sorted(e.seq for e in entries) == list(range(1, n + 1))
    matches = all(store.read(seq).payload == i.to_bytes(8, "little")
                  for i, seq in enumerate(seqs))
    sim_clock_s = sim.now_us / 1e6
    report("C1 exactly-once",
           len(entries) == n and len(mids) == n and gap_free and matches
           and sim_clock_s < 60.0,
           f"{len(entries)} entries, {len(mids)} distinct ids, "
           f"converged at t={sim_clock_s:.1f}s simulated")


# -- criterion 2: message latency table reproduction ----------------------------------

TABLE1_TARGETS = {
    "UNL->UCSB (5G+Int.)": (101.0, 17.0),
    "UNL->UCSB (Internet)": (17.0, 0.8),
    "UCSB->ND (Internet)": (92.0, 1.0),
}


def test_c2_latency_table_reproduction(tmp_path):
    config = load_scenario("table1")
    result, _, ok = run_scenario(config, tmp_path)
    assert ok
    failures = []
    for row in result["latency_table"]:
        mean_target, sd_target = TABLE1_TARGETS[row["label"]]
        if abs(row["mean_ms"] - mean_target) > 2 * sd_target:
            failures.append(f"{row['label']} mean {row['mean_ms']:.1f}")
        if abs(row["sd_ms"] - sd_target) > 0.30 * sd_target:
            failures.append(f"{row['label']} sd {row['sd_ms']:.2f}")
    detail = "; ".join(
        f"{r['label']}: {r['mean_ms']:.1f}/{r['sd_ms']:.2f} ms"
        for r in result["latency_table"])
    report("C2 latency-table", not failures, detail or str(failures))


# -- criterion 3: element-size cache halves latency, stale cache fails safe -------------

def test_c3_cache_halving_and_stale_cache_safety(tmp_path):
    sim = Simulator(seed=31)
    link = LinkSpec("wired", "client", "server", latency_mean_ms=4.25,
                    latency_sd_ms=0.4, base_capacity_mbps=10_000.0)
    net = Network(sim, [link])
    registry = LogRegistry(tmp_path / "server")
    server = TransportServer(sim, net, "server", registry)
    client = TransportClient(sim, net, "client")
    wire_node(net, "server", server=server)
    wire_node(net, "client", client=client)
    log = registry.create("bench", 1024, 256)

    uncached = run_to_completion(
        sim, client.measure_latency("server", "bench", 1024, 30))
    client.cache = SizeCache()
    cached = run_to_completion(
        sim, client.measure_latency("server", "bench", 1024, 30))
    ratio = cached.mean_ms / uncached.mean_ms
    halved = abs(ratio - 0.5) <= 0.10 * 0.5

    # server-side resize must fail the cached append, never corrupt the log
    before = [(e.seq, e.message_id, e.payload) for e in log.scan(1, 10_000).entries]
    log.resize(2048)
    got_mismatch = False
    try:
        run_to_completion(sim, client.remote_append("server", "bench", b"stale"))
    except SizeMismatch:
        got_mismatch = True
    after = [(e.seq, e.message_id, e.payload) for e in log.scan(1, 10_000).entries]
    report("C3 cache-halving",
           halved and got_mismatch and after == before,
           f"uncached {uncached.mean_ms:.2f} ms, cached {cached.mean_ms:.2f} ms, "
           f"ratio {ratio:.3f}, stale-append={'error' if got_mismatch else 'SILENT'}")


# -- criterion 4: PRB slicing curve ------------------------------------------------------

def test_c4_slicing_curve(tmp_path):
    config = load_scenario("slicing")
    result, _, ok = run_scenario(config, tmp_path)
    assert ok
    rows = result["slicing_curve"]
    failures = []
    by_ue: dict[str, list] = {}
    for row in rows:
        by_ue.setdefault(row["ue"], []).append(row)
    for ue, ue_rows in by_ue.items():
        ue_rows.sort(key=lambda r: r["fraction"])
        means = [r["mean_mbps"] for r in ue_rows]
        if not all(a < b for a, b in zip(means, means[1:])):
            failures.append(f"{ue} not monotone")
        mid = next(r for r in ue_rows if abs(r["fraction"] - 0.5) < 1e-9)
        mid_slope = mid["mean_mbps"] / 0.5
        for r in ue_rows:
            slope = r["mean_mbps"] / r["fraction"]
            if abs(slope / mid_slope - 1.0) > 0.15:
                failures.append(f"{ue}@{r['fraction']} slope off "
                                f"{slope / mid_slope:.3f}")
        for r in ue_rows:
            if not (3.0 <= r["sd_mbps"] <= 5.0):
                failures.append(f"{ue}@{r['fraction']} sd {r['sd_mbps']:.2f}")
    low = next(r for r in rows if r["ue"] == "rpi1" and abs(r["fraction"] - 0.1) < 1e-9)
    high = next(r for r in rows if r["ue"] == "rpi2" and abs(r["fraction"] - 0.9) < 1e-9)
    if abs(low["mean_mbps"] - 4.95) > 0.15 * 4.95:
        failures.append(f"10% anchor {low['mean_mbps']:.2f}")
    if abs(high["mean_mbps"] - 43.47) > 0.15 * 43.47:
        failures.append(f"90% anchor {high['mean_mbps']:.2f}")
    report("C4 slicing-curve", not failures,
           f"anchors {low['mean_mbps']:.2f} @10%, {high['mean_mbps']:.2f} @90%"
           + (f"; {failures}" if failures else ""))


# -- criterion 5: pilot decision logic, exhaustive ------------------------------------------

def test_c5_pilot_decision_grid():
    system = SystemSpec(total_nodes=4, cores_per_node=64, max_runtime_s=48 * 3600.0)
    bad = []
    for n_req in range(0, 17):
        for n_avail in range(0, 17):
            if decide_submit(n_req, n_avail) != (n_avail < n_req):
                bad.append((n_req, n_avail))
    # clamp checks of the submission parameters
    for n_req in range(1, 17):
        nodes, runtime = pilot_parameters(n_req, 420.39, system)
        if nodes != min(system.total_nodes, n_req) or runtime != 420.39:
            bad.append(("clamp", n_req))
    if pilot_parameters(2, 1e9, system)[1] != system.max_runtime_s:
        bad.append("runtime clamp")
    # data-size rounding: fractional node requirements round up, floor 1
    if (required_nodes(0, 1024), required_nodes(1024, 1024),
            required_nodes(2560, 1024)) != (1, 1, 3):
        bad.append("required_nodes")
    report("C5 pilot-grid", not bad, f"{17 * 17} grid cases + clamps"
           + (f"; failures {bad}" if bad else ""))


# -- criterion 6: simulation stub runtime statistics ------------------------------------------

def test_c6_cfd_stub_statistics():
    rng = np.random.default_rng(606)
    model = CfdCostModel()
    samples = np.array([model.sample_runtime_s(64, rng) for _ in range(1000)])
    mean, sd = samples.mean(), samples.std(ddof=1)
    report("C6 stub-runtime", 413.0 <= mean <= 428.0 and 32.0 <= sd <= 41.0,
           f"mean {mean:.2f} s, sd {sd:.2f} s over 1000 samples")


# -- criterion 7: end-to-end timing ------------------------------------------------------------

def test_c7_end_to_end_timing(tmp_path):
    config = load_scenario("e2e_cups")
    result, _, ok = run_scenario(config, tmp_path)
    assert ok
    shift_s = config["cups"]["weather"]["channels"]["wind_speed"]["changes"][0][0]
    alerts = result["alerts"]
    one_alert = len(alerts) == 1
    within_cycle = False
    validity_ok = False
    if one_alert:
        alert_s = alerts[0]["timestamp_us"] / 1e6
        within_cycle = 0 < alert_s - shift_s <= 1800.0
        validity_ok = result["tasks"][0]["validity_s"] >= 23 * 60
    gap = result["sustained"]["mean"]
    sustained_ok = 0.9 * 420.39 <= gap <= 1.1 * 420.39
    report("C7 end-to-end",
           one_alert and within_cycle and validity_ok and sustained_ok,
           f"{len(alerts)} alert(s), validity "
           f"{result['tasks'][0]['validity_s'] if result['tasks'] else None:.1f} s, "
           f"sustained gap {gap:.1f} s")


def test_c7_report_independent_of_log_retention(tmp_path):
    # 360 h outlasts the 256-entry detector and alert logs (~128 h) and the
    # 4096-record telemetry log (~341 h); the report must still hold every
    # evaluation and one task per alert
    config = load_scenario("e2e_cups")
    config["cups"]["duration_s"] = 360 * 3600.0
    result, _, ok = run_scenario(config, tmp_path)
    tasks_per_alert = [sum(t["telemetry_timestamp_us"] == a["timestamp_us"]
                           for t in result["tasks"]) for a in result["alerts"]]
    report("C7 long horizon",
           ok and result["evaluations"] == 719
           and all(n == 1 for n in tasks_per_alert)
           and all(result["invariants"].values()),
           f"{result['evaluations']} evaluations, tasks per alert {tasks_per_alert}, "
           f"invariants {result['invariants']}")


# -- criterion 8: crash-replay equivalence across a 3-node pipeline -----------------------------

def _pipeline_run(tmp_path, crash_plan=None, seed=808):
    """Source on A ships to B; B scales via a dataflow node and delivers the
    outputs to C. Returns per-node data-log contents."""
    sim = Simulator(seed=seed)
    links = [LinkSpec("ab", "a", "b", 5.0, 0.0, base_capacity_mbps=10_000.0),
             LinkSpec("bc", "b", "c", 5.0, 0.0, base_capacity_mbps=10_000.0)]
    net = Network(sim, [links[0], links[1]])
    node_a = FabricNode(sim, net, "a", tmp_path / "a")
    node_b = FabricNode(sim, net, "b", tmp_path / "b")
    node_c = FabricNode(sim, net, "c", tmp_path / "c")
    fabric = {"a": node_a, "b": node_b, "c": node_c}
    fresh = not node_a.registry.exists("src")
    if fresh:
        node_a.create_log("src", 8, 64)
        node_b.create_log("feed", 8, 64)
        node_c.create_log("results", 8, 64)

    graph = DataflowGraph(
        graph_id="scale",
        nodes=[GraphNode("triple", (("v", INT64),), INT64, "triple")],
        edges=[], placement={"triple": "b"})
    dg = compile_graph(graph, fabric, {"triple": OpDef(lambda v: 3 * v)})

    node_a.engine.register_handler(
        "ship", lambda e, ctx: [AppendEffect("b", "feed", e.payload)])
    node_a.engine.bind("src", "ship")

    def to_operand(entry, ctx):
        from fabricsim.dataflow import pack_operand
        value = struct.unpack("<q", entry.payload)[0]
        return [AppendEffect("b", dg.port_log("triple", "v"),
                             pack_operand(entry.seq - 1, INT64, value))]

    node_b.engine.register_handler("to-operand", to_operand)
    node_b.engine.bind("feed", "to-operand")

    def deliver(entry, ctx):
        from fabricsim.dataflow import unpack_operand
        _, value = unpack_operand(INT64, entry.payload)
        return [AppendEffect("c", "results", struct.pack("<q", value))]

    node_b.engine.register_handler("deliver", deliver)
    node_b.engine.bind(dg.out_log("triple"), "deliver")

    if crash_plan is not None:
        node_b.engine.set_crash_plan(*crash_plan)
    if fresh:
        for v in (7, 11, 13, 17):
            node_a.append_local("src", struct.pack("<q", v))
    crashed = False
    try:
        sim.run()
    except SimulatedCrash:
        crashed = True
    invocations = node_b.engine._invocations
    state = {}
    for name, n in fabric.items():
        state[name] = {
            log: [(e.message_id, e.payload) for e in _all_entries(n, log)]
            for log in n.registry.names() if not log.startswith("__")}
    for n in fabric.values():
        n.close()
    return state, crashed, invocations


def _all_entries(n, log):
    store = n.registry.get(log)
    return store.scan(store.earliest_seq, store.next_seq - 1).entries


def test_c8_crash_replay_equivalence(tmp_path):
    baseline, crashed, invocations = _pipeline_run(tmp_path / "clean")
    assert not crashed
    assert baseline["c"]["results"] and len(baseline["c"]["results"]) == 4
    mismatches = []
    sweeps = 0
    for invocation in range(1, invocations + 1):
        for phase in ("after_effects", "after_cursor"):
            d = tmp_path / f"crash-{invocation}-{phase}"
            state, crashed, _ = _pipeline_run(d, crash_plan=(invocation, phase))
            assert crashed, (invocation, phase)
            # recovery: reopen the same directories and run to quiescence
            recovered, _, _ = _pipeline_run(d, crash_plan=None)
            sweeps += 1
            if recovered != baseline:
                mismatches.append((invocation, phase))
    report("C8 crash-replay", not mismatches,
           f"{sweeps} crash points swept across {invocations} invocations"
           + (f"; mismatches {mismatches}" if mismatches else ""))


# -- criterion 9: statistical tests vs the permutation oracle ------------------------------------

def test_c9_change_detection_vs_permutation_oracle():
    rng = np.random.default_rng(909)
    alpha = 0.05
    disagreements = []
    for pair in range(50):
        shift = 0.0 if rng.random() < 0.5 else rng.uniform(0.2, 3.0)
        prev_vals = rng.normal(2.0, 0.5, 6)
        cur_vals = rng.normal(2.0 + shift, 0.5, 6)
        prev = _window(prev_vals, 300)
        cur = _window(cur_vals, 300 + 1800)
        alert = detect_change(cur, prev, alpha=alpha)
        for result in alert.results:
            oracle_p = permutation_pvalue(cur_vals, prev_vals,
                                          ORACLE_STATISTICS[result.test_name])
            if result.reject != (oracle_p < alpha):
                disagreements.append(
                    (pair, result.test_name, result.p_value, oracle_p))
    for d in disagreements:
        print(f"  oracle disagreement: pair={d[0]} test={d[1]} "
              f"p={d[2]:.4f} oracle_p={d[3]:.4f}")
    report("C9 stat-oracle", len(disagreements) <= 2,
           f"{len(disagreements)} disagreement(s) over 50 pairs x 3 tests")


def _window(values, start_s):
    from fabricsim.detect import Window
    records = tuple(
        TelemetryRecord((start_s + 300 * i) * 1_000_000, float(v), 180.0,
                        22.0, 50.0, "s1")
        for i, v in enumerate(values))
    return Window(records)
