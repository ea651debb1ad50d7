import os
import struct

import pytest

from fabricsim.dataflow import (
    BYTES,
    F64VEC,
    FLOAT64,
    INT64,
    DataflowGraph,
    Edge,
    GraphNode,
    OpDef,
    compile_graph,
    decode_value,
    encode_value,
    pack_operand,
    unpack_operand,
    validate,
)
from fabricsim.errors import (
    CorruptGraphState,
    CycleDetected,
    DataflowError,
    DoubleAssignment,
    TypeMismatch,
    UnknownPlacement,
)
from fabricsim.logstore import LogStore
from fabricsim.netsim import LinkSpec, Network
from fabricsim.node import FabricNode
from fabricsim.simcore import Simulator, run_to_completion, sleep


def build_fabric(tmp_path, seed=1):
    sim = Simulator(seed=seed)
    link = LinkSpec("wire", "left", "right", 5.0, 0.0, base_capacity_mbps=10_000.0)
    net = Network(sim, [link])
    left = FabricNode(sim, net, "left", tmp_path / "left")
    right = FabricNode(sim, net, "right", tmp_path / "right")
    return sim, {"left": left, "right": right}


def add_graph(placement="left"):
    return DataflowGraph(
        graph_id="g",
        nodes=[GraphNode("add", (("x", INT64), ("y", INT64)), INT64, "add")],
        edges=[],
        placement={"add": placement})


ADD_OPS = {"add": OpDef(lambda x, y: x + y)}


# -- value codec -----------------------------------------------------------------

def test_value_codecs_round_trip():
    assert decode_value(INT64, encode_value(INT64, -42)) == -42
    assert decode_value(FLOAT64, encode_value(FLOAT64, 2.5)) == 2.5
    assert decode_value(BYTES(8), encode_value(BYTES(8), b"abc")) == b"abc"
    vec = decode_value(F64VEC(3), encode_value(F64VEC(3), [1.0, 2.0, 3.0]))
    assert vec.tolist() == [1.0, 2.0, 3.0]


def test_value_type_enforcement():
    with pytest.raises(TypeMismatch):
        encode_value(INT64, 1.5)
    with pytest.raises(TypeMismatch):
        encode_value(INT64, True)
    with pytest.raises(TypeMismatch):
        encode_value(BYTES(4), b"too long")
    with pytest.raises(TypeMismatch):
        encode_value(F64VEC(2), [1.0, 2.0, 3.0])


def test_operand_round_trip():
    payload = pack_operand(7, FLOAT64, 3.25)
    assert unpack_operand(FLOAT64, payload) == (7, 3.25)


@pytest.mark.parametrize("vt, payload", [
    (INT64, pack_operand(3, INT64, 7)[:5]),             # shorter than the prefix
    (INT64, pack_operand(3, INT64, 7)[:-1]),            # value cut short
    (INT64, pack_operand(3, INT64, 7) + b"\x00"),       # trailing byte
    (INT64, struct.pack("<QBI", 3, 1, 4) + bytes(4)),   # 4-byte int64, length agreeing
    (BYTES(4), pack_operand(3, BYTES(8), b"abcdef")),   # longer than the type allows
], ids=["short-prefix", "short-value", "trailing-byte", "narrow-int", "over-width"])
def test_malformed_operand_raises_type_mismatch(vt, payload):
    with pytest.raises(TypeMismatch):
        unpack_operand(vt, payload)


# -- graph validation ---------------------------------------------------------------

def test_compile_add_graph_creates_three_logs(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    names = fabric["left"].registry.names()
    operand_logs = [n for n in names if n.startswith("df__g__add")]
    assert sorted(operand_logs) == ["df__g__add__out", "df__g__add__x", "df__g__add__y"]


def test_type_mismatch_across_edge_rejected():
    graph = DataflowGraph(
        graph_id="g",
        nodes=[GraphNode("producer", (("in", INT64),), INT64, "id"),
               GraphNode("consumer", (("s", BYTES(16)),), BYTES(16), "id")],
        edges=[Edge("producer", "consumer", "s")],
        placement={"producer": "left", "consumer": "left"})
    with pytest.raises(TypeMismatch):
        validate(graph)


def test_self_loop_detected():
    graph = DataflowGraph(
        graph_id="g",
        nodes=[GraphNode("loop", (("x", INT64),), INT64, "id")],
        edges=[Edge("loop", "loop", "x")],
        placement={"loop": "left"})
    with pytest.raises(CycleDetected):
        validate(graph)


def test_two_node_cycle_detected():
    graph = DataflowGraph(
        graph_id="g",
        nodes=[GraphNode("a", (("x", INT64),), INT64, "id"),
               GraphNode("b", (("x", INT64),), INT64, "id")],
        edges=[Edge("a", "b", "x"), Edge("b", "a", "x")],
        placement={"a": "left", "b": "left"})
    with pytest.raises(CycleDetected):
        validate(graph)


def test_missing_placement_rejected():
    graph = add_graph()
    graph.placement = {}
    with pytest.raises(UnknownPlacement):
        validate(graph)


def test_unknown_fabric_node_rejected(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    with pytest.raises(UnknownPlacement):
        compile_graph(add_graph(placement="elsewhere"), fabric, ADD_OPS)


def test_doubly_wired_input_rejected():
    graph = DataflowGraph(
        graph_id="g",
        nodes=[GraphNode("p1", (("x", INT64),), INT64, "id"),
               GraphNode("p2", (("x", INT64),), INT64, "id"),
               GraphNode("c", (("x", INT64),), INT64, "id")],
        edges=[Edge("p1", "c", "x"), Edge("p2", "c", "x")],
        placement={"p1": "left", "p2": "left", "c": "left"})
    with pytest.raises(DataflowError):
        validate(graph)


# -- strict firing ----------------------------------------------------------------

def test_inject_both_inputs_fires_once(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    run_to_completion(sim, dg.inject(fabric["left"], "add", "y", 0, 3))
    sim.run()
    assert dg.output_value("add", 0) == 5
    assert dg.output_count("add") == 1


def test_strictness_single_input_never_fires(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    sim.run()
    assert dg.output_value("add", 0) is None
    assert dg.output_count("add") == 0


def test_duplicate_identical_inject_is_noop(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    for _ in range(3):
        run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    run_to_completion(sim, dg.inject(fabric["left"], "add", "y", 0, 3))
    sim.run()
    port_log = fabric["left"].registry.get("df__g__add__x")
    assert port_log.next_seq == 2  # single operand despite three injects
    assert dg.output_value("add", 0) == 5
    assert dg.output_count("add") == 1


def test_conflicting_inject_raises_double_assignment(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    with pytest.raises(DoubleAssignment):
        run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 99))


def test_inject_type_checked(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    with pytest.raises(TypeMismatch):
        run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, b"bytes"))


def test_inject_non_external_port_rejected(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    graph = DataflowGraph(
        graph_id="g2",
        nodes=[GraphNode("src", (("x", INT64),), INT64, "id"),
               GraphNode("dst", (("x", INT64),), INT64, "id")],
        edges=[Edge("src", "dst", "x")],
        placement={"src": "left", "dst": "left"})
    dg = compile_graph(graph, fabric, {"id": OpDef(lambda x: x)})
    with pytest.raises(DataflowError):
        run_to_completion(sim, dg.inject(fabric["left"], "dst", "x", 0, 1))


def test_multiple_iterations_fire_independently(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    for i in range(5):
        run_to_completion(sim, dg.inject(fabric["left"], "add", "x", i, i))
        run_to_completion(sim, dg.inject(fabric["left"], "add", "y", i, 10 * i))
    sim.run()
    assert [dg.output_value("add", i) for i in range(5)] == [11 * i for i in range(5)]
    assert dg.output_count("add") == 5


def test_edge_forwards_output_downstream_across_nodes(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    graph = DataflowGraph(
        graph_id="chain",
        nodes=[GraphNode("double", (("v", INT64),), INT64, "double"),
               GraphNode("inc", (("v", INT64),), INT64, "inc")],
        edges=[Edge("double", "inc", "v")],
        placement={"double": "left", "inc": "right"})
    ops = {"double": OpDef(lambda v: 2 * v), "inc": OpDef(lambda v: v + 1)}
    dg = compile_graph(graph, fabric, ops)
    run_to_completion(sim, dg.inject(fabric["left"], "double", "v", 0, 21))
    sim.run()
    assert dg.output_value("double", 0) == 42
    assert dg.output_value("inc", 0) == 43


def test_delivery_order_does_not_change_result(tmp_path):
    results = []
    for order in ((("x", 2), ("y", 3)), (("y", 3), ("x", 2))):
        sim, fabric = build_fabric(tmp_path / f"o{len(results)}")
        dg = compile_graph(add_graph(), fabric, ADD_OPS)
        for port, value in order:
            run_to_completion(sim, dg.inject(fabric["left"], "add", port, 0, value))
        sim.run()
        results.append(dg.output_value("add", 0))
    assert results == [5, 5]


def test_activity_op_occupies_simulated_time(tmp_path):
    sim, fabric = build_fabric(tmp_path)

    def slow_negate(v):
        yield sleep(2_000_000)
        return -v

    graph = DataflowGraph(
        graph_id="act",
        nodes=[GraphNode("neg", (("v", INT64),), INT64, "neg")],
        edges=[], placement={"neg": "left"})
    dg = compile_graph(graph, fabric, {"neg": OpDef(slow_negate, activity=True)})
    run_to_completion(sim, dg.inject(fabric["left"], "neg", "v", 0, 7))
    sim.run()
    assert dg.output_value("neg", 0) == -7
    assert sim.now_us >= 2_000_000


# -- per-port operand index ----------------------------------------------------------

def id_graph():
    return DataflowGraph(
        graph_id="g",
        nodes=[GraphNode("id", (("v", INT64),), INT64, "id")],
        edges=[], placement={"id": "left"})


ID_OPS = {"id": OpDef(lambda v: v)}


def test_firing_reads_each_operand_a_bounded_number_of_times(tmp_path, monkeypatch,
                                                              decoded_records):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(id_graph(), fabric, ID_OPS, window=256)
    reads = decoded_records  # slots decoded by read and scan
    for i in range(200):
        run_to_completion(sim, dg.inject(fabric["left"], "id", "v", i, 3 * i))
        sim.run()
    monkeypatch.undo()
    assert len(reads) <= 4 * 200  # a whole-log scan per firing reads ~200**2 / 2
    assert dg.output_count("id") == 200
    assert dg.output_value("id", 199) == 597


def test_small_window_fires_each_iteration_once_and_forgets_evicted(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(id_graph(), fabric, ID_OPS, window=4)
    out = fabric["left"].registry.get(dg.out_log("id"))
    for i in range(6):
        run_to_completion(sim, dg.inject(fabric["left"], "id", "v", i, 10 + i))
        sim.run()
    # iteration 0's operand is evicted, so a new value for it is no conflict;
    # its output id is still remembered, so it is not emitted twice
    run_to_completion(sim, dg.inject(fabric["left"], "id", "v", 0, 99))
    sim.run()
    assert out.next_seq == 7
    for i in range(6, 12):
        run_to_completion(sim, dg.inject(fabric["left"], "id", "v", i, 10 + i))
        sim.run()
    assert out.next_seq == 13  # one output per iteration
    assert [dg.output_value("id", i) for i in range(8, 12)] == [18, 19, 20, 21]
    assert not fabric["left"].engine.failures


def test_conflicting_inject_after_value_indexed_raises(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    sim.run()  # x's firing indexes iteration 0, then waits for y
    with pytest.raises(DoubleAssignment):
        run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 99))
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))  # no-op


def test_conflicting_operand_appended_after_indexing_blocks_firing(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    left = fabric["left"]
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(left, "add", "x", 0, 2))
    sim.run()
    # bypasses inject's own check, as a remote append would
    left.append_local(dg.port_log("add", "x"), pack_operand(0, INT64, 99))
    run_to_completion(sim, dg.inject(left, "add", "y", 0, 3))
    sim.run()
    assert dg.output_count("add") == 0
    assert any("DoubleAssignment" in f.error for f in left.engine.failures)


def test_mistagged_operand_raises_type_mismatch_on_absorbing_firing(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    left = fabric["left"]
    dg = compile_graph(id_graph(), fabric, ID_OPS)
    seq = left.append_local(dg.port_log("id", "v"), pack_operand(0, FLOAT64, 1.5))
    sim.run()
    assert [(f.seq, f.error.split(":")[0]) for f in left.engine.failures] \
        == [(seq, "TypeMismatch")]
    assert dg.output_count("id") == 0
    # checked once: later iterations on the same port still fire
    run_to_completion(sim, dg.inject(left, "id", "v", 1, 5))
    sim.run()
    assert dg.output_value("id", 1) == 5
    assert len(left.engine.failures) == 1


def test_short_operand_appended_remotely_fails_its_firing_once(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    left, right = fabric["left"], fabric["right"]
    dg = compile_graph(id_graph(), fabric, ID_OPS)
    short = pack_operand(0, INT64, 7)[:5]
    seq = run_to_completion(sim, right.client.remote_append(
        "left", dg.port_log("id", "v"), short))
    sim.run()
    assert [(f.seq, f.error.split(":")[0]) for f in left.engine.failures] \
        == [(seq, "TypeMismatch")]
    # the port index meets it on the next local inject, which raises once
    with pytest.raises(TypeMismatch):
        run_to_completion(sim, dg.inject(left, "id", "v", 1, 5))
    run_to_completion(sim, dg.inject(left, "id", "v", 1, 5))
    sim.run()
    assert dg.output_value("id", 1) == 5
    assert len(left.engine.failures) == 1


def test_index_rebuilds_when_log_reopened_after_torn_tail(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    left = fabric["left"]
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(left, "add", "x", 0, 7))
    run_to_completion(sim, dg.inject(left, "add", "x", 1, 8))
    sim.run()  # both x operands indexed
    left.registry.close_all()
    path = left.registry.path_for(dg.port_log("add", "x"))
    os.truncate(path, path.stat().st_size - 3)  # tear iteration 1's record
    assert left.registry.get(dg.port_log("add", "x")).torn_discarded
    # the torn operand is gone, so a different value for iteration 1 is accepted
    run_to_completion(sim, dg.inject(left, "add", "x", 1, 99))
    for i in range(2):
        run_to_completion(sim, dg.inject(left, "add", "y", i, 1))
    sim.run()
    assert [dg.output_value("add", i) for i in range(2)] == [8, 100]


def test_resume_sweep_rejects_conflicting_operands(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    left = fabric["left"]
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    port_log = dg.port_log("add", "x")
    left.append_local(port_log, pack_operand(0, INT64, 2))
    left.append_local(port_log, pack_operand(0, INT64, 2))  # identical re-delivery
    left.append_local(port_log, pack_operand(1, INT64, 5))
    left.close()
    fabric["right"].close()
    sim2, fabric2 = _restart(tmp_path, seed=6)
    compile_graph(add_graph(), fabric2, ADD_OPS).resume()

    fabric2["left"].append_local(port_log, pack_operand(1, INT64, 6))
    fabric2["left"].close()
    fabric2["right"].close()
    sim3, fabric3 = _restart(tmp_path, seed=7)
    with pytest.raises(CorruptGraphState):
        compile_graph(add_graph(), fabric3, ADD_OPS).resume()


def test_resume_sweep_index_serves_first_firings(tmp_path, monkeypatch):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    for i in range(20):
        run_to_completion(sim, dg.inject(fabric["left"], "add", "x", i, i))
    sim.run()
    fabric["left"].close()
    fabric["right"].close()

    sim2, fabric2 = _restart(tmp_path, seed=5)
    dg2 = compile_graph(add_graph(), fabric2, ADD_OPS)
    dg2.resume()
    scanned = []
    real_scan = LogStore.scan

    def counting_scan(self, lo, hi):
        result = real_scan(self, lo, hi)
        if self.name == dg2.port_log("add", "x"):
            scanned.extend(e.seq for e in result.entries)
        return result

    monkeypatch.setattr(LogStore, "scan", counting_scan)
    for i in range(20):
        run_to_completion(sim2, dg2.inject(fabric2["left"], "add", "y", i, 100))
    sim2.run()
    monkeypatch.undo()
    assert scanned == []  # x's log was indexed once, by the sweep
    assert [dg2.output_value("add", i) for i in range(20)] == [100 + i for i in range(20)]


# -- resume ---------------------------------------------------------------------

def _restart(tmp_path, seed):
    sim = Simulator(seed=seed)
    net = Network(sim, [LinkSpec("wire", "left", "right", 5.0, 0.0,
                                 base_capacity_mbps=10_000.0)])
    left = FabricNode(sim, net, "left", tmp_path / "left")
    right = FabricNode(sim, net, "right", tmp_path / "right")
    return sim, {"left": left, "right": right}


def test_resume_fires_enabled_but_unfired_node(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    # inject both inputs but do NOT let the engine run (crash before firing)
    gen_x = dg.inject(fabric["left"], "add", "x", 0, 2)
    gen_y = dg.inject(fabric["left"], "add", "y", 0, 3)
    for gen in (gen_x, gen_y):
        try:
            while True:
                next(gen)
        except StopIteration:
            pass
    fabric["left"].close()
    fabric["right"].close()

    sim2, fabric2 = _restart(tmp_path, seed=2)
    dg2 = compile_graph(add_graph(), fabric2, ADD_OPS)
    dg2.resume()
    sim2.run()
    assert dg2.output_value("add", 0) == 5
    assert dg2.output_count("add") == 1


def test_resume_on_completed_graph_adds_nothing(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    run_to_completion(sim, dg.inject(fabric["left"], "add", "y", 0, 3))
    sim.run()
    snapshot = {n: fabric["left"].registry.get(n).next_seq
                for n in fabric["left"].registry.names()}
    fabric["left"].close()
    fabric["right"].close()

    sim2, fabric2 = _restart(tmp_path, seed=3)
    dg2 = compile_graph(add_graph(), fabric2, ADD_OPS)
    dg2.resume()
    sim2.run()
    after = {n: fabric2["left"].registry.get(n).next_seq
             for n in fabric2["left"].registry.names()
             if not n.startswith("__")}
    for name, next_seq in after.items():
        assert snapshot[name] == next_seq, name


def test_resume_with_missing_input_stays_pending(tmp_path):
    sim, fabric = build_fabric(tmp_path)
    dg = compile_graph(add_graph(), fabric, ADD_OPS)
    run_to_completion(sim, dg.inject(fabric["left"], "add", "x", 0, 2))
    sim.run()
    fabric["left"].close()
    fabric["right"].close()

    sim2, fabric2 = _restart(tmp_path, seed=4)
    dg2 = compile_graph(add_graph(), fabric2, ADD_OPS)
    dg2.resume()
    sim2.run()
    assert dg2.output_value("add", 0) is None
