"""A closed node is closed: it answers no frame, fires no handler, resends
nothing, writes no file and keeps nothing of itself reachable from its old
simulator. A node keeps the element sizes it learns in its directory, so a
reopened node starts with them; a resized log costs it one more size exchange,
never a lost or doubled append, and a bad size file costs the same."""

import gc
import json
import struct
import tracemalloc

import pytest

from fabricsim import dataflow, framing
from fabricsim import node as node_module
from fabricsim.dataflow import INT64, DataflowGraph, GraphNode, OpDef
from fabricsim.errors import SimulatedCrash, StorageFailure
from fabricsim.events import AppendEffect
from fabricsim.framing import (
    STATUS_OK,
    STATUS_SIZE_MISMATCH,
    AppendReply,
    AppendRequest,
    SizeRequest,
)
from fabricsim.logstore import LogRegistry
from fabricsim.netsim import LinkSpec, Network
from fabricsim.node import SIZES_FILE, FabricNode
from fabricsim.simcore import Simulator, run_to_completion, sleep
from fabricsim.transport import SizeCache, TransportClient, wire_node

from .test_transport import timed


def build_pair(tmp_path, links=None, routes=None, trace=False):
    sim = Simulator(seed=1, trace=trace)
    links = links or [LinkSpec("wire", "alpha", "beta", 5.0, 0.0)]
    net = Network(sim, links, routes)
    alpha = FabricNode(sim, net, "alpha", tmp_path / "alpha")
    beta = FabricNode(sim, net, "beta", tmp_path / "beta")
    return sim, net, alpha, beta


def test_request_in_flight_to_a_closed_node_is_not_applied(tmp_path):
    # the size exchange takes 0-10 ms; the append request leaves at 10 ms and
    # would land at 15 ms, after its target closed at 12 ms
    sim, net, alpha, beta = build_pair(tmp_path, trace=True)
    beta.create_log("inbox", 16, 8)
    sim.spawn(alpha.client.remote_append("beta", "inbox", b"late"))
    sim.run(until_us=12_000)
    beta.close()
    sim.run(until_us=1_000_000)
    assert beta.registry._open == {}
    # the frame that reaches the unplugged endpoint is traced as dropped
    after_close = [(t, kind, f) for t, kind, f in sim.trace if t > 12_000]
    assert not [f for _, kind, f in after_close
                if kind == "deliver" and (f["src"], f["dst"]) == ("alpha", "beta")]
    dropped = [(t, f) for t, kind, f in after_close if f.get("reason") == "no-endpoint"]
    assert dropped[0][0] == 15_000
    assert {(f["src"], f["dst"]) for _, f in dropped} == {("alpha", "beta")}
    reopened = LogRegistry(tmp_path / "beta")
    assert reopened.get("inbox").next_seq == 1
    reopened.close_all()
    alpha.close()


def test_append_local_on_a_closed_node_raises(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 8)
    alpha.close()
    with pytest.raises(StorageFailure):
        alpha.append_local("events", b"x")
    assert alpha.registry._open == {}
    beta.close()


def test_pump_parked_on_a_remote_append_is_closed_with_its_node(tmp_path):
    # requests go up, replies come down; every reply before 1 s is dropped,
    # so a live pump would resend its size request at 100 ms
    links = [LinkSpec("up", "alpha", "beta", 5.0, 0.0),
             LinkSpec("down", "beta", "alpha", 5.0, 0.0, partitions_us=((0, 1_000_000),))]
    sim, net, alpha, beta = build_pair(
        tmp_path, links, {("alpha", "beta"): ["up"], ("beta", "alpha"): ["down"]}, trace=True)
    beta.create_log("inbox", 8, 8)
    alpha.create_log("src", 8, 8)
    alpha.engine.register_handler(
        "ship", lambda entry, ctx: [AppendEffect("beta", "inbox", entry.payload)])
    binding = alpha.engine.bind("src", "ship")
    alpha.append_local("src", b"parked")
    sim.run(until_us=1_000)  # the size request is in flight
    before = len(sim.trace)
    alpha.close()
    sim.run(until_us=60_000_000)
    # the request in flight still lands, and beta's reply is dropped; nothing more
    after = [(kind, fields.get("src"), fields.get("link")) for _, kind, fields in sim.trace[before:]]
    assert after == [("deliver", "alpha", None), ("drop", None, "down")]
    assert binding.pump is None and alpha.client._pending == {}
    assert beta.registry.get("inbox").next_seq == 1
    beta.close()


def test_failed_reply_to_a_node_closed_at_its_instant_raises_nowhere(tmp_path):
    # the size reply (unknown log) would land at 10 ms; the close, scheduled
    # first, runs at that instant before it, so the reply finds no endpoint
    sim, net, alpha, beta = build_pair(tmp_path, trace=True)
    proc = sim.spawn(alpha.client.remote_append("beta", "nope", b"x"))
    sim.schedule(10_000, alpha.close)
    sim.run(until_us=1_000_000)
    assert proc.error is None and not proc.finished
    dropped = [(t, f["src"], f["reason"]) for t, kind, f in sim.trace if kind == "drop"]
    assert dropped == [(10_000, "beta", "no-endpoint")]
    beta.close()


def test_closing_an_old_node_leaves_its_namesake_wired(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    renewed = FabricNode(sim, net, "alpha", tmp_path / "renewed")
    renewed.create_log("inbox", 16, 8)
    alpha.close()
    assert run_to_completion(sim, beta.client.remote_append("alpha", "inbox", b"hi")) == 1
    assert renewed.registry.get("inbox").next_seq == 2
    for node in (renewed, beta):
        node.close()


def encoded_requests(monkeypatch, kinds=(SizeRequest, AppendRequest)) -> list:
    """A list that gains every message of `kinds` the program encodes, as it
    is encoded."""
    requests, encode = [], framing.encode

    def recording(msg):
        if isinstance(msg, kinds):
            requests.append(msg)
        return encode(msg)

    monkeypatch.setattr(framing, "encode", recording)
    return requests


def test_a_nodes_second_remote_append_costs_one_round_trip(tmp_path, monkeypatch):
    requests = encoded_requests(monkeypatch)
    sim, net, alpha, beta = build_pair(tmp_path)
    beta.create_log("inbox", 16, 8)
    assert timed(sim, alpha.remote_append("beta", "inbox", b"cold")) == (1, 20.0)
    del requests[:]
    assert timed(sim, alpha.remote_append("beta", "inbox", b"warm")) == (2, 10.0)
    assert [type(m) for m in requests] == [AppendRequest]
    for node in (alpha, beta):
        node.close()


def saved_sizes(node_dir) -> list:
    return json.loads((node_dir / SIZES_FILE).read_bytes())


def test_a_reopened_node_keeps_the_sizes_it_learned(tmp_path, monkeypatch):
    # the node saved the size it learned: the reopened node asks nothing
    requests = encoded_requests(monkeypatch)
    sim, net, alpha, beta = build_pair(tmp_path)
    beta.create_log("inbox", 16, 8)
    run_to_completion(sim, alpha.remote_append("beta", "inbox", b"before"))
    alpha.close()
    assert saved_sizes(tmp_path / "alpha") == [["beta", "inbox", 16]]
    alpha = FabricNode(sim, net, "alpha", tmp_path / "alpha")
    del requests[:]
    # ids given: the reopened client draws its first incarnation's ids again
    assert run_to_completion(sim, alpha.remote_append("beta", "inbox", b"after", b"a" * 16)) == 2
    assert run_to_completion(sim, alpha.remote_append("beta", "inbox", b"again", b"b" * 16)) == 3
    assert [type(m) for m in requests] == [AppendRequest, AppendRequest]
    assert alpha.registry.names() == []  # the size file is no log
    for node in (alpha, beta):
        node.close()


def test_a_log_resized_while_its_client_was_down_lands_once_under_one_id(tmp_path,
                                                                        monkeypatch):
    # the reopened node's saved size is stale: the server refuses it once and
    # appends nothing, and the retry asks the size and resends the same id
    messages = encoded_requests(monkeypatch, (SizeRequest, AppendRequest, AppendReply))
    sim, net, alpha, beta = build_pair(tmp_path)
    beta.create_log("inbox", 16, 8)
    run_to_completion(sim, alpha.remote_append("beta", "inbox", b"before"))
    alpha.close()
    beta.registry.get("inbox").resize(24)
    alpha = FabricNode(sim, net, "alpha", tmp_path / "alpha")
    del messages[:]
    assert run_to_completion(sim, alpha.remote_append("beta", "inbox", b"after", b"a" * 16)) == 2
    assert [(type(m).__name__, getattr(m, "status", None)) for m in messages] == [
        ("AppendRequest", None), ("AppendReply", STATUS_SIZE_MISMATCH),
        ("SizeRequest", None), ("AppendRequest", None), ("AppendReply", STATUS_OK)]
    first, retry = (m for m in messages if isinstance(m, AppendRequest))
    assert (first.expected_element_size, retry.expected_element_size) == (16, 24)
    assert first.message_id == retry.message_id == b"a" * 16
    assert [e.payload for e in beta.registry.get("inbox").scan(1, 8).entries] == [
        b"before", b"after"]
    assert saved_sizes(tmp_path / "alpha") == [["beta", "inbox", 24]]
    for node in (alpha, beta):
        node.close()


@pytest.mark.parametrize("content", [
    b'[["beta", "inbox", 16], ["beta", "outbox", 3',  # torn
    b"\x00\xff garbage \x80",
    b"",
    b"[" * 100_000,
    b'{"beta": 16}',
    b'[["beta", "inbox"]]',
    b'[["beta", "inbox", 16], ["beta", "outbox", "3"]]',
    b'[["beta", "inbox", 16], ["beta", "outbox", 0]]',
    b'[["beta", "inbox", 16], ["beta", "outbox", true]]',
    b'[["beta", "inbox", 16], ["beta", "outbox", 4294967296]]',
    b'[["beta", "inbox", 16], [["beta"], "outbox", 3]]',
    b'[["beta", "inbox", 16], ["beta", 7, 3]]',
], ids=["truncated", "garbage", "empty", "deep", "object", "pair", "str-size", "zero-size",
        "bool-size", "u32-overflow", "list-node", "int-log"])
def test_a_bad_size_file_reads_as_empty_and_is_rewritten(tmp_path, monkeypatch, content):
    # a file here that names inbox's size names the true one, so a node that
    # trusted any part of it would not ask
    requests = encoded_requests(monkeypatch)
    (tmp_path / "alpha").mkdir()
    (tmp_path / "alpha" / SIZES_FILE).write_bytes(content)
    sim, net, alpha, beta = build_pair(tmp_path)
    beta.create_log("inbox", 16, 8)
    assert run_to_completion(sim, alpha.remote_append("beta", "inbox", b"x")) == 1
    assert [type(m) for m in requests] == [SizeRequest, AppendRequest]
    assert saved_sizes(tmp_path / "alpha") == [["beta", "inbox", 16]]
    for node in (alpha, beta):
        node.close()


def test_a_closed_node_and_a_bare_client_leave_no_size_file(tmp_path):
    # alpha learns the size at 10 ms and closes at 12 ms, its append in flight;
    # a bare client on node gamma keeps its own cache and writes nothing
    links = [LinkSpec("ab", "alpha", "beta", 5.0, 0.0), LinkSpec("gb", "gamma", "beta", 5.0, 0.0)]
    sim, net, alpha, beta = build_pair(tmp_path, links)
    beta.create_log("inbox", 16, 8)
    sim.spawn(alpha.remote_append("beta", "inbox", b"late"))
    sim.run(until_us=12_000)
    assert alpha.client.cache == {("beta", "inbox"): 16}
    alpha.close()
    bare = TransportClient(sim, net, "gamma", SizeCache())
    wire_node(net, "gamma", bare)
    assert run_to_completion(sim, bare.remote_append("beta", "inbox", b"bare")) == 2
    sim.run()
    assert bare.cache == {("beta", "inbox"): 16}
    assert sorted(p.name for p in tmp_path.rglob(f"{SIZES_FILE}*")) == []
    beta.close()


def test_a_log_grown_past_its_cached_size_takes_a_larger_payload(tmp_path, monkeypatch):
    # the cached size 8 is below the payload, so it is asked again rather
    # than refused by the client on its own
    requests = encoded_requests(monkeypatch)
    sim, net, alpha, beta = build_pair(tmp_path)
    beta.create_log("inbox", 8, 8)
    assert run_to_completion(sim, alpha.remote_append("beta", "inbox", b"8 bytes!")) == 1
    beta.registry.get("inbox").resize(16)
    del requests[:]
    assert run_to_completion(sim, alpha.remote_append("beta", "inbox", b"twelve bytes")) == 2
    assert [(type(m), m.expected_element_size if isinstance(m, AppendRequest) else None)
            for m in requests] == [(SizeRequest, None), (AppendRequest, 16)]
    assert saved_sizes(tmp_path / "alpha") == [["beta", "inbox", 16]]
    for node in (alpha, beta):
        node.close()


def test_a_resized_log_takes_handler_effects_and_injects_once_each(tmp_path, monkeypatch):
    # alpha ships each "src" entry to beta's inbox and injects one operand per
    # round into beta's dataflow node; both beta logs grow between rounds 2 and 3
    requests = encoded_requests(monkeypatch)
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("src", 8, 8)
    beta.create_log("inbox", 8, 8)
    alpha.engine.register_handler(
        "ship", lambda entry, ctx: [AppendEffect("beta", "inbox", entry.payload)])
    alpha.engine.bind("src", "ship")
    graph = DataflowGraph(graph_id="g", nodes=[GraphNode("triple", (("v", INT64),), INT64, "triple")],
                          edges=[], placement={"triple": "beta"})
    dg = dataflow.compile_graph(graph, {"alpha": alpha, "beta": beta},
                                {"triple": OpDef(lambda v: 3 * v)}, window=8)
    port_log = dg.port_log("triple", "v")
    sizes = {log: beta.registry.get(log).element_size + 8 for log in ("inbox", port_log)}
    rounds = {}  # round -> the requests it encoded

    def three_rounds():
        for i in range(3):
            if i == 2:
                for log, size in sizes.items():
                    beta.registry.get(log).resize(size)
            mark = len(requests)
            alpha.append_local("src", struct.pack("<q", i))
            yield from dg.inject(alpha, "triple", "v", i, 10 + i)
            yield sleep(100_000)  # the shipped entry lands long before this
            rounds[i] = requests[mark:]

    proc = sim.spawn(three_rounds())
    sim.run()
    assert proc.error is None and alpha.engine.failures == [] and beta.engine.failures == []
    inbox = beta.registry.get("inbox")
    assert [e.payload for e in inbox.scan(1, 8).entries] == [struct.pack("<q", i) for i in range(3)]
    assert beta.registry.get(port_log).next_seq == 4
    assert [dg.output_value("triple", i) for i in range(3)] == [30, 33, 36]
    # the round after the resize asks each log's size once, and every append
    # request of it that the server can take declares the new size
    asked = [m.log_name for m in rounds[2] if isinstance(m, SizeRequest)]
    assert sorted(asked) == sorted(sizes)
    landed = [m for m in rounds[2] if isinstance(m, AppendRequest)
              and m.expected_element_size == sizes[m.log_name]]
    assert sorted(m.log_name for m in landed) == sorted(sizes)
    for node in (alpha, beta):
        node.close()


def _open_chain(root, epoch, values, deliver=False):
    """A ships values to B, whose dataflow node triples them; B crashes after
    every 10th invocation's effects. With `deliver`, B also ships each result
    to C's "results" log."""
    sim = Simulator(seed=epoch)
    links = [LinkSpec("ab", "a", "b", 5.0, 1.0), LinkSpec("bc", "b", "c", 5.0, 1.0)]
    net = Network(sim, links[:1 + deliver])
    fabric = {name: FabricNode(sim, net, name, root / name) for name in "abc"[:2 + deliver]}
    a, b = fabric["a"], fabric["b"]
    if epoch == 0:
        a.create_log("src", 8, len(values) + 16)
        b.create_log("feed", 8, len(values) + 16)
        if deliver:
            fabric["c"].create_log("results", 8, len(values) + 16)
        for v in values:
            a.append_local("src", struct.pack("<q", v))
    graph = DataflowGraph(graph_id="g", nodes=[GraphNode("triple", (("v", INT64),), INT64, "triple")],
                          edges=[], placement={"triple": "b"})
    dg = dataflow.compile_graph(graph, fabric, {"triple": OpDef(lambda v: 3 * v)},
                                window=len(values) + 16)
    port_log = dg.port_log("triple", "v")

    def to_operand(entry, ctx):
        value = struct.unpack("<q", entry.payload)[0]
        return [AppendEffect("b", port_log, dataflow.pack_operand(entry.seq - 1, INT64, value))]

    a.engine.register_handler("ship", lambda entry, ctx: [AppendEffect("b", "feed", entry.payload)])
    a.engine.bind("src", "ship")
    b.engine.register_handler("to-operand", to_operand)
    b.engine.bind("feed", "to-operand")
    if deliver:
        b.engine.register_handler("deliver", lambda entry, ctx: [AppendEffect(
            "c", "results", struct.pack("<q", dataflow.unpack_operand(INT64, entry.payload)[1]))])
        b.engine.bind(dg.out_log("triple"), "deliver")
    b.engine.set_crash_plan(10, "after_effects")
    return sim, fabric, dg


def test_a_restarted_chain_asks_each_size_once_per_client_node(tmp_path, monkeypatch):
    # A and B each restart with every crash of B, and each reopened node
    # starts with the sizes its predecessors saved: the whole run asks A's
    # one target log and B's one target log once each
    requests, writes = encoded_requests(monkeypatch), []
    real_replace = node_module._replace_file
    monkeypatch.setattr(node_module, "_replace_file",
                        lambda path, data: writes.append(path) or real_replace(path, data))
    values = list(range(20))
    sim, fabric, dg = _open_chain(tmp_path, 0, values, deliver=True)
    for epoch in range(1, 100):
        try:
            sim.run()
            break
        except SimulatedCrash:
            pass
        for node in fabric.values():
            node.close()
        sim, fabric, dg = _open_chain(tmp_path, epoch, values, deliver=True)
    assert epoch == 7
    results = fabric["c"].registry.get("results").scan(1, 100).entries
    assert [struct.unpack("<q", e.payload)[0] for e in results] == [3 * v for v in values]
    assert [m.log_name for m in requests if isinstance(m, SizeRequest)] == ["feed", "results"]
    assert writes == [tmp_path / "a" / SIZES_FILE, tmp_path / "b" / SIZES_FILE]
    for node in fabric.values():
        node.close()


def test_kept_crash_replay_simulators_hold_little_memory(tmp_path):
    # a caller that keeps every epoch's simulator (to add up simulated time)
    # keeps only the simulator's own heap and network, not the closed nodes'
    # engines, handlers, bindings and port indexes
    values = list(range(300))
    sim, fabric, dg = _open_chain(tmp_path, 0, values)
    gc.collect()
    tracemalloc.start()
    try:
        kept_sims = []
        for epoch in range(1, 100):
            try:
                sim.run()
                break
            except SimulatedCrash:
                kept_sims.append(sim)
            for node in fabric.values():
                node.close()
            sim, fabric, dg = _open_chain(tmp_path, epoch, values)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        epochs = len(kept_sims)
        kept_sims.clear()
        gc.collect()
        dropped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert epochs >= 50
    assert [dg.output_value("triple", i) for i in range(len(values))] == [3 * v for v in values]
    assert (kept - dropped) / epochs < 8 * 1024
    for node in fabric.values():
        node.close()
