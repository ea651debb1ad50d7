import struct

import pytest

from fabricsim.errors import SimulatedCrash, UnknownHandler
from fabricsim.events import AppendEffect, effect_message_id
from fabricsim.logstore import LogStore
from fabricsim.netsim import LinkSpec, Network
from fabricsim.node import FabricNode
from fabricsim.simcore import Simulator


def build_pair(tmp_path, seed=1):
    sim = Simulator(seed=seed)
    link = LinkSpec("wire", "alpha", "beta", 5.0, 0.0, base_capacity_mbps=10_000.0)
    net = Network(sim, [link])
    alpha = FabricNode(sim, net, "alpha", tmp_path / "alpha")
    beta = FabricNode(sim, net, "beta", tmp_path / "beta")
    return sim, net, alpha, beta


def data_logs(node):
    return {name: [(e.message_id, e.payload) for e in _entries(node, name)]
            for name in node.registry.names() if not name.startswith("__")}


def _entries(node, name):
    store = node.registry.get(name)
    return store.scan(store.earliest_seq, store.next_seq - 1).entries


# -- bind / ordering ---------------------------------------------------------

def test_bind_then_appends_fire_in_sequence_order(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 64)
    seen = []
    alpha.engine.register_handler("collect", lambda e, ctx: seen.append(e.seq) or [])
    alpha.engine.bind("events", "collect")
    for i in range(3):
        alpha.append_local("events", bytes([i]))
    sim.run()
    assert seen == [1, 2, 3]


def test_bind_unknown_handler_rejected(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 64)
    with pytest.raises(UnknownHandler):
        alpha.engine.bind("events", "nope")


def test_two_handlers_on_one_log_both_fire(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 64)
    counts = {"a": 0, "b": 0}

    def make(tag):
        def fn(entry, ctx):
            counts[tag] += 1
            return []
        return fn

    alpha.engine.register_handler("h.a", make("a"))
    alpha.engine.register_handler("h.b", make("b"))
    alpha.engine.bind("events", "h.a")
    alpha.engine.bind("events", "h.b")
    for i in range(5):
        alpha.append_local("events", bytes([i]))
    sim.run()
    assert counts == {"a": 5, "b": 5}  # oracle: one invocation per append per binding


def test_handler_with_zero_effects_leaves_logs_unchanged(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 64)
    alpha.create_log("sink", 16, 64)
    alpha.engine.register_handler("noop", lambda e, ctx: [])
    alpha.engine.bind("events", "noop")
    alpha.append_local("events", b"x")
    sim.run()
    assert alpha.registry.get("sink").next_seq == 1
    assert alpha.registry.get("events").next_seq == 2


def test_handler_scanning_window_appends_summary(tmp_path):
    # handler sums the last 6 entries; oracle computes the same sum directly
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("values", 8, 64)
    alpha.create_log("summary", 8, 64)

    def summarize(entry, ctx):
        if entry.seq % 6 != 0:
            return []
        result = ctx.scan("values", entry.seq - 5, entry.seq)
        total = sum(struct.unpack("<q", e.payload)[0] for e in result.entries)
        return [AppendEffect("alpha", "summary", struct.pack("<q", total))]

    alpha.engine.register_handler("sum6", summarize)
    alpha.engine.bind("values", "sum6")
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
    for v in values:
        alpha.append_local("values", struct.pack("<q", v))
    sim.run()
    sums = [struct.unpack("<q", e.payload)[0] for e in _entries(alpha, "summary")]
    assert sums == [sum(values[:6]), sum(values[6:])]


def test_handler_panic_recorded_and_engine_continues(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 64)
    fired = []

    def flaky(entry, ctx):
        if entry.seq == 2:
            raise RuntimeError("boom")
        fired.append(entry.seq)
        return []

    alpha.engine.register_handler("flaky", flaky)
    alpha.engine.bind("events", "flaky")
    for i in range(4):
        alpha.append_local("events", bytes([i]))
    sim.run()
    assert fired == [1, 3, 4]
    assert len(alpha.engine.failures) == 1
    assert alpha.engine.failures[0].seq == 2


def test_entries_evicted_before_firing_recorded_as_failures(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 2)
    fired = []
    alpha.engine.register_handler("collect", lambda e, ctx: fired.append(e.seq) or [])
    alpha.engine.bind("events", "collect")
    for i in range(5):
        alpha.append_local("events", bytes([i]))
    sim.run()
    assert fired == [4, 5]
    assert [(f.seq, f.error) for f in alpha.engine.failures] == [
        (1, "evicted before firing"), (2, "evicted before firing"),
        (3, "evicted before firing")]
    assert {f.binding_id for f in alpha.engine.failures} == {"events__collect"}


def test_remote_effects_traverse_transport(tmp_path):
    sim, net, alpha, beta = build_pair(tmp_path)
    alpha.create_log("events", 16, 64)
    beta.create_log("mirror", 16, 64)
    alpha.engine.register_handler(
        "forward", lambda e, ctx: [AppendEffect("beta", "mirror", e.payload)])
    alpha.engine.bind("events", "forward")
    for i in range(3):
        alpha.append_local("events", bytes([i, i]))
    sim.run()
    assert [e.payload for e in _entries(beta, "mirror")] == [bytes([i, i])
                                                             for i in range(3)]


def test_effect_message_ids_are_deterministic():
    a = effect_message_id("h", "log", 7, 0)
    b = effect_message_id("h", "log", 7, 0)
    assert a == b and len(a) == 16
    assert effect_message_id("h", "log", 7, 1) != a
    assert effect_message_id("h", "log", 8, 0) != a
    assert effect_message_id("g", "log", 7, 0) != a


# -- crash / replay ------------------------------------------------------------

def _run_chain(tmp_path, crash_plan=None, seed=4):
    """Source log on alpha; handler doubles each entry into 'derived' locally
    and mirrors it to beta. Returns final (alpha logs, beta logs)."""
    sim, net, alpha, beta = build_pair(tmp_path, seed=seed)
    alpha.create_log("src", 8, 64)
    alpha.create_log("derived", 8, 64)
    beta.create_log("mirror", 8, 64)

    def transform(entry, ctx):
        value = struct.unpack("<q", entry.payload)[0]
        doubled = struct.pack("<q", 2 * value)
        return [AppendEffect("alpha", "derived", doubled),
                AppendEffect("beta", "mirror", doubled)]

    alpha.engine.register_handler("double", transform)
    alpha.engine.bind("src", "double")
    if crash_plan is not None:
        alpha.engine.set_crash_plan(*crash_plan)
    for v in (10, 20, 30, 40):
        alpha.append_local("src", struct.pack("<q", v))
    crashed = False
    try:
        sim.run()
    except SimulatedCrash:
        crashed = True
    if crashed:
        # drop in-memory state and recover over the same directories
        alpha.close()
        beta.close()
        sim2 = Simulator(seed=seed + 1000)
        net2 = Network(sim2, [LinkSpec("wire", "alpha", "beta", 5.0, 0.0,
                                       base_capacity_mbps=10_000.0)])
        alpha2 = FabricNode(sim2, net2, "alpha", tmp_path / "alpha")
        beta2 = FabricNode(sim2, net2, "beta", tmp_path / "beta")
        alpha2.engine.register_handler("double", transform)
        alpha2.engine.bind("src", "double")
        sim2.run()
        return data_logs(alpha2), data_logs(beta2), crashed
    return data_logs(alpha), data_logs(beta), crashed


def test_refire_after_crash_converges_to_fault_free_state(tmp_path):
    baseline_a, baseline_b, _ = _run_chain(tmp_path / "clean")
    # sweep both crash phases at every invocation boundary
    for invocation in range(1, 5):
        for phase in ("after_effects", "after_cursor"):
            d = tmp_path / f"crash-{invocation}-{phase}"
            got_a, got_b, crashed = _run_chain(d, crash_plan=(invocation, phase))
            assert crashed
            assert got_a == baseline_a, (invocation, phase)
            assert got_b == baseline_b, (invocation, phase)


def test_crash_replay_chain_keeps_cursor_journals_within_their_window(tmp_path,
                                                                       monkeypatch):
    # work gate: 400 values, a crash after every 30th invocation's effects;
    # at every reopen each cursor journal is empty (its window fits its
    # capacity, so no id outlives its record), and no cursor commit is ever
    # a dedup hit
    cursor_hits = []
    real_append = LogStore.append

    def append(self, payload, message_id, created_at_us=0):
        before = self.next_seq
        seq = real_append(self, payload, message_id, created_at_us)
        if self.name.startswith("__cursor__") and self.next_seq == before:
            cursor_hits.append(self.name)
        return seq

    monkeypatch.setattr(LogStore, "append", append)
    values = [struct.pack("<q", v) for v in range(400)]
    reopens = 0
    for epoch in range(100):
        sim = Simulator(seed=epoch)
        node = FabricNode(sim, Network(sim, []), "n", tmp_path / "n")
        if epoch == 0:
            node.create_log("src", 8, 512)
            node.create_log("out", 8, 512)
            for v in values:
                node.append_local("src", v)
        node.engine.register_handler(
            "copy", lambda entry, ctx: [AppendEffect("n", "out", entry.payload)])
        node.engine.bind("src", "copy")
        cursors = [node.registry.get(name) for name in node.registry.names()
                   if name.startswith("__cursor__")]
        assert cursors and all(c._dedup_journal_entries == 0 for c in cursors)
        node.engine.set_crash_plan(30, "after_effects")
        try:
            sim.run()
            break
        except SimulatedCrash:
            node.close()
            reopens += 1
    assert reopens >= 10 and cursor_hits == []
    assert [e.payload for e in _entries(node, "out")] == values
    node.close()


def test_progress_no_deadlock_across_randomized_schedules(tmp_path):
    # no wait primitive exists, so no handler can block on another; verified
    # by driving 10^4 randomized append schedules through chained bindings
    # and requiring every simulation to drain (takes ~30 s)
    import struct as _struct

    import numpy as np

    rng = np.random.default_rng(4242)
    for run in range(10_000):
        sim = Simulator(seed=run)
        net = Network(sim, [])
        node = FabricNode(sim, net, "n", tmp_path / f"r{run}")
        node.create_log("a", 8, 16)
        node.create_log("b", 8, 16)
        invoked = []
        node.engine.register_handler(
            "a2b", lambda e, ctx: [AppendEffect("n", "b", e.payload)]
            if e.seq % 2 else [])
        node.engine.register_handler(
            "sink", lambda e, ctx: invoked.append(e.seq) or [])
        node.engine.bind("a", "a2b")
        node.engine.bind("a", "sink")
        node.engine.bind("b", "sink")
        appends = int(rng.integers(1, 5))
        for k in range(appends):
            delay = int(rng.integers(0, 2_000))
            sim.schedule(delay, node.append_local, "a",
                         _struct.pack("<q", k))
        sim.run()  # raises if the event budget is exhausted; drains otherwise
        assert node.registry.get("b").next_seq - 1 == (appends + 1) // 2
        assert len(invoked) == appends + (appends + 1) // 2
        node.close()
