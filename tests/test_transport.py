import gc
import hashlib
import inspect
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fabricsim import framing, simcore
from fabricsim.errors import (
    FrameError,
    PayloadTooLarge,
    RouteUnreachable,
    SizeMismatch,
    StorageFailure,
    TransportError,
    UnknownLog,
)
from fabricsim.framing import (
    STATUS_OK,
    STATUS_PAYLOAD_TOO_LARGE,
    STATUS_SIZE_MISMATCH,
    STATUS_STORAGE_FAILURE,
    STATUS_UNKNOWN_LOG,
    AppendReply,
    AppendRequest,
    SizeReply,
    SizeRequest,
)
from fabricsim.logstore import LogRegistry, LogStore
from fabricsim.netsim import LinkSpec, Network
from fabricsim.simcore import Process, Simulator, Trigger, run_to_completion, sleep
from fabricsim.transport import (
    MIN_LATENCY_COUNT,
    RTO_MIN_MS,
    AppendCall,
    SizeCache,
    SizeQuery,
    TransportClient,
    TransportServer,
    _Exchange,
    retry_timeout_us,
    wire_node,
)


def build(tmp_path, seed=1, latency_ms=50.0, sd_ms=0.0, loss=0.0, dup=0.0,
          cache=None, trace=False, partitions=()):
    sim = Simulator(seed=seed, trace=trace)
    link = LinkSpec("wire", "client", "server", latency_ms, sd_ms,
                    loss_prob=loss, duplicate_prob=dup,
                    base_capacity_mbps=10_000.0, partitions_us=partitions)
    net = Network(sim, [link])
    registry = LogRegistry(tmp_path / "server")
    server = TransportServer(sim, net, "server", registry)
    client = TransportClient(sim, net, "client", cache=cache)
    wire_node(net, "server", server=server)
    wire_node(net, "client", client=client)
    return sim, net, registry, server, client


def record_deliveries(monkeypatch) -> list[tuple]:
    """A list that gains (request id, core, attempts, reply's request id, t_us,
    first send's t_us, whether its timeout had fired) for each reply an
    exchange is handed."""
    delivered = []
    deliver = _Exchange.deliver

    def recording(self, reply):
        delivered.append((self.request_id, self.core, self.attempts, reply.request_id,
                          self.client.sim.now_us, self.sent_us, self.timeout is None))
        deliver(self, reply)

    monkeypatch.setattr(_Exchange, "deliver", recording)
    return delivered


def borrowed(delivered: list[tuple]) -> list[tuple]:
    """The deliveries of replies to another exchange."""
    return [d for d in delivered if d[0] != d[3]]


# -- fault-free round trips -----------------------------------------------------

def timed(sim, gen):
    """Elapsed ms from spawn to completion, as the caller observes it."""
    def driver():
        t0 = sim.now_us
        result = yield from gen
        return result, (sim.now_us - t0) / 1000.0
    return run_to_completion(sim, driver())


def test_uncached_append_elapsed_is_two_round_trips(tmp_path):
    # 2 round trips x 2 x 50 ms one-way = 200 ms
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 1024, 64)
    seq, elapsed_ms = timed(sim, client.remote_append("server", "data", b"x" * 1024))
    assert seq == 1
    assert elapsed_ms == pytest.approx(200.0, abs=1.0)


def test_reply_on_the_timeouts_microsecond_still_lets_the_resend_go_out(
        tmp_path, monkeypatch):
    # 50 ms each way with no jitter: the append reply lands on the exact
    # microsecond of the 100 ms timeout, which fires first, so the resend
    # goes out before the reply resumes the process
    encodes = Counter()
    real_encode = framing.encode

    def counting_encode(msg):
        encodes[type(msg).__name__] += 1
        return real_encode(msg)

    monkeypatch.setattr(framing, "encode", counting_encode)
    sim, net, registry, server, client = build(
        tmp_path, cache=SizeCache({("server", "data"): 64}))
    registry.create("data", 64, 8)
    seq, elapsed_ms = timed(sim, client.remote_append("server", "data", b"tie"))
    assert seq == 1
    assert elapsed_ms == 100.0
    assert encodes["AppendRequest"] == 2
    assert registry.get("data").next_seq == 2


def test_closed_parked_append_sends_nothing_more(tmp_path, monkeypatch):
    # every attempt before 1 s is dropped; a resend after the heal would hop
    sim, net, registry, server, client = build(
        tmp_path, latency_ms=10.0, trace=True, partitions=((0, 1_000_000),))
    registry.create("data", 64, 8)
    proc = sim.spawn(client.remote_append("server", "data", b"closed"))
    sim.run(until_us=500_000)
    kinds = Counter(kind for _, kind, _ in sim.trace)
    assert kinds["drop"] > 0 and kinds["hop"] == 0
    proc.gen.close()
    sim.run()
    assert Counter(kind for _, kind, _ in sim.trace) == kinds
    assert registry.get("data").next_seq == 1
    # lossy appends at 0 and 250 ms, some answered by another exchange's size
    # reply, then every attempt from 300 ms to 60 s dropped: a closed client
    # sends nothing more
    delivered = record_deliveries(monkeypatch)
    sim, net, registry, server, client = build(
        tmp_path / "lossy", seed=11, latency_ms=10.0, sd_ms=4.0, loss=0.2, dup=0.05,
        trace=True, partitions=((300_000, 60_000_000),))
    registry.create("data", 16, 200)
    procs = [sim.spawn(client.remote_append("server", "data", bytes([i])))
             for i in range(100)]
    sim.run(until_us=250_000)
    procs += [sim.spawn(client.remote_append("server", "data", bytes([i])))
              for i in range(100, 150)]
    sim.run(until_us=500_000)
    landed = registry.get("data").next_seq
    kinds = Counter(kind for _, kind, _ in sim.trace)
    assert borrowed(delivered) and not all(p.finished for p in procs)
    client.close()
    assert client._pending == {}
    sim.run()
    assert Counter(kind for _, kind, _ in sim.trace) == kinds
    assert registry.get("data").next_seq == landed


def test_fault_free_path_sends_exactly_two_requests(tmp_path):
    sim, net, registry, server, client = build(tmp_path, latency_ms=40.0)
    sim.trace = []
    registry.create("data", 1024, 64)
    seq, elapsed_ms = timed(sim, client.remote_append("server", "data", b"x"))
    assert elapsed_ms == pytest.approx(160.0, abs=1.0)
    to_server = [f for _, kind, f in sim.trace
                 if kind == "deliver" and f["dst"] == "server"]
    assert len(to_server) == 2  # one size request, one append request


def test_fault_free_uncached_append_schedules_seven_events(tmp_path):
    # the spawn, two requests and two replies, and one timeout per exchange;
    # each reply resumes the process in the event that delivers it
    sim, net, registry, server, client = build(tmp_path, latency_ms=40.0)
    registry.create("data", 64, 8)
    assert run_to_completion(sim, client.remote_append("server", "data", b"x")) == 1
    assert next(sim._tie) == 7


def test_a_remote_append_is_stamped_when_the_server_applies_it(tmp_path):
    # uncached: the append request is sent after the 100 ms size round trip
    # and applied one 50 ms hop later, so its record says 150 ms (plus the
    # serialization delays), not 0 and not the send time
    sim, net, registry, server, client = build(tmp_path)
    log = registry.create("data", 1024, 64)
    applied_us = []
    server.on_append = lambda log_name: applied_us.append(sim.now_us)
    assert run_to_completion(sim, client.remote_append("server", "data", b"x")) == 1
    created_us = log.read(1).created_at_us
    assert applied_us == [created_us]
    assert 150_000 <= created_us < 150_100


def test_warm_cache_halves_latency_to_one_round_trip(tmp_path):
    sim, net, registry, server, client = build(tmp_path, latency_ms=40.0,
                                               cache=SizeCache())
    registry.create("data", 1024, 64)
    _, cold_ms = timed(sim, client.remote_append("server", "data", b"warm"))
    _, warm_ms = timed(sim, client.remote_append("server", "data", b"hot"))
    assert cold_ms == pytest.approx(160.0, abs=1.0)
    assert warm_ms == pytest.approx(80.0, abs=1.0)
    assert warm_ms == pytest.approx(0.5 * cold_ms, rel=0.02)


def test_stale_cache_surfaces_size_mismatch_not_corruption(tmp_path):
    sim, net, registry, server, client = build(tmp_path, cache=SizeCache())
    log = registry.create("data", 1024, 64)
    run_to_completion(sim, client.remote_append("server", "data", b"fill"))
    before = [(e.seq, e.payload) for e in log.scan(1, 100).entries]
    log.resize(2048)
    with pytest.raises(SizeMismatch):
        run_to_completion(sim, client.remote_append("server", "data", b"stale"))
    after = [(e.seq, e.payload) for e in log.scan(1, 100).entries]
    assert after == before
    assert client.cache.get(("server", "data")) is None  # invalidated


def test_append_after_cache_invalidation_succeeds(tmp_path):
    sim, net, registry, server, client = build(tmp_path, cache=SizeCache())
    log = registry.create("data", 1024, 64)
    run_to_completion(sim, client.remote_append("server", "data", b"fill"))
    log.resize(2048)
    with pytest.raises(SizeMismatch):
        run_to_completion(sim, client.remote_append("server", "data", b"stale"))
    seq = run_to_completion(sim, client.remote_append("server", "data", b"fresh"))
    assert seq == 2


def test_payload_larger_than_element_rejected_client_side(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("small", 64, 8)
    with pytest.raises(PayloadTooLarge):
        run_to_completion(sim, client.remote_append("server", "small", b"z" * 65))


def test_unknown_log_error(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    with pytest.raises(UnknownLog):
        run_to_completion(sim, client.remote_append("server", "ghost", b"x"))


def test_log_name_no_log_can_have_is_an_unknown_log(tmp_path):
    # a size request and an append naming a log `_check_name` rejects are
    # answered like any missing log, and the next append to a real log lands
    sim, net, registry, server, client = build(
        tmp_path, cache=SizeCache({("server", "bad/name"): 64}))
    registry.create("data", 64, 8)

    def caller():
        outcomes = []
        for log_name in ("bad/name", "no space", "data"):
            try:
                outcomes.append((yield from client.remote_append("server", log_name, b"x")))
            except UnknownLog:
                outcomes.append("unknown")
        return outcomes

    assert run_to_completion(sim, caller()) == ["unknown", "unknown", 1]
    assert registry.get("data").read(1).payload == b"x"


def test_unreachable_target_raises_immediately(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    with pytest.raises(RouteUnreachable):
        run_to_completion(sim, client.remote_append("mars", "data", b"x"))


def test_two_clients_appending_to_one_server_each_get_their_own_seqs(tmp_path):
    # replies go back to the node that asked: each append's seq names its own
    # payload, although the three appends interleave on the server
    sim = Simulator(seed=3)
    net = Network(sim, [LinkSpec("far", "a", "server", 30.0, 0.0),
                        LinkSpec("near", "b", "server", 10.0, 0.0)])
    registry = LogRegistry(tmp_path / "server")
    registry.create("inbox", 64, 8)
    wire_node(net, "server", server=TransportServer(sim, net, "server", registry))
    clients = {node: TransportClient(sim, net, node) for node in ("a", "b")}
    for node, client in clients.items():
        wire_node(net, node, client=client)
    sent = [("a", b"a1"), ("b", b"b1"), ("a", b"a2")]
    procs = [sim.spawn(clients[node].remote_append("server", "inbox", payload))
             for node, payload in sent]
    sim.run()
    assert sorted(p.result for p in procs) == [1, 2, 3]
    log = registry.get("inbox")
    assert [log.read(p.result).payload for p in procs] == [payload for _, payload in sent]
    assert log.read(1).payload == b"b1"  # the near client's two round trips finish first
    assert log.next_seq == 4


# -- server handle (wire surface, no client) --------------------------------------

def test_size_request_reply(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 1024, 8)
    reply = server.handle(SizeRequest(7, "data"))
    assert reply == SizeReply(7, STATUS_OK, 1024)


def test_size_request_unknown_log(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    reply = server.handle(SizeRequest(8, "nope"))
    assert reply.status == STATUS_UNKNOWN_LOG


def test_append_retry_carries_original_seq(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    mid = bytes(range(16))
    first = server.handle(AppendRequest(1, "data", mid, 64, b"payload"))
    retry = server.handle(AppendRequest(2, "data", mid, 64, b"payload"))
    assert first.seq == retry.seq == 1
    assert registry.get("data").next_seq == 2


def test_append_request_size_mismatch_reply(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    reply = server.handle(AppendRequest(3, "data", bytes(16), 128, b"x"))
    assert reply.status == STATUS_SIZE_MISMATCH
    assert reply.seq == 0


def test_nonexistent_log_append_reply(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    reply = server.handle(AppendRequest(4, "ghost", bytes(16), 8, b"x"))
    assert reply.status == STATUS_UNKNOWN_LOG


def test_append_larger_than_its_declared_size_is_rejected_and_not_applied(tmp_path):
    # a frame from outside the program may declare the right size and still
    # carry more; the client-side check never lets one of ours do so
    sim, net, registry, server, client = build(tmp_path)
    log = registry.create("data", 64, 8)
    reply = server.handle(AppendRequest(5, "data", bytes(16), 64, b"z" * 65))
    assert reply == AppendReply(5, STATUS_PAYLOAD_TOO_LARGE, 0)
    assert log.next_seq == 1


def test_append_to_a_closed_log_replies_storage_failure_and_is_not_applied(tmp_path):
    sim, net, registry, server, client = build(tmp_path, cache=SizeCache())
    log = registry.create("data", 64, 8)
    assert run_to_completion(sim, client.remote_append("server", "data", b"before")) == 1
    log.close()
    reply = server.handle(AppendRequest(9, "data", bytes(16), 64, b"after"))
    assert reply == AppendReply(9, STATUS_STORAGE_FAILURE, 0)
    with pytest.raises(StorageFailure):
        run_to_completion(sim, client.remote_append("server", "data", b"after"))
    assert [e.payload for e in LogStore.recover(log.path, "data").scan(1, 8).entries] == [
        b"before"]


def test_a_reply_sent_to_a_server_gets_no_reply(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    assert server.handle(SizeReply(1, STATUS_OK, 64)) is None
    assert server.handle(AppendReply(2, STATUS_OK, 1)) is None
    assert registry.get("data").next_seq == 1


def test_on_append_fires_once_per_new_record_and_not_for_a_deduplicated_retry(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    registry.create("other", 64, 8)
    appended = []
    server.on_append = appended.append
    replies = [server.handle(AppendRequest(i, log_name, mid, 64, b"x"))
               for i, (log_name, mid) in enumerate(
                   [("data", bytes(16)), ("data", bytes(16)), ("other", bytes(16)),
                    ("data", b"\1" * 16), ("data", bytes(16)), ("ghost", b"\2" * 16)], 1)]
    assert [r.seq for r in replies] == [1, 1, 1, 2, 1, 0]
    assert appended == ["data", "other", "data"]


def test_every_reply_carries_its_requests_id(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    requests = [SizeRequest(11, "data"), SizeRequest(12, "ghost"),
                AppendRequest(13, "data", bytes(16), 64, b"x"),
                AppendRequest(14, "data", bytes(16), 64, b"x"),  # a retry
                AppendRequest(15, "data", b"\1" * 16, 32, b"x"),
                AppendRequest(16, "data", b"\1" * 16, 64, b"x" * 65),
                AppendRequest(17, "ghost", b"\1" * 16, 64, b"x")]
    assert [server.handle(r).request_id for r in requests] == list(range(11, 18))


@pytest.mark.parametrize("log_name", ["no space", "bad/name", "", "../data"])
def test_a_name_no_log_can_have_is_answered_as_unknown_and_the_server_goes_on(
        tmp_path, log_name):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("data", 64, 8)
    assert server.handle(SizeRequest(1, log_name)) == SizeReply(1, STATUS_UNKNOWN_LOG, 0)
    assert server.handle(AppendRequest(2, log_name, bytes(16), 64, b"x")) == AppendReply(
        2, STATUS_UNKNOWN_LOG, 0)
    assert server.handle(AppendRequest(3, "data", bytes(16), 64, b"x")) == AppendReply(
        3, STATUS_OK, 1)


def test_a_resized_log_reports_its_new_size_and_rejects_the_old_one(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    log = registry.create("data", 256, 8)
    assert server.handle(AppendRequest(1, "data", bytes(16), 256, b"fill")).seq == 1
    log.resize(512)
    assert server.handle(AppendRequest(2, "data", b"\1" * 16, 256, b"stale")) == AppendReply(
        2, STATUS_SIZE_MISMATCH, 0)
    assert server.handle(SizeRequest(3, "data")) == SizeReply(3, STATUS_OK, 512)
    assert server.handle(AppendRequest(4, "data", b"\1" * 16, 512, b"fresh")) == AppendReply(
        4, STATUS_OK, 2)
    assert [e.payload for e in log.scan(1, 8).entries] == [b"fill", b"fresh"]


def test_a_server_on_a_reopened_registry_recovers_each_log_once(tmp_path, monkeypatch):
    first = LogRegistry(tmp_path / "server")
    first.create("inbox", 64, 8).append(b"old", bytes(16))
    first.close_all()
    sim, net, registry, server, client = build(tmp_path)
    recovered = []
    recover = LogStore.recover

    def counting(path, name=None):
        recovered.append(name)
        return recover(path, name)

    monkeypatch.setattr(LogStore, "recover", counting)
    assert server.handle(SizeRequest(1, "inbox")) == SizeReply(1, STATUS_OK, 64)
    seqs = [server.handle(AppendRequest(2 + i, "inbox", mid, 64, b"v%d" % i)).seq
            for i, mid in enumerate([b"\1" * 16, bytes(16), b"\2" * 16])]
    assert seqs == [2, 1, 3]  # the id appended before the reopen keeps its seq
    assert recovered == ["inbox"]


# -- protocol core (no simulator, no socket) ----------------------------------------

def test_unknown_status_byte_raises_transport_error():
    with pytest.raises(TransportError) as size_err:
        SizeQuery("server", "data").result(SizeReply(1, 9, 0))
    assert type(size_err.value) is TransportError
    call = AppendCall(None, "server", "data", b"x", bytes(16))
    call.learn_size(64)
    with pytest.raises(TransportError) as append_err:
        call.result(AppendReply(2, 9, 0))
    assert type(append_err.value) is TransportError


# -- receive side: the node endpoint decodes each frame once --------------------------

def test_malformed_frame_recorded_once_as_bad_frame(tmp_path):
    sim, net, registry, server, client = build(tmp_path, trace=True)
    net.send("client", "server", b"\x02\x00\x00\x00\x7f\x00")  # unknown type 0x7f
    sim.run()
    bad = [f for _, kind, f in sim.trace if kind == "bad-frame"]
    assert bad == [{"node": "server", "src": "client"}]


def test_each_delivered_frame_is_decoded_once(tmp_path, monkeypatch):
    decodes = 0
    real_decode = framing.decode

    def counting_decode(frame):
        nonlocal decodes
        decodes += 1
        return real_decode(frame)

    monkeypatch.setattr(framing, "decode", counting_decode)
    sim, net, registry, server, client = build(
        tmp_path, seed=3, latency_ms=10.0, sd_ms=2.0, loss=0.2, dup=0.05, trace=True)
    registry.create("data", 16, 256)
    procs = [sim.spawn(client.remote_append("server", "data", i.to_bytes(16, "little")))
             for i in range(200)]
    sim.run()
    assert all(p.error is None for p in procs)
    kinds = [kind for _, kind, _ in sim.trace]
    assert kinds.count("drop") > 0 and kinds.count("duplicate") > 0
    assert decodes == kinds.count("deliver")


def _lossy_link(root, n, seed, trace=False):
    """A client and a log of room for `n` 16-byte appends, over a 10 +- 4 ms
    link with 20% loss and 5% duplication."""
    sim, net, registry, server, client = build(
        root, seed=seed, latency_ms=10.0, sd_ms=4.0, loss=0.2, dup=0.05, trace=trace)
    registry.create("data", 16, 2 * n)
    appends = [client.remote_append("server", "data", i.to_bytes(16, "little"))
               for i in range(n)]
    return sim, net, registry, appends


def _lossy_appends(root, n, seed, trace):
    """`n` concurrent appends over `_lossy_link`."""
    sim, net, registry, appends = _lossy_link(root, n, seed, trace)
    procs = [sim.spawn(gen) for gen in appends]
    sim.run()
    assert all(p.error is None for p in procs)
    return sim, net, registry, [p.result for p in procs]


def test_lossy_appends_reproduce_pinned_history(tmp_path):
    # literals: every frame's fate and timing, the order the appends land
    # in, and the message ids drawn; the first hash also covers request ids,
    # the second everything else
    sim, net, registry, seqs = _lossy_appends(tmp_path, 300, seed=11, trace=True)
    kinds = [kind for _, kind, _ in sim.trace]
    assert {"drop", "duplicate", "late-reply"} <= set(kinds)
    assert kinds.count("late-reply") == 64
    trace_hash = hashlib.sha256("\n".join(sim.trace_lines()).encode()).hexdigest()
    assert trace_hash == "5886972ebf73b6cacf9a6814470c93a2c5ec6cb9a294f6172a820bc295a14190"
    without_ids = [
        json.dumps({"t_us": t, "kind": kind,
                    **{k: v for k, v in f.items() if k != "request_id"}}, sort_keys=True)
        for t, kind, f in sim.trace]
    assert hashlib.sha256("\n".join(without_ids).encode()).hexdigest() == \
        "1802227ecbd0d796fd1ac5ef959cbf135a8108e5e6c6ec105a7bcf730ed411b1"
    seqs_hash = hashlib.sha256(json.dumps(seqs).encode()).hexdigest()
    assert seqs_hash == "cb5e543bc3c85bc6c56d4c8b19bbdc7d6b8c479d7d16e98f0c8dff173d5b6c7b"
    ids = b"".join(e.message_id for e in registry.get("data").scan(1, 300).entries)
    assert hashlib.sha256(ids).hexdigest() == \
        "7ca215b8c7caa558e58e4571d97dbc9f0d71a46cb388efbfdaa2d813b366af25"


def test_lossy_appends_schedule_at_most_2260_events(tmp_path):
    # spawns, hops and timeouts only: no resume or resend event of its own, and
    # a timeout that a first RTT sample moves earlier keeps its event
    sim, *_ = _lossy_appends(tmp_path, 300, seed=11, trace=False)
    assert next(sim._tie) <= 2_260


def test_lossy_appends_send_at_most_475_append_requests(tmp_path, monkeypatch):
    # 485 while first attempts waited out the 100 ms placeholder after the
    # first sample and the RTO floor was 20 ms
    sent, encode = Counter(), framing.encode

    def counting_encode(msg):
        sent[type(msg)] += 1
        return encode(msg)

    monkeypatch.setattr(framing, "encode", counting_encode)
    _lossy_appends(tmp_path, 300, seed=11, trace=False)
    assert sent[AppendRequest] <= 475


@pytest.mark.parametrize("pct, bound_ms", [(50, 49.69), (90, 106.48)], ids=["p50", "p90"])
def test_lossy_appends_complete_within_their_measured_percentiles(tmp_path, pct, bound_ms):
    # measured 49.681 and 106.479 ms; 81.80 and 159.33 ms while first attempts
    # kept the 100 ms placeholder after the first sample; on a fixed 100 ms first
    # timeout, 126.7 and 355.0 ms, and 737.9 ms at p90 while each timed-out size
    # exchange waited for its own resend
    sim, net, registry, appends = _lossy_link(tmp_path, 300, seed=11)
    elapsed_ms = []

    def timed_append(gen):
        t0 = sim.now_us
        yield from gen
        elapsed_ms.append((sim.now_us - t0) / 1000.0)

    for gen in appends:
        sim.spawn(timed_append(gen))
    sim.run()
    assert len(elapsed_ms) == 300
    assert np.percentile(elapsed_ms, pct) <= bound_ms


def test_message_ids_are_the_client_stream_in_order(tmp_path):
    sim, net, registry, server, client = build(tmp_path, seed=4)
    stream = Simulator(seed=4).rng("client:client")
    # 600 ids cross two refills of the client's id buffer
    assert [client.new_message_id() for _ in range(600)] == \
        [stream.bytes(16) for _ in range(600)]


def test_untraced_run_never_calls_record(tmp_path, monkeypatch):
    records = Counter()
    real_record = Simulator.record

    def counting_record(self, kind, **fields):
        records[kind] += 1
        real_record(self, kind, **fields)

    monkeypatch.setattr(Simulator, "record", counting_record)
    for trace in (True, False):
        records.clear()
        sim, net, *_ = _lossy_appends(tmp_path / str(trace), 100, seed=5, trace=trace)
        # a bad frame, straight to the endpoint `wire_node` registered, so no
        # link loss can keep it from the `bad-frame` site
        net._endpoints["server"](b"\x02\x00\x00\x00\x7f\x00", "client")
        if trace:  # the run reaches every record site of the wire path
            assert set(records) == {"hop", "deliver", "drop", "duplicate",
                                    "late-reply", "bad-frame"}
        else:
            assert sum(records.values()) == 0


def test_wire_path_resolves_each_route_once_and_decodes_each_frame_once(
        tmp_path, monkeypatch):
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Network, "route", counted("route", Network.route))
    monkeypatch.setattr(framing, "decode", counted("decode", framing.decode))
    sim, *_ = _lossy_appends(tmp_path, 100, seed=5, trace=True)
    kinds = Counter(kind for _, kind, _ in sim.trace)
    assert kinds["hop"] > 400
    assert calls["route"] == 2  # client -> server and server -> client
    assert calls["decode"] == kinds["deliver"]


# -- retries under faults -----------------------------------------------------------

def test_an_exchange_abandoned_before_its_first_send_leaves_no_pending_entry(tmp_path):
    # a log name too long for a frame: the size request never goes out
    sim, net, registry, server, client = build(tmp_path)
    with pytest.raises(FrameError, match="string field too long"):
        run_to_completion(sim, client.remote_append("server", "x" * 70_000, b"x"))
    assert client._pending == {}
    client.close()


def test_every_attempt_of_an_exchange_carries_its_one_request_id(tmp_path):
    # requests take 200 ms up, and replies that leave before 250 ms are dropped:
    # the size request goes out at 0, 100 and 300 ms, the reply to the second
    # attempt resolves the exchange at 310 ms and the reply to the third is late
    sim = Simulator(seed=1, trace=True)
    links = [LinkSpec("up", "client", "server", 200.0, 0.0),
             LinkSpec("down", "server", "client", 10.0, 0.0, partitions_us=((0, 250_000),))]
    net = Network(sim, links, {("client", "server"): ["up"], ("server", "client"): ["down"]})
    registry = LogRegistry(tmp_path / "server")
    server = TransportServer(sim, net, "server", registry)
    client = TransportClient(sim, net, "client")
    registry.create("data", 16, 8)
    taken = []  # (t_us, message) of every frame an endpoint takes

    def capture(node, endpoint):
        def wrapped(frame, src):
            taken.append((sim.now_us, framing.decode(frame)))
            endpoint(frame, src)
        net.register_endpoint(node, wrapped)

    capture("server", wire_node(net, "server", server=server))
    capture("client", wire_node(net, "client", client=client))
    proc = sim.spawn(client.remote_append("server", "data", b"once"))
    sim.run()
    assert proc.result == 1
    size_requests = [(t, m.request_id) for t, m in taken if isinstance(m, SizeRequest)]
    (size_id,) = {request_id for _, request_id in size_requests}
    assert [t for t, _ in size_requests] == [200_000, 300_000, 500_000]
    size_replies = [(t, m.request_id) for t, m in taken if isinstance(m, SizeReply)]
    assert size_replies == [(310_000, size_id), (510_000, size_id)]
    # the first reply resolves the exchange: the append request leaves at once
    first_append = next(t for t, m in taken if isinstance(m, AppendRequest))
    assert first_append == 310_000 + 200_000
    late = [(t, f["request_id"]) for t, kind, f in sim.trace
            if kind == "late-reply" and f["request_id"] == size_id]
    assert late == size_replies[1:]
    # both exchanges were resent, so neither is an RTT sample (Karn's rule)
    assert client._rto_us == {}


def test_a_size_reply_answers_only_earlier_timed_out_exchanges_of_its_log(
        tmp_path, monkeypatch):
    # two logs over a lossy link: a reply answers another exchange only when
    # that one asks the same log, was created earlier, and its timeout fired;
    # it then sends nothing more. Only an exchange its own reply answers on
    # the first attempt is an RTT sample (Karn's rule)
    delivered = record_deliveries(monkeypatch)
    samples, sent = [], Counter()
    sample_rtt, encode = TransportClient._sample_rtt, framing.encode

    def recording_sample(self, target, rtt_us):
        samples.append((target, rtt_us))
        sample_rtt(self, target, rtt_us)

    def counting_encode(msg):
        sent[type(msg), msg.request_id] += 1
        return encode(msg)

    monkeypatch.setattr(TransportClient, "_sample_rtt", recording_sample)
    monkeypatch.setattr(framing, "encode", counting_encode)
    sim, net, registry, server, client = build(
        tmp_path, seed=11, latency_ms=10.0, sd_ms=4.0, loss=0.2, dup=0.05)
    for name in ("a", "b"):
        registry.create(name, 16, 400)
    procs = [sim.spawn(client.remote_append("server", "ab"[i % 2], i.to_bytes(2, "little")))
             for i in range(300)]
    sim.run()
    assert all(p.error is None for p in procs)
    assert sorted(p.result for p in procs) == sorted([*range(1, 151)] * 2)
    own_core = {rid: core for rid, core, *_ in delivered}
    others = borrowed(delivered)
    assert len(others) > 10
    for rid, core, attempts, reply_id, t_us, sent_us, timed_out in others:
        assert isinstance(core, SizeQuery) and own_core[reply_id] is core
        assert rid < reply_id
        assert timed_out and t_us > sent_us  # answered when its timeout fired
        assert attempts == sent[SizeRequest, rid] == 1  # and it sent nothing then
    assert {core.log_name for _, core, *_ in others} == {"a", "b"}
    assert len({rid for rid, *_ in delivered}) == len(delivered)  # each answered once
    assert any(attempts > 1 for _, _, attempts, *_ in delivered)
    assert samples == [(core.target, t_us - sent_us)
                       for rid, core, attempts, reply_id, t_us, sent_us, _ in delivered
                       if rid == reply_id and attempts == 1]


def test_retry_transparency_same_result_under_loss(tmp_path):
    sim, net, registry, server, client = build(tmp_path, seed=77, loss=0.4)
    registry.create("data", 64, 256)
    seqs = []
    for i in range(30):
        seqs.append(run_to_completion(
            sim, client.remote_append("server", "data", bytes([i]))))
    assert seqs == list(range(1, 31))
    entries = registry.get("data").scan(1, 30).entries
    assert [e.payload for e in entries] == [bytes([i]) for i in range(30)]


def test_appends_issued_during_partition_converge_after_heal(tmp_path):
    # delay tolerance: the message parks in the retry loop while the link is
    # down and lands shortly after connectivity returns
    sim = Simulator(seed=9)
    heal_us = 5_000_000
    link = LinkSpec("flaky", "client", "server", 10.0, 0.0,
                    partitions_us=((0, heal_us),), base_capacity_mbps=10_000.0)
    net = Network(sim, [link])
    registry = LogRegistry(tmp_path / "server")
    server = TransportServer(sim, net, "server", registry)
    client = TransportClient(sim, net, "client")
    wire_node(net, "server", server=server)
    wire_node(net, "client", client=client)
    registry.create("parked", 64, 32)
    proc = sim.spawn(client.remote_append("server", "parked", b"patience"))
    sim.run()
    assert proc.error is None
    assert proc.result == 1
    # backoff is capped at 5 s, so convergence comes within heal + cap + RTTs
    assert heal_us < sim.now_us < heal_us + 5_100_000 * 2
    assert registry.get("parked").read(1).payload == b"patience"


@pytest.mark.parametrize("rto_us, timeouts_us", [
    (100_000, [100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 5_000_000]),
    (21_250, [21_250, 42_500, 85_000, 170_000, 340_000, 680_000, 1_360_000]),
    (1, [1, 2, 4, 8, 16, 32, 64]),
    (7_000_000, [5_000_000] * 7),
], ids=["before-a-sample", "sampled", "one-us", "above-the-cap"])
def test_retry_timeouts_double_up_to_the_cap_at_any_attempt(rto_us, timeouts_us):
    assert [retry_timeout_us(rto_us, a) for a in range(7)] == timeouts_us
    assert retry_timeout_us(rto_us, 1023) == retry_timeout_us(rto_us, 1024) == 5_000_000
    assert retry_timeout_us(rto_us, 10**6) == 5_000_000


def test_append_parked_through_a_two_hour_partition_lands_after_heal(tmp_path):
    # more than 1,024 capped 5 s timeouts pass before the link heals; with no
    # RTT sample yet, attempts time out after 100 ms, doubling up to 5 s
    heal_us = 2 * 3600 * 1_000_000
    sim, net, registry, server, client = build(
        tmp_path, latency_ms=10.0, partitions=((0, heal_us),), trace=True)
    registry.create("data", 64, 8)
    proc = sim.spawn(client.remote_append("server", "data", b"patience"))
    sim.run()
    assert proc.error is None
    assert proc.result == 1
    assert heal_us < sim.now_us < heal_us + 5_100_000 * 2
    drops = [t for t, kind, _ in sim.trace if kind == "drop"]
    gaps = np.diff(drops).tolist()
    assert gaps[:7] == [100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 5_000_000]
    assert len(gaps) > 1_024 and set(gaps[6:]) == {5_000_000}


def _two_targets(tmp_path, partitions=()):
    """A client with fixed-latency lossless links to `near` (6.25 ms one way,
    partitioned over `partitions`) and `far` (25 ms), a log on each."""
    sim = Simulator(seed=1, trace=True)
    net = Network(sim, [LinkSpec("n", "client", "near", 6.25, 0.0, partitions_us=partitions),
                        LinkSpec("f", "client", "far", 25.0, 0.0)])
    client = TransportClient(sim, net, "client")
    wire_node(net, "client", client=client)
    for node in ("near", "far"):
        registry = LogRegistry(tmp_path / node)
        registry.create("data", 16, 8)
        wire_node(net, node, server=TransportServer(sim, net, node, registry))
    return sim, client


def test_each_target_keeps_its_own_rfc_6298_rto_floored_at_rto_min(tmp_path):
    # round trips of exactly 12.5 and 50 ms; after sample k, RTO = SRTT +
    # 4 x RTTVAR with SRTT = R and 4 x RTTVAR = 2R x (3/4)^(k-1) (integer us),
    # and never below RTO_MIN_MS
    sim, client = _two_targets(tmp_path)
    rtos = {"near": [], "far": []}

    def sampler():
        for _ in range(5):
            for target in ("near", "far"):
                assert (yield from client.fetch_element_size(target, "data")) == 16
                rtos[target].append(client._rto_us[target])

    run_to_completion(sim, sampler())
    # near decays 37.5, 31.25, 26.56 ms, then 23.05 and 20.41 ms are raised to the floor
    assert rtos == {"near": [37_500, 31_250, 26_563, 25_000, 25_000],
                    "far": [150_000, 125_000, 106_250, 92_188, 81_641]}
    assert client._rtt["near"] == (100_000, 7_911)  # under the floor, RTTVAR decays on
    assert RTO_MIN_MS == 25.0


def test_an_attempt_times_out_after_its_targets_rto_and_a_resent_exchange_is_no_sample(
        tmp_path):
    # three samples set near's RTO to 26.563 ms; its link is then down from 100
    # to 130 ms, so the fourth exchange's attempts at 100 and 126.563 ms drop and
    # the one at 179.689 ms, after a doubled timeout, is answered, which Karn's
    # rule does not sample
    sim, client = _two_targets(tmp_path, partitions=((100_000, 130_000),))

    def fetches():
        for _ in range(3):
            yield from client.fetch_element_size("near", "data")
        yield sleep(100_000 - sim.now_us)
        return (yield from client.fetch_element_size("near", "data"))

    assert run_to_completion(sim, fetches()) == 16
    assert [t for t, kind, _ in sim.trace if kind == "drop"] == [100_000, 126_563]
    assert sim.now_us == 179_689 + 12_500
    assert client._rto_us == {"near": 26_563}


def test_a_first_sample_moves_the_placeholder_timeouts_of_its_target_in_place(tmp_path):
    # two appends ask the size at 0 over a 10 ms path, and the first request is
    # lost; the second exchange's reply at 20 ms is the first sample (RTO 60 ms),
    # so the first exchange's timeout moves from 100 to 80 ms, keeping its heap
    # entry and tie, and then takes that fresher reply without sending again
    sim, net, registry, server, client = build(tmp_path, latency_ms=10.0)
    registry.create("data", 16, 8)
    taken, server_endpoint = [], net._endpoints["server"]

    def losing_the_first(frame, src):
        taken.append((sim.now_us, framing.decode(frame)))
        if len(taken) > 1:
            server_endpoint(frame, src)

    net.register_endpoint("server", losing_the_first)
    finished = {}

    def append(payload):
        seq = yield from client.remote_append("server", "data", payload)
        finished[payload] = seq, sim.now_us

    for payload in (b"lost", b"kept"):
        sim.spawn(append(payload))
    sim.run(until_us=19_999)
    entry = client._pending[1].timeout
    tie = entry[0] & ((1 << simcore.TIE_BITS) - 1)
    assert entry[0] >> simcore.TIE_BITS == 100_000
    sim.run(until_us=20_000)
    assert client._rto_us == {"server": 60_000}
    assert client._pending[1].timeout is entry and entry[0] == 80_000 << simcore.TIE_BITS | tie
    sim.run()
    assert finished == {b"kept": (1, 40_000), b"lost": (2, 100_000)}
    assert [(t, type(m).__name__, m.request_id) for t, m in taken] == [
        (10_000, "SizeRequest", 1), (10_000, "SizeRequest", 2),
        (30_000, "AppendRequest", 3), (90_000, "AppendRequest", 4)]
    assert next(sim._tie) == 13  # moved in place: no event drawn for the move


def test_exactly_once_under_loss_duplication_reordering(tmp_path):
    sim, net, registry, server, client = build(
        tmp_path, seed=101, latency_ms=10.0, sd_ms=4.0, loss=0.2, dup=0.1)
    registry.create("data", 64, 2048)
    n = 400
    procs = []
    for i in range(n):
        payload = i.to_bytes(8, "little")
        procs.append(sim.spawn(client.remote_append("server", "data", payload)))
    sim.run()
    returned = {}
    for i, proc in enumerate(procs):
        assert proc.error is None
        returned[i] = proc.result
    store = registry.get("data")
    entries = store.scan(1, n).entries
    assert sorted(e.seq for e in entries) == list(range(1, n + 1))
    # each message landed exactly once and the returned seq matches its entry
    by_payload = {int.from_bytes(e.payload, "little"): e.seq for e in entries}
    assert len(by_payload) == n
    for i, seq in returned.items():
        assert by_payload[i] == seq


def test_finished_exchanges_and_expired_waits_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # with the collector off, every wire-path object must be freed by
    # reference counting alone, including exchanges another reply answered
    delivered = record_deliveries(monkeypatch)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sim, net, registry, seqs = _lossy_appends(tmp_path, 200, seed=5, trace=False)
        registry.close_all()
        del sim, net, registry
        waits = Simulator()
        bare = Trigger()
        waits.schedule(2_000, bare.fire, "bare")

        def waiter():
            return (yield bare)

        assert run_to_completion(waits, waiter()) == "bare"
        del waits, bare, waiter
        gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, (Process, _Exchange)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert seqs and borrowed(delivered) and not leaked


def test_an_append_in_flight_keeps_at_most_900_traced_bytes(tmp_path):
    # the generators exist before tracing starts, so the peak is what the
    # appends in flight keep alive: exchanges, protocol cores, frames, events
    n = 1_000
    sim, net, registry, appends = _lossy_link(tmp_path, n, seed=11)
    tracemalloc.start()
    try:
        procs = [sim.spawn(gen) for gen in appends]
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.error is None for p in procs)
    assert peak / n <= 900  # 860 B measured


def test_cancelled_timeouts_stay_within_a_quarter_of_the_heap(tmp_path, monkeypatch):
    # after every cancel, the only step that adds a cancelled entry, in a heap of
    # 256 or more; one timeout per exchange answered before it fired
    n, seen = 2_000, []
    sim, net, registry, appends = _lossy_link(tmp_path, n, seed=11)
    cancel = Simulator.cancel

    def checked_cancel(self, event):
        cancel(self, event)
        cancelled = [entry[1] for entry in self._heap].count(None)
        assert cancelled == self._cancelled
        if len(self._heap) >= 256:
            assert cancelled <= len(self._heap) / 4
        seen.append(cancelled)

    monkeypatch.setattr(Simulator, "cancel", checked_cancel)
    procs = [sim.spawn(gen) for gen in appends]
    sim.run()
    assert all(p.error is None for p in procs)
    assert len(seen) > n and max(seen) > 256  # the wire path did cancel, and compact


def test_client_exchanges_stay_generator_functions():
    # callers, and the benchmark's probes, wrap both with `yield from`
    assert inspect.isgeneratorfunction(TransportClient.remote_append)
    assert inspect.isgeneratorfunction(TransportClient.fetch_element_size)


# -- measure_latency ------------------------------------------------------------------

def test_measure_latency_discards_first_sample(tmp_path):
    sim, net, registry, server, client = build(tmp_path, cache=SizeCache())
    registry.create("bench", 1024, 64)
    stats = run_to_completion(
        sim, client.measure_latency("server", "bench", 1024, 30))
    # cold first sample (2 RTs) discarded; the 29 kept are warm 1-RT samples
    assert stats.n == 29
    assert stats.mean_ms == pytest.approx(100.0, abs=1.0)
    assert stats.sd_ms == pytest.approx(0.0, abs=0.5)


def test_measure_latency_requires_two_samples(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("bench", 64, 8)
    with pytest.raises(Exception):
        run_to_completion(sim, client.measure_latency("server", "bench", 16, 1))


def test_measure_latency_needs_min_latency_count(tmp_path):
    sim, net, registry, server, client = build(tmp_path)
    registry.create("bench", 64, 8)
    with pytest.raises(TransportError, match=f"at least {MIN_LATENCY_COUNT} samples"):
        run_to_completion(sim, client.measure_latency("server", "bench", 16,
                                                      MIN_LATENCY_COUNT - 1))
    assert registry.get("bench").next_seq == 1  # rejected before the first append


def test_measure_latency_stats_match_samples(tmp_path):
    sim, net, registry, server, client = build(tmp_path, seed=5, sd_ms=5.0)
    registry.create("bench", 1024, 64)
    stats = run_to_completion(
        sim, client.measure_latency("server", "bench", 1024, 30))
    assert stats.mean_ms == pytest.approx(float(np.mean(stats.samples_ms)), rel=1e-12)
    assert stats.sd_ms == pytest.approx(float(np.std(stats.samples_ms, ddof=1)),
                                        rel=1e-12)
