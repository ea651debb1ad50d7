import threading
import time

import pytest

from fabricsim.errors import PayloadTooLarge, SizeMismatch, TransportError, UnknownLog
from fabricsim.logstore import LogRegistry, LogStore
from fabricsim.sockfab import SocketClient, SocketLogServer
from fabricsim.transport import SizeCache


@pytest.fixture
def served(tmp_path):
    registry = LogRegistry(tmp_path)
    registry.create("inbox", 256, 64)
    server = SocketLogServer(registry).start()
    client = SocketClient(server.address)
    yield registry, client
    client.close()
    server.close()
    registry.close_all()


def mid(i: int) -> bytes:
    return i.to_bytes(16, "little")


def test_socket_append_round_trip(served):
    registry, client = served
    assert client.element_size("inbox") == 256
    assert client.remote_append("inbox", b"over tcp", mid(1)) == 1
    assert registry.get("inbox").read(1).payload == b"over tcp"


def test_socket_retry_same_message_id_dedups(served):
    registry, client = served
    first = client.remote_append("inbox", b"once", mid(7))
    second = client.remote_append("inbox", b"once", mid(7))
    assert first == second == 1
    assert registry.get("inbox").next_seq == 2


def test_socket_unknown_log(served):
    _, client = served
    with pytest.raises(UnknownLog):
        client.element_size("ghost")


def test_socket_bad_log_name_is_unknown_and_the_session_goes_on(served):
    registry, client = served
    cached = SocketClient(client._sock.getpeername(), cache=SizeCache())
    cached.cache[(cached.peer, "bad/name")] = 256
    try:
        with pytest.raises(UnknownLog):
            client.element_size("no space")
        with pytest.raises(UnknownLog):
            cached.remote_append("bad/name", b"x", mid(20))
        # both connections are still served
        assert client.remote_append("inbox", b"still here", mid(21)) == 1
        assert cached.remote_append("inbox", b"and here", mid(22)) == 2
    finally:
        cached.close()


def test_socket_payload_too_large(served):
    _, client = served
    with pytest.raises(PayloadTooLarge):
        client.remote_append("inbox", b"z" * 300, mid(2))


def test_socket_stale_cache_size_mismatch(served):
    registry, client = served
    cached = SocketClient(client._sock.getpeername(), cache=SizeCache())
    try:
        cached.remote_append("inbox", b"fill", mid(3))
        registry.get("inbox").resize(512)
        with pytest.raises(SizeMismatch):
            cached.remote_append("inbox", b"stale", mid(4))
        # cache invalidated: next cached append re-fetches and succeeds
        assert cached.remote_append("inbox", b"fresh", mid(5)) == 2
    finally:
        cached.close()


def test_socket_two_clients_interleave(served):
    registry, client = served
    other = SocketClient(client._sock.getpeername())
    try:
        seqs = {client.remote_append("inbox", b"a", mid(10)),
                other.remote_append("inbox", b"b", mid(11)),
                client.remote_append("inbox", b"c", mid(12))}
        assert seqs == {1, 2, 3}
    finally:
        other.close()


def test_socket_first_requests_on_a_reopened_registry_recover_each_log_once(
        tmp_path, monkeypatch):
    n = 8
    LogRegistry(tmp_path).create("inbox", 256, 64).close()
    recovered = []
    recover = LogStore.recover

    def slow_recover(path, name=None):
        recovered.append(name)
        time.sleep(0.01)  # widens the window in which two sessions could both recover
        return recover(path, name)

    monkeypatch.setattr(LogStore, "recover", slow_recover)
    registry = LogRegistry(tmp_path)
    server = SocketLogServer(registry).start()
    clients = [SocketClient(server.address, cache=SizeCache()) for _ in range(n)]
    for c in clients:
        c.cache[(c.peer, "inbox")] = 256  # warm: the first request is the append
    barrier = threading.Barrier(n)
    seqs = []

    def append(i: int) -> None:
        barrier.wait()
        seqs.append(clients[i].remote_append("inbox", b"v%d" % i, mid(100 + i)))

    threads = [threading.Thread(target=append, args=(i,)) for i in range(n)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        for c in clients:
            c.close()
        server.close()
        registry.close_all()
    assert recovered == ["inbox"]
    assert sorted(seqs) == list(range(1, n + 1))
    monkeypatch.undo()
    reopened = LogRegistry(tmp_path).get("inbox")
    assert sorted(reopened.read(seq).payload for seq in range(1, n + 1)) == sorted(
        b"v%d" % i for i in range(n))
    assert reopened.next_seq == n + 1
    reopened.close()


def test_socket_request_after_close_is_not_applied(tmp_path):
    registry = LogRegistry(tmp_path)
    registry.create("inbox", 256, 64)
    server = SocketLogServer(registry).start()
    client = SocketClient(server.address, cache=SizeCache())
    try:
        assert client.remote_append("inbox", b"before", mid(30)) == 1  # warms the cache
        server.close()
        with pytest.raises(TransportError):
            client.remote_append("inbox", b"after", mid(31))
        assert registry.get("inbox").next_seq == 2
    finally:
        client.close()
        registry.close_all()
