"""Real-socket adapter: the same wire frames over a TCP byte stream.

Both sides only add socket I/O to the shared protocol code in `transport`:
the server delegates to the shared RequestHandler, so a log served here
behaves identically to one reached through the simulator (dedup included),
and the client runs the same sans-I/O core (`SizeQuery`, `AppendCall`) as
the simulated client, size cache included. Blocking, one thread per
connection, no retry; meant for interop checks and small deployments, not
performance.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
import time

from . import framing
from .errors import FrameError, TransportError
from .logstore import LogRegistry
from .transport import AppendCall, RequestHandler, SizeCache, SizeQuery


def _wall_clock_us() -> int:
    return int(time.time() * 1e6)


def read_frame(sock: socket.socket) -> bytes | None:
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (body_len,) = struct.unpack("<I", header)
    if body_len > framing.MAX_FRAME_BODY:
        raise FrameError(f"frame body {body_len} exceeds limit")
    body = _read_exact(sock, body_len)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return header + body


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise FrameError("connection closed mid-frame")
            return None  # clean EOF between frames
        buf += chunk
    return buf


class SocketLogServer:
    """Serves a log registry on a TCP port using the standard frames."""

    def __init__(self, registry: LogRegistry, host: str = "127.0.0.1",
                 port: int = 0):
        self.handler = RequestHandler(registry, clock_us=_wall_clock_us)
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def start(self) -> "SocketLogServer":
        self._thread.start()
        return self

    def _serve(self) -> None:
        self._listener.settimeout(0.1)
        workers = []
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            worker = threading.Thread(target=self._session, args=(conn,), daemon=True)
            worker.start()
            workers.append(worker)
        for w in workers:
            w.join(timeout=1.0)

    def _session(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    frame = read_frame(conn)
                except (FrameError, OSError):
                    return
                if frame is None:
                    return
                try:
                    msg = framing.decode(frame)
                except FrameError:
                    return
                reply = self.handler.handle(msg)
                if reply is not None:
                    conn.sendall(framing.encode(reply))

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=2.0)


class SocketClient:
    """Sequential request/reply against a SocketLogServer; one attempt per
    exchange, so a lost connection surfaces as an error."""

    def __init__(self, address: tuple[str, int], timeout_s: float = 5.0,
                 cache: SizeCache | None = None):
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self.peer = f"{address[0]}:{address[1]}"
        self.cache = cache
        self._request_ids = itertools.count(1)

    def _roundtrip(self, build_request):
        request = build_request(next(self._request_ids))
        self._sock.sendall(framing.encode(request))
        frame = read_frame(self._sock)
        if frame is None:
            raise TransportError("server closed the connection")
        reply = framing.decode(frame)
        if reply.request_id != request.request_id:
            raise TransportError("reply correlation mismatch")
        return reply

    def element_size(self, log_name: str) -> int:
        query = SizeQuery(self.peer, log_name)
        return query.result(self._roundtrip(query.request))

    def remote_append(self, log_name: str, payload: bytes, message_id: bytes) -> int:
        call = AppendCall(self.cache, self.peer, log_name, payload, message_id)
        if call.element_size is None:
            call.learn_size(self.element_size(log_name))
        return call.result(self._roundtrip(call.request))

    def close(self) -> None:
        self._sock.close()
