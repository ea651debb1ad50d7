"""Real-socket adapter: the same wire frames over a TCP byte stream.

Both sides only add socket I/O to the shared protocol code in `transport`:
the server delegates to the shared RequestHandler, so a log served here
behaves identically to one reached through the simulator (dedup included),
and the client runs the same sans-I/O core (`SizeQuery`, `AppendCall`) as
the simulated client, size cache included. The server is the standard
library's threading TCP server: one thread per connection, one request
applied at a time, and `close()` is final. Blocking, no retry; meant for
interop checks and small deployments, not performance.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import struct
import threading
import time
from typing import BinaryIO

from . import framing
from .errors import FrameError, TransportError
from .logstore import LogRegistry
from .transport import AppendCall, RequestHandler, SizeCache, SizeQuery


def read_frame(stream: BinaryIO) -> bytes | None:
    """The next frame from a buffered binary stream; None on a clean EOF between frames."""
    header = stream.read(4)
    if not header:
        return None
    if len(header) < 4:
        raise FrameError("connection closed mid-frame")
    (body_len,) = struct.unpack("<I", header)
    if body_len > framing.MAX_FRAME_BODY:
        raise FrameError(f"frame body {body_len} exceeds limit")
    body = stream.read(body_len)
    if len(body) < body_len:
        raise FrameError("connection closed mid-frame")
    return header + body


class _Session(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        try:
            while (frame := read_frame(self.rfile)) is not None:
                msg = framing.decode(frame)
                with self.server._lock:
                    if self.server._closed:
                        return
                    reply = self.server.handler.handle(msg)
                if reply is not None:
                    self.wfile.write(framing.encode(reply))
        except (FrameError, OSError):
            return


class SocketLogServer(socketserver.ThreadingTCPServer):
    """Serves a log registry on a TCP port using the standard frames."""

    daemon_threads = True
    block_on_close = False  # an idle session ends when its peer goes or writes
    request_queue_size = socket.SOMAXCONN  # the standard library's 5 drops bursts of connects

    def __init__(self, registry: LogRegistry, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__((host, port), _Session)
        self.address = self.server_address
        self.handler = RequestHandler(registry, clock_us=lambda: int(time.time() * 1e6))
        self._lock = threading.Lock()  # one request applied at a time, none once closed
        self._closed = False
        # a 50 ms poll bounds how long close() waits for the loop to stop
        self._serving = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)

    def start(self) -> "SocketLogServer":
        self._serving.start()
        return self

    def close(self) -> None:
        with self._lock:
            self._closed = True
        if self._serving.is_alive():  # shutdown() would block forever if the loop never ran
            self.shutdown()
        self.server_close()


class SocketClient:
    """Sequential request/reply against a SocketLogServer; one attempt per
    exchange, so a lost connection surfaces as an error."""

    def __init__(self, address: tuple[str, int], timeout_s: float = 5.0,
                 cache: SizeCache | None = None):
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self._replies = self._sock.makefile("rb")
        self.peer = f"{address[0]}:{address[1]}"
        self.cache = cache
        self._request_ids = itertools.count(1)

    def _roundtrip(self, build_request):
        request = build_request(next(self._request_ids))
        self._sock.sendall(framing.encode(request))
        frame = read_frame(self._replies)
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
        self._replies.close()
        self._sock.close()
