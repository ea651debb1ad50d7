"""Remote append protocol: size negotiation, retry-until-sequence,
client-side element-size caching, exactly-once via server-side dedup.

Without the cache every append costs two round trips (size fetch + append).
A warm cache drops that to one, halving the observed message latency, at the
price of a size-mismatch failure if the log is resized server-side; a cached
size below the payload is asked again, so only a size reply refuses a payload.
A bare client has no cache; a fabric node's client has one, saved by its node.
Requests are resent until a reply arrives; no exchange gives up. Attempt n of
an exchange times out after its target's RTO doubled n times, capped at 5 s.
The client keeps one RFC 6298 estimator per target, fed by each exchange that
its own reply answers on the first attempt (Karn's rule); before a target's
first sample its RTO is 100 ms, and it never falls below `RTO_MIN_MS`. Every
retry of an exchange reuses its request id, and because retries of an append
reuse its message id, the server's dedup index makes the append land exactly
once, as long as fewer than the log's dedup window of other ids land between
an id's first and last attempt (65,536 ids by default, 64 for cursor logs).
The index forgets older ids, so a retry that comes later appends the payload
again under a new seq.

A size exchange whose timeout fires after the client has received a size
reply to the same log with a higher request id takes that reply and sends
nothing: the server read that size after the exchange began, so it is no
staler than the exchange's own reply would be.

The client-side rules live in one sans-I/O core (`SizeQuery`, `AppendCall`)
that does no I/O and reads no clock; `TransportClient` only moves its frames
over simulated channels: a timeout resends, and a reply resumes the waiting
process in the event that delivers it. Each node's endpoint decodes every
frame exactly once.
`remote_append` yields its size exchange itself, with no sub-generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from inspect import GEN_CLOSED, getgeneratorstate
from typing import Callable

import numpy as np

from . import framing
from .errors import (
    FabricError,
    FrameError,
    PayloadTooLarge,
    SizeMismatch,
    StorageFailure,
    TransportError,
    UnknownLog,
)
from .framing import (
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
from .logstore import LogRegistry
from .netsim import Network
from .simcore import Process, Simulator, ms_to_us


RETRY_BASE_MS, RETRY_CAP_MS = 100.0, 5000.0  # RTO before a target's first sample; backoff cap
# the RTO floor: a short-RTT path needs one far below RFC 6298's 1 s, and 10 ms
# resent spuriously on a 10 ms round trip
RTO_MIN_MS = 20.0
_BASE_US, _CAP_US, _RTO_MIN_US = map(ms_to_us, (RETRY_BASE_MS, RETRY_CAP_MS, RTO_MIN_MS))


def retry_timeout_us(rto_us: int, attempt: int) -> int:
    """Attempt `attempt`'s timeout: `rto_us` doubled once per earlier attempt, capped."""
    # any RTO of 1 us or more passes the cap within this many doublings, so
    # attempt 10**6 of a link down for hours shifts no further
    return min(rto_us << min(attempt, _CAP_US.bit_length()), _CAP_US)


# A client's (node, log) -> element size cache: a bare client has none, a
# fabric node's client one that its node persists. `SizeCache()` is empty.
SizeCache = dict[tuple[str, str], int]

MIN_LATENCY_COUNT = 3  # the first sample is discarded, and an sd needs two more


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    sd_ms: float
    n: int
    samples_ms: tuple[float, ...]


_STATUS_ERRORS = {
    STATUS_UNKNOWN_LOG: UnknownLog,
    STATUS_PAYLOAD_TOO_LARGE: PayloadTooLarge,
    STATUS_SIZE_MISMATCH: SizeMismatch,
    STATUS_STORAGE_FAILURE: StorageFailure,
}


def _check_reply(reply, kind: type, what: str) -> None:
    """Raise unless `reply` is an OK `kind` reply. Replies come from outside
    the program, so an unknown status byte raises a plain TransportError."""
    if not isinstance(reply, kind):
        raise TransportError(f"{what}: unexpected {type(reply).__name__}")
    if reply.status != STATUS_OK:
        name = framing.STATUS_NAMES.get(reply.status, f"status {reply.status}")
        raise _STATUS_ERRORS.get(reply.status, TransportError)(f"{what}: {name}")


# -- sans-I/O protocol core ---------------------------------------------------------
# A client sends `request(request_id)` as often as it likes and hands the reply
# it gets back to `result`.

class SizeQuery:
    """One element-size exchange with a log on `target`."""

    __slots__ = ("target", "log_name")

    def __init__(self, target: str, log_name: str):
        self.target = target
        self.log_name = log_name

    def request(self, request_id: int) -> SizeRequest:
        return SizeRequest(request_id, self.log_name)

    def result(self, reply) -> int:
        _check_reply(reply, SizeReply, f"size of {self.log_name!r} on {self.target}")
        return reply.element_size


class AppendCall:
    """One remote append. Its element size is unknown until the cache or a
    size exchange supplies it through `learn_size`; after that the append
    request may be resent freely, since retries reuse the message id and the
    server's dedup index applies it once."""

    __slots__ = ("cache", "target", "log_name", "payload", "message_id", "element_size")

    def __init__(self, cache: SizeCache | None, target: str, log_name: str,
                 payload: bytes, message_id: bytes):
        self.cache = cache
        self.target = target
        self.log_name = log_name
        self.payload = payload
        self.message_id = message_id
        self.element_size: int | None = None
        if cache is not None and (cached := cache.get((target, log_name))) is not None:
            if len(payload) <= cached:
                self.element_size = cached
            else:  # the log may have grown since: only a size reply may refuse it
                del cache[(target, log_name)]

    def learn_size(self, element_size: int) -> None:
        """Cache a size reply's size and check the payload fits before it is sent."""
        if self.cache is not None:
            self.cache[(self.target, self.log_name)] = element_size
        if len(self.payload) > element_size:
            raise PayloadTooLarge(
                f"payload {len(self.payload)} > element size {element_size} "
                f"of {self.log_name!r} on {self.target}")
        self.element_size = element_size

    def request(self, request_id: int) -> AppendRequest:
        return AppendRequest(request_id, self.log_name, self.message_id,
                             self.element_size, self.payload)

    def result(self, reply) -> int:
        """The assigned seq; a size mismatch also drops the stale cached size."""
        try:
            _check_reply(reply, AppendReply,
                         f"append to {self.log_name!r} on {self.target}")
        except SizeMismatch:
            if self.cache is not None:
                self.cache.pop((self.target, self.log_name), None)
            raise
        return reply.seq


class TransportServer:
    """Serves size and append requests over simulated channels. `handle` maps a
    request to its reply and sends nothing; replies re-query server state (the
    dedup index), so retries of an already-applied append return the original
    sequence number, and no per-client session state exists."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 registry: LogRegistry):
        self.sim = sim
        self.network = network
        self.node = node
        self.registry = registry
        self.on_append: Callable[[str], None] | None = None

    def handle(self, msg) -> framing.Message | None:
        if isinstance(msg, SizeRequest):
            if not self.registry.exists(msg.log_name):
                return SizeReply(msg.request_id, STATUS_UNKNOWN_LOG, 0)
            return SizeReply(msg.request_id, STATUS_OK,
                             self.registry.get(msg.log_name).element_size)
        if isinstance(msg, AppendRequest):
            return self._handle_append(msg)
        return None  # replies addressed to a server are stray duplicates

    def _handle_append(self, msg: AppendRequest) -> AppendReply:
        if not self.registry.exists(msg.log_name):
            return AppendReply(msg.request_id, STATUS_UNKNOWN_LOG, 0)
        log = self.registry.get(msg.log_name)
        if msg.expected_element_size != log.element_size:
            return AppendReply(msg.request_id, STATUS_SIZE_MISMATCH, 0)
        if len(msg.payload) > log.element_size:
            return AppendReply(msg.request_id, STATUS_PAYLOAD_TOO_LARGE, 0)
        try:
            before = log.next_seq
            seq = log.append(msg.payload, msg.message_id, self.sim.now_us)
        except StorageFailure:
            return AppendReply(msg.request_id, STATUS_STORAGE_FAILURE, 0)
        if self.on_append is not None and log.next_seq != before:
            self.on_append(msg.log_name)
        return AppendReply(msg.request_id, STATUS_OK, seq)

    def on_frame(self, msg, src: str) -> None:
        """Answer one decoded request from `src`."""
        self.network.send(self.node, src, framing.encode(self.handle(msg)))


class TransportClient:
    """Drives the protocol core over simulated channels: retries with
    exponential backoff from a per-target RTO and times out in simulated time."""

    _IDS_PER_DRAW = 256  # one rng.bytes(16 * n) draw yields the bytes of n bytes(16) draws

    def __init__(self, sim: Simulator, network: Network, node: str,
                 cache: SizeCache | None = None):
        self.sim = sim
        self.network = network
        self.node = node
        self.cache = cache
        self._request_ids = itertools.count(1)
        self._pending: dict[int, _Exchange] = {}
        self._size_queries: dict[tuple[str, str], SizeQuery] = {}  # one per log: stateless
        self._newest: dict[SizeQuery, SizeReply] = {}  # its received reply of highest request id
        # per target: RFC 6298 state in Jacobson's scaled form, (8 x SRTT, 4 x RTTVAR)
        # in us, and the RTO it gives, which each send reads
        self._rtt: dict[str, tuple[int, int]] = {}
        self._rto_us: dict[str, int] = {}
        self._rng: np.random.Generator = sim.rng(f"client:{node}")
        self._ids, self._ids_pos = b"", 0

    def new_message_id(self) -> bytes:
        """The next 16 bytes of the client's stream, drawn in batches."""
        if self._ids_pos == len(self._ids):
            self._ids, self._ids_pos = self._rng.bytes(16 * self._IDS_PER_DRAW), 0
        self._ids_pos += 16
        return self._ids[self._ids_pos - 16:self._ids_pos]

    def on_reply(self, reply) -> None:
        """Hand the reply to its exchange, if one waits, and retire its id. A first
        attempt's reply is an RTT sample; a size reply may answer others later."""
        exchange = self._pending.pop(reply.request_id, None)
        if exchange is not None:
            core = exchange.core
            if exchange.attempts == 1:  # Karn's rule: a resent exchange times no attempt
                self._sample_rtt(core.target, self.sim.now_us - exchange.sent_us)
            if type(core) is SizeQuery and \
                    self._newest.setdefault(core, reply).request_id < reply.request_id:
                self._newest[core] = reply
            exchange.deliver(reply)
        elif self.sim.trace is not None:
            self.sim.record("late-reply", node=self.node, request_id=reply.request_id)

    def _sample_rtt(self, target: str, rtt_us: int) -> None:
        """Fold one RTT sample into `target`'s estimator (RFC 6298: alpha 1/8,
        beta 1/4, RTTVAR from the old SRTT) and set its RTO."""
        state = self._rtt.get(target)
        if state is None:
            srtt8, rttvar4 = rtt_us << 3, rtt_us << 1
        else:
            srtt8, rttvar4 = state
            err = rtt_us - (srtt8 >> 3)
            rttvar4 += abs(err) - (rttvar4 >> 2)
            srtt8 += err
        self._rtt[target] = (srtt8, rttvar4)
        self._rto_us[target] = max((srtt8 >> 3) + max(1, rttvar4), _RTO_MIN_US)

    def close(self) -> None:
        """Close every process parked on an exchange, in request order, and
        cancel its timeout, so nothing is resent."""
        pending, self._pending = self._pending, {}
        for exchange in pending.values():  # one entry per exchange
            self.sim.cancel(exchange.timeout)
            exchange.proc.gen.close()

    def _size_query(self, target: str, log_name: str) -> SizeQuery:
        key = (target, log_name)
        return self._size_queries.get(key) or self._size_queries.setdefault(key, SizeQuery(*key))

    def fetch_element_size(self, target: str, log_name: str):
        return (yield _Exchange(self, self._size_query(target, log_name)))

    def remote_append(self, target: str, log_name: str, payload: bytes,
                      message_id: bytes | None = None):
        """Process: returns the assigned sequence number (exactly-once)."""
        if message_id is None:
            message_id = self.new_message_id()
        call = AppendCall(self.cache, target, log_name, payload, message_id)
        if call.element_size is None:
            call.learn_size((yield _Exchange(self, self._size_query(target, log_name))))
        return (yield _Exchange(self, call))

    def measure_latency(self, target: str, log_name: str, payload_size: int, count: int):
        """Process: time `count` appends back to back; the first sample is
        discarded (connection start-up / cold cache), stats cover the rest."""
        if count < MIN_LATENCY_COUNT:
            raise TransportError(f"need at least {MIN_LATENCY_COUNT} samples")
        samples_ms = []
        for i in range(count):
            payload = bytes([i % 256]) * payload_size
            t0 = self.sim.now_us
            yield from self.remote_append(target, log_name, payload)
            samples_ms.append((self.sim.now_us - t0) / 1000.0)
        kept = samples_ms[1:]
        arr = np.asarray(kept)
        return LatencyStats(float(arr.mean()), float(arr.std(ddof=1)),
                            len(kept), tuple(kept))


class _Exchange:
    """One request/reply exchange of `core` (a `SizeQuery` or `AppendCall`), driven by
    callbacks, and its own timeout callback. Every attempt carries the same request id,
    as it carries the same message id, and times out after its target's RTO as it is
    sent, doubled per earlier attempt. A timeout resends and re-arms, unless the
    exchange asks a size and the client holds a reply to the same query of a higher
    request id, which then answers it. The first reply to any attempt cancels the
    timeout; either way the parked process resumes in the event that brings the reply."""

    __slots__ = ("client", "core", "request_id", "attempts", "sent_us", "proc", "timeout")

    def __init__(self, client: TransportClient, core):
        self.client, self.core, self.attempts = client, core, 0
        self.request_id = next(client._request_ids)
        self.sent_us = client.sim.now_us  # of attempt 0, the only one Karn's rule times
        self.proc = None  # the process, once it yields the exchange
        self._send()  # raises RouteUnreachable or FrameError before anything is pending
        client._pending[self.request_id] = self

    def _send(self) -> None:  # one attempt, and its timeout: `timeout` is the armed heap entry
        client, target = self.client, self.core.target
        client.network.send(client.node, target,
                            framing.encode(self.core.request(self.request_id)))
        rto_us = client._rto_us.get(target, _BASE_US)
        self.timeout = client.sim.schedule(retry_timeout_us(rto_us, self.attempts), self)
        self.attempts += 1

    def park(self, proc: Process) -> None:
        self.proc = proc

    def __call__(self) -> None:  # the timeout fired
        self.timeout = None
        # closed while parked? (`gi_frame` would materialise a parked generator's frame)
        if getgeneratorstate(self.proc.gen) == GEN_CLOSED:
            return
        newest = self.client._newest.get(self.core)  # only a size query has one
        if newest is not None and newest.request_id > self.request_id:
            del self.client._pending[self.request_id]
            self.deliver(newest)
        else:
            self._send()

    def deliver(self, reply) -> None:
        """Hand the process the outcome of the first reply to any attempt, or of
        a later exchange's reply to the same size query."""
        sim = self.client.sim
        sim.cancel(self.timeout)
        if getgeneratorstate(self.proc.gen) == GEN_CLOSED:  # closed while parked
            return
        try:
            result, error = self.core.result(reply), False
        except FabricError as exc:  # a failed reply raises where the process waits
            result, error = exc, True
        sim._step(self.proc, result, error)


def wire_node(network: Network, node: str, client: TransportClient | None = None,
              server: TransportServer | None = None) -> Callable[[bytes, str], None]:
    """Register and return the node's one endpoint, the only place a simulated
    frame is decoded: requests go to the server and replies to the client
    living on the node, and an undecodable frame is recorded as `bad-frame`."""

    def dispatch(frame: bytes, src: str) -> None:
        try:
            msg = framing.decode(frame)
        except FrameError:
            if network.sim.trace is not None:
                network.sim.record("bad-frame", node=node, src=src)
            return
        if isinstance(msg, (SizeRequest, AppendRequest)):
            if server is not None:
                server.on_frame(msg, src)
        elif client is not None:
            client.on_reply(msg)

    return network.register_endpoint(node, dispatch)
