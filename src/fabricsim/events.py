"""Handler engine: functions bound to logs, fired once per appended entry.

Handlers never wait on other handlers; there is no wait primitive at all.
All handler effects are expressed as appends whose message ids derive
deterministically from (handler, source log, trigger seq, effect index), so
re-firing after a crash is absorbed by dedup and the observable log state
converges to the fault-free outcome. Progress is tracked per binding in a
small cursor log so a restarted node resumes where it left off.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Generator

from .errors import SimulatedCrash, UnknownHandler
from .logstore import LogEntry
from .simcore import Process

CURSOR_CAPACITY = 64


def effect_message_id(handler_id: str, log_name: str, seq: int, index: int) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(handler_id.encode())
    h.update(b"\x00")
    h.update(log_name.encode())
    h.update(struct.pack("<QI", seq, index))
    return h.digest()


@dataclass(frozen=True)
class AppendEffect:
    """A follow-on append. Either a ready payload, or an activity generator
    that occupies simulated time and returns the payload (embedded tasks).

    message_id defaults to a hash of (handler, source log, trigger seq,
    effect index); effects whose identity is logical rather than positional
    (dataflow operands) override it."""

    target_node: str
    log_name: str
    payload: bytes | None = None
    activity: Callable[[], Generator] | None = None
    message_id: bytes | None = None


class HandlerBinding:
    """One handler bound to one log, with its progress: `cursor` is the last
    seq committed to `cursor_log`, and `pump` the process that fires it, if
    one runs."""

    __slots__ = ("log_name", "handler_id", "binding_id", "cursor_log", "cursor", "pump")

    def __init__(self, log_name: str, handler_id: str):
        self.log_name = log_name
        self.handler_id = handler_id
        self.binding_id = f"{log_name}__{handler_id}"
        self.cursor_log = f"__cursor__{self.binding_id}"
        self.cursor = 0
        self.pump: Process | None = None


@dataclass
class HandlerContext:
    """Read access to local logs for the duration of one invocation."""

    node_name: str
    now_us: int
    _registry: object

    def scan(self, log_name: str, lo: int, hi: int):
        return self._registry.get(log_name).scan(lo, hi)


@dataclass(frozen=True)
class InvocationFailure:
    binding_id: str
    seq: int
    error: str


class HandlerEngine:
    """Per-node dispatcher from log appends to handler invocations."""

    def __init__(self, node):
        self.node = node
        self.handlers: dict[str, Callable] = {}
        self._by_log: dict[str, list[HandlerBinding]] = {}
        self.failures: list[InvocationFailure] = []
        self._invocations = 0
        self._crash_at: tuple[int, str] | None = None

    # -- setup -------------------------------------------------------------

    def register_handler(self, handler_id: str, fn: Callable) -> None:
        self.handlers[handler_id] = fn

    def bind(self, log_name: str, handler_id: str) -> HandlerBinding:
        if handler_id not in self.handlers:
            raise UnknownHandler(f"handler {handler_id!r} not registered on "
                                 f"{self.node.name}")
        binding = HandlerBinding(log_name, handler_id)
        registry = self.node.registry
        if not registry.exists(binding.cursor_log):
            registry.create(binding.cursor_log, 8, CURSOR_CAPACITY, CURSOR_CAPACITY)
        elif (store := registry.get(binding.cursor_log)).next_seq > 1:
            binding.cursor = struct.unpack("<Q", store.read(store.next_seq - 1).payload)[0]
        self._by_log.setdefault(log_name, []).append(binding)
        self._ensure_pump(binding)
        return binding

    def set_crash_plan(self, invocation_index: int, phase: str) -> None:
        """Fault injection: raise SimulatedCrash at the given boundary.

        phase 'after_effects' models a crash between applying effects and
        committing the progress cursor; 'after_cursor' models the boundary
        between two invocations.
        """
        if phase not in ("after_effects", "after_cursor"):
            raise ValueError(f"unknown crash phase {phase!r}")
        self._crash_at = (invocation_index, phase)

    def close(self) -> None:
        """Close every binding's pump and drop the handlers and bindings."""
        for bindings in self._by_log.values():
            for binding in bindings:
                if binding.pump is not None:
                    binding.pump.gen.close()
        self.handlers.clear()
        self._by_log.clear()

    # -- dispatch -------------------------------------------------------------

    def notify_append(self, log_name: str) -> None:
        for binding in self._by_log.get(log_name, ()):
            self._ensure_pump(binding)

    def _ensure_pump(self, binding: HandlerBinding) -> None:
        if binding.pump is None:
            binding.pump = self.node.sim.spawn(self._pump(binding),
                                               name=f"pump:{binding.binding_id}")

    def _pump(self, binding: HandlerBinding):
        """Serial, in-order invocation loop for one binding."""
        registry = self.node.registry
        try:
            log = registry.get(binding.log_name)
            while binding.cursor < log.next_seq - 1:
                seq = binding.cursor + 1
                if seq < log.earliest_seq:
                    # entry evicted before it could fire; bound logs should be
                    # sized so this cannot happen, but never wedge the binding
                    self.failures.append(InvocationFailure(
                        binding.binding_id, seq, "evicted before firing"))
                    binding.cursor = seq
                    continue
                self._invocations += 1
                index = self._invocations
                yield from self.fire(binding, log.read(seq))
                self._maybe_crash(index, "after_effects")
                # looked up by name: the registry may have reopened the log
                registry.get(binding.cursor_log).append(
                    struct.pack("<Q", seq),
                    effect_message_id("__cursor", binding.binding_id, seq, 0),
                    self.node.sim.now_us)
                binding.cursor = seq
                self._maybe_crash(index, "after_cursor")
        finally:
            binding.pump = None

    def fire(self, binding: HandlerBinding, entry: LogEntry):
        """Invoke the handler for one durable entry and apply its effects.

        A handler exception marks the invocation failed and the engine moves
        on; it never takes the node down.
        """
        fn = self.handlers[binding.handler_id]
        ctx = HandlerContext(self.node.name, self.node.sim.now_us, self.node.registry)
        try:
            effects = list(fn(entry, ctx) or ())
        except SimulatedCrash:
            raise
        except Exception as exc:  # noqa: BLE001 - handler panic is contained
            self.failures.append(InvocationFailure(binding.binding_id, entry.seq,
                                                   f"{type(exc).__name__}: {exc}"))
            effects = []
        for index, effect in enumerate(effects):
            mid = effect.message_id
            if mid is None:
                mid = effect_message_id(binding.handler_id, binding.log_name,
                                        entry.seq, index)
            payload = effect.payload
            if effect.activity is not None:
                payload = yield from effect.activity()
            if effect.target_node == self.node.name:
                self.node.append_local(effect.log_name, payload, mid)
            else:
                yield from self.node.remote_append(effect.target_node, effect.log_name, payload, mid)
        return effects

    def _maybe_crash(self, invocation_index: int, phase: str) -> None:
        if self._crash_at == (invocation_index, phase):
            raise SimulatedCrash(f"injected crash at invocation {invocation_index} "
                                 f"({phase}) on {self.node.name}")
