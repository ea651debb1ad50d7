"""Strict, strongly-typed applicative dataflow over single-assignment logs.

Each graph-node port gets its own operand log on the fabric node the graph
node is placed on. A node fires for iteration i exactly when every input
port holds an operand for i; firing is driven by handlers bound to the port
logs, and completeness is established from a per-port index of those logs
(iteration -> seqs, extended by the entries appended since its last use),
never by waiting. Operand and output message ids derive from logical identity
(graph, node, port, iteration), so retries, re-deliveries, and crash replays
collapse into the single-assignment discipline: identical re-delivery is a
no-op, a conflicting value is a hard error, and exactly one output operand
exists per (node, iteration) under any fault schedule.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CorruptGraphState,
    CycleDetected,
    DataflowError,
    DoubleAssignment,
    TypeMismatch,
    UnknownPlacement,
)
from .events import AppendEffect
from .logstore import LogStore
from .node import FabricNode

DEFAULT_WINDOW = 256

_OPERAND_PREFIX = struct.Struct("<QBI")  # iteration, type code, value length

_TYPE_CODES = {"int64": 1, "float64": 2, "bytes": 3, "f64vec": 4}


@dataclass(frozen=True)
class VType:
    kind: str
    size: int | None = None  # max bytes for "bytes", dimension for "f64vec"

    def __post_init__(self):
        if self.kind not in _TYPE_CODES:
            raise TypeMismatch(f"unknown value type {self.kind!r}")
        if self.kind in ("bytes", "f64vec") and (self.size is None or self.size < 1):
            raise TypeMismatch(f"{self.kind} needs a positive size")

    @property
    def width(self) -> int:
        if self.kind in ("int64", "float64"):
            return 8
        if self.kind == "bytes":
            return self.size
        return self.size * 8

    def __str__(self) -> str:
        return self.kind if self.size is None else f"{self.kind}[{self.size}]"


INT64 = VType("int64")
FLOAT64 = VType("float64")


def BYTES(max_len: int) -> VType:
    return VType("bytes", max_len)


def F64VEC(dim: int) -> VType:
    return VType("f64vec", dim)


def encode_value(vt: VType, value) -> bytes:
    if vt.kind == "int64":
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise TypeMismatch(f"expected int64, got {type(value).__name__}")
        return struct.pack("<q", int(value))
    if vt.kind == "float64":
        if not isinstance(value, (int, float, np.floating, np.integer)) \
                or isinstance(value, bool):
            raise TypeMismatch(f"expected float64, got {type(value).__name__}")
        return struct.pack("<d", float(value))
    if vt.kind == "bytes":
        if not isinstance(value, (bytes, bytearray)):
            raise TypeMismatch(f"expected bytes, got {type(value).__name__}")
        if len(value) > vt.size:
            raise TypeMismatch(f"byte-string of {len(value)} exceeds max {vt.size}")
        return bytes(value)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (vt.size,):
        raise TypeMismatch(f"expected float vector of length {vt.size}, "
                           f"got shape {arr.shape}")
    return arr.tobytes()


def decode_value(vt: VType, raw: bytes):
    if vt.kind == "int64":
        return struct.unpack("<q", raw)[0]
    if vt.kind == "float64":
        return struct.unpack("<d", raw)[0]
    if vt.kind == "bytes":
        return raw
    return np.frombuffer(raw, dtype="<f8").copy()


def pack_operand(iteration: int, vt: VType, value) -> bytes:
    raw = encode_value(vt, value)
    return _OPERAND_PREFIX.pack(iteration, _TYPE_CODES[vt.kind], len(raw)) + raw


def _operand_prefix(payload: bytes) -> tuple[int, int, int]:
    if len(payload) < _OPERAND_PREFIX.size:
        raise TypeMismatch(f"operand of {len(payload)} bytes is shorter than its prefix")
    return _OPERAND_PREFIX.unpack_from(payload)


def unpack_operand(vt: VType, payload: bytes):
    iteration, code, length = _operand_prefix(payload)
    if code != _TYPE_CODES[vt.kind]:
        raise TypeMismatch(f"operand tagged {code}, log expects {vt}")
    raw = payload[_OPERAND_PREFIX.size:]
    fits = length <= vt.width if vt.kind == "bytes" else length == vt.width
    if length != len(raw) or not fits:
        raise TypeMismatch(f"length field {length} wrong for {len(raw)} bytes of {vt}")
    return iteration, decode_value(vt, raw)


def operand_iteration(payload: bytes) -> int:
    return _operand_prefix(payload)[0]


@dataclass(frozen=True)
class GraphNode:
    node_id: str
    inputs: tuple[tuple[str, VType], ...]  # ordered (port, type)
    output: VType
    op: str

    def input_type(self, port: str) -> VType:
        for name, vt in self.inputs:
            if name == port:
                return vt
        raise DataflowError(f"node {self.node_id!r} has no input port {port!r}")


@dataclass(frozen=True)
class Edge:
    producer: str
    consumer: str
    port: str


@dataclass
class DataflowGraph:
    graph_id: str
    nodes: list[GraphNode]
    edges: list[Edge]
    placement: dict[str, str] = field(default_factory=dict)

    def node(self, node_id: str) -> GraphNode:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise DataflowError(f"no graph node {node_id!r}")

    def external_inputs(self) -> list[tuple[str, str]]:
        wired = {(e.consumer, e.port) for e in self.edges}
        out = []
        for n in self.nodes:
            for port, _ in n.inputs:
                if (n.node_id, port) not in wired:
                    out.append((n.node_id, port))
        return out


@dataclass(frozen=True)
class OpDef:
    """Built-in operation. Pure ops return the value; activity ops return a
    generator that occupies simulated time before returning the value."""

    fn: Callable
    activity: bool = False


def validate(graph: DataflowGraph) -> None:
    ids = [n.node_id for n in graph.nodes]
    if len(set(ids)) != len(ids):
        raise DataflowError("duplicate graph node ids")
    known = set(ids)
    for node_id in known:
        if node_id not in graph.placement:
            raise UnknownPlacement(f"graph node {node_id!r} has no placement")
    seen_ports: set[tuple[str, str]] = set()
    for e in graph.edges:
        if e.producer not in known or e.consumer not in known:
            raise DataflowError(f"edge references unknown node: {e}")
        ptype = graph.node(e.producer).output
        ctype = graph.node(e.consumer).input_type(e.port)
        if ptype != ctype:
            raise TypeMismatch(f"edge {e.producer}->{e.consumer}.{e.port}: "
                               f"{ptype} does not match {ctype}")
        if (e.consumer, e.port) in seen_ports:
            raise DataflowError(f"input {e.consumer}.{e.port} wired twice")
        seen_ports.add((e.consumer, e.port))
    # acyclicity within an iteration (Kahn)
    indegree = {n: 0 for n in known}
    for e in graph.edges:
        indegree[e.consumer] += 1
    ready = sorted(n for n, d in indegree.items() if d == 0)
    visited = 0
    while ready:
        n = ready.pop()
        visited += 1
        for e in graph.edges:
            if e.producer == n:
                indegree[e.consumer] -= 1
                if indegree[e.consumer] == 0:
                    ready.append(e.consumer)
    if visited != len(known):
        raise CycleDetected(f"graph {graph.graph_id!r} has a cycle")


def _logical_mid(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\x1f")
    return h.digest()


class _PortIndex:
    """Iteration -> seqs of one port log's operands, absorbed incrementally.

    Holds seqs only: payloads stay in the log and are read on lookup. Most
    iterations have one operand, so its seq is a plain int in `first`; any
    further seqs for the same iteration (a re-delivery the log's dedup index
    no longer remembers, or a conflicting value) go to `later`.
    """

    def __init__(self, store: LogStore, vt: VType):
        self.store = store
        self.vt = vt
        self.mark = 0  # highest seq absorbed
        self.first: dict[int, int] = {}
        self.later: dict[int, list[int]] = {}

    def absorb(self) -> None:
        """Index the entries appended since the last call, whatever path
        appended them; each operand's type tag is checked here, once."""
        store = self.store
        hi = store.next_seq - 1
        if hi <= self.mark:
            return
        for entry in store.scan(max(self.mark + 1, store.earliest_seq), hi).entries:
            self.mark = entry.seq  # a mistagged operand raises once, then is skipped
            iteration, _ = unpack_operand(self.vt, entry.payload)
            if self.first.setdefault(iteration, entry.seq) != entry.seq:
                self.later.setdefault(iteration, []).append(entry.seq)
        self.mark = hi
        if len(self.first) > 2 * store.capacity:
            # forget iterations whose every operand is evicted (amortised)
            earliest = store.earliest_seq
            self.later = {it: seqs for it, seqs in self.later.items()
                          if seqs[-1] >= earliest}
            self.first = {it: seq for it, seq in self.first.items()
                          if seq >= earliest or it in self.later}

    def payloads(self, iteration: int) -> list[bytes]:
        """Distinct retained payloads for iteration, in log order."""
        self.absorb()
        first = self.first.get(iteration)
        if first is None:
            return []
        store = self.store
        earliest = store.earliest_seq
        return list(dict.fromkeys(store.read(seq).payload
                                  for seq in (first, *self.later.get(iteration, ()))
                                  if seq >= earliest))


class DeployedGraph:
    """A compiled graph: operand logs created, firing handlers bound."""

    def __init__(self, graph: DataflowGraph, fabric: dict[str, FabricNode],
                 ops: dict[str, OpDef], window: int):
        self.graph = graph
        self.fabric = fabric
        self.ops = ops
        self.window = window
        self._external_inputs = frozenset(graph.external_inputs())
        self._port_indexes: dict[str, _PortIndex] = {}

    # -- naming ------------------------------------------------------------

    def port_log(self, node_id: str, port: str) -> str:
        return f"df__{self.graph.graph_id}__{node_id}__{port}"

    def out_log(self, node_id: str) -> str:
        return f"df__{self.graph.graph_id}__{node_id}__out"

    def placed(self, node_id: str) -> FabricNode:
        return self.fabric[self.graph.placement[node_id]]

    # -- operand access ------------------------------------------------------

    def _port_index(self, registry, log_name: str, vt: VType) -> _PortIndex:
        store = registry.get(log_name)
        index = self._port_indexes.get(log_name)
        if index is None or index.store is not store:
            # first use, or the log was reopened after a crash
            index = self._port_indexes[log_name] = _PortIndex(store, vt)
        return index

    # -- injection --------------------------------------------------------------

    def inject(self, via: FabricNode, node_id: str, port: str, iteration: int, value):
        """Process: deliver an external operand; idempotent for identical
        values, a hard error for conflicting ones."""
        node = self.graph.node(node_id)
        if (node_id, port) not in self._external_inputs:
            raise DataflowError(f"{node_id}.{port} is not an external input")
        vt = node.input_type(port)
        payload = pack_operand(iteration, vt, value)
        mid = _logical_mid("inject", self.graph.graph_id, node_id, port,
                           iteration, payload)
        target = self.graph.placement[node_id]
        log_name = self.port_log(node_id, port)
        if via.name == target:
            existing = self._port_index(via.registry, log_name, vt).payloads(iteration)
            if existing and any(p != payload for p in existing):
                raise DoubleAssignment(
                    f"{node_id}.{port} iteration {iteration} already holds a "
                    f"different value")
            seq = via.append_local(log_name, payload, mid)
        else:
            seq = yield from via.client.remote_append(target, log_name, payload, mid)
        return seq

    # -- firing ---------------------------------------------------------------

    def _firing_handler(self, node: GraphNode):
        fabric_name = self.graph.placement[node.node_id]
        out_log = self.out_log(node.node_id)
        opdef = self.ops[node.op]

        def handle(entry, ctx):
            iteration = operand_iteration(entry.payload)
            values = []
            for port, vt in node.inputs:
                payloads = self._port_index(
                    ctx._registry, self.port_log(node.node_id, port), vt
                ).payloads(iteration)
                if len(payloads) > 1:
                    raise DoubleAssignment(
                        f"conflicting operands for {node.node_id}.{port} "
                        f"iteration {iteration}")
                if not payloads:
                    return []  # strict: wait for the remaining inputs
                values.append(unpack_operand(vt, payloads[0])[1])
            mid = _logical_mid("out", self.graph.graph_id, node.node_id, iteration)
            if opdef.activity:
                def activity(values=tuple(values), iteration=iteration):
                    value = yield from opdef.fn(*values)
                    return pack_operand(iteration, node.output, value)
                effect = AppendEffect(fabric_name, out_log, activity=activity,
                                      message_id=mid)
            else:
                payload = pack_operand(iteration, node.output, opdef.fn(*values))
                effect = AppendEffect(fabric_name, out_log, payload, message_id=mid)
            return [effect]

        return handle

    def _fanout_handler(self, node: GraphNode, consumers: list[Edge]):
        def handle(entry, ctx):
            iteration = operand_iteration(entry.payload)
            effects = []
            for e in consumers:
                consumer = self.graph.node(e.consumer)
                vt = consumer.input_type(e.port)
                _, value = unpack_operand(node.output, entry.payload)
                payload = pack_operand(iteration, vt, value)
                mid = _logical_mid("edge", self.graph.graph_id, e.producer,
                                   e.consumer, e.port, iteration)
                effects.append(AppendEffect(
                    self.graph.placement[e.consumer],
                    self.port_log(e.consumer, e.port), payload, message_id=mid))
            return effects

        return handle

    # -- lifecycle ----------------------------------------------------------------

    def resume(self) -> None:
        """Fire anything enabled but unfired after a restart; completed
        iterations are absorbed by dedup and never re-observed."""
        self.sweep_conflicts()
        for fabric_node in {self.placed(n.node_id) for n in self.graph.nodes}:
            fabric_node.engine.resume()

    def sweep_conflicts(self) -> None:
        for node in self.graph.nodes:
            registry = self.placed(node.node_id).registry
            for port, vt in node.inputs:
                index = self._port_index(registry, self.port_log(node.node_id, port), vt)
                index.absorb()
                for it in list(index.later):
                    if len(index.payloads(it)) > 1:
                        raise CorruptGraphState(
                            f"conflicting operands for {node.node_id}.{port} "
                            f"iteration {it}")

    def output_value(self, node_id: str, iteration: int):
        """Decoded output operand for (node, iteration), or None."""
        node = self.graph.node(node_id)
        registry = self.placed(node_id).registry
        store = registry.get(self.out_log(node_id))
        for entry in store.scan(store.earliest_seq, store.next_seq - 1).entries:
            it, value = unpack_operand(node.output, entry.payload)
            if it == iteration:
                return value
        return None

    def output_count(self, node_id: str) -> int:
        registry = self.placed(node_id).registry
        store = registry.get(self.out_log(node_id))
        return store.next_seq - store.earliest_seq


def compile_graph(graph: DataflowGraph, fabric: dict[str, FabricNode],
                  ops: dict[str, OpDef], window: int = DEFAULT_WINDOW) -> DeployedGraph:
    """Validate, create per-port operand logs, and bind firing handlers."""
    validate(graph)
    for name in graph.placement.values():
        if name not in fabric:
            raise UnknownPlacement(f"placement names unknown fabric node {name!r}")
    for node in graph.nodes:
        if node.op not in ops:
            raise DataflowError(f"unknown op {node.op!r} on node {node.node_id!r}")

    dg = DeployedGraph(graph, fabric, ops, window)
    consumers_of: dict[str, list[Edge]] = {}
    for e in graph.edges:
        consumers_of.setdefault(e.producer, []).append(e)

    for node in graph.nodes:
        placed = dg.placed(node.node_id)
        for port, vt in node.inputs:
            _ensure_log(placed, dg.port_log(node.node_id, port), vt, window)
        _ensure_log(placed, dg.out_log(node.node_id), node.output, window)

        fire_id = f"df.fire.{graph.graph_id}.{node.node_id}"
        placed.engine.register_handler(fire_id, dg._firing_handler(node))
        for port, _ in node.inputs:
            placed.engine.bind(dg.port_log(node.node_id, port), fire_id)

        edges_out = consumers_of.get(node.node_id)
        if edges_out:
            fan_id = f"df.fan.{graph.graph_id}.{node.node_id}"
            placed.engine.register_handler(fan_id, dg._fanout_handler(node, edges_out))
            placed.engine.bind(dg.out_log(node.node_id), fan_id)
    return dg


def _ensure_log(fabric_node: FabricNode, log_name: str, vt: VType, window: int) -> None:
    element_size = _OPERAND_PREFIX.size + vt.width
    if not fabric_node.registry.exists(log_name):
        fabric_node.registry.create(log_name, element_size, window)
