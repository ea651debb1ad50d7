"""A fabric node: log registry + transport endpoints + handler engine.

Nothing here survives in memory across a (simulated) crash; reopening a node
over the same directory recovers all state from the logs, and its client's
size cache from `SIZES_FILE`. That hint is read at the first remote append and
rewritten, never fsynced, when an append changes the cache; a bad file reads
as empty. `close()` is final: a closed node answers no frame, fires no handler,
resends nothing and writes no file, even if its old simulator runs on.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import SizeMismatch, StorageFailure
from .events import HandlerEngine
from .logstore import LogRegistry, LogStore, _replace_file
from .netsim import Network
from .simcore import Simulator
from .transport import SizeCache, TransportClient, TransportServer, wire_node

SIZES_FILE = "element-sizes.json"  # no `.log` suffix, so the registry lists no such log


class FabricNode:
    def __init__(self, sim: Simulator, network: Network, name: str,
                 root_dir: str | Path):
        self.sim = sim
        self.network = network
        self.name = name
        self.root_dir = Path(root_dir)
        self.registry = LogRegistry(self.root_dir)
        self.server = TransportServer(sim, network, name, self.registry)
        self.client = TransportClient(sim, network, name, SizeCache())
        self.engine = HandlerEngine(self)
        self.server.on_append = self.engine.notify_append
        self._endpoint = wire_node(network, name, self.client, self.server)
        self.closed = False
        self._saved_sizes: SizeCache | None = None  # SIZES_FILE's, once read

    def create_log(self, name: str, element_size: int, capacity: int) -> LogStore:
        return self.registry.create(name, element_size, capacity)

    def append_local(self, log_name: str, payload: bytes,
                     message_id: bytes | None = None) -> int:
        """Local append that also wakes any handlers bound to the log."""
        if self.closed:
            raise StorageFailure(f"node {self.name!r} is closed")
        store = self.registry.get(log_name)
        if message_id is None:
            message_id = self.client.new_message_id()
        before = store.next_seq
        seq = store.append(payload, message_id, self.sim.now_us)
        if store.next_seq != before:
            self.engine.notify_append(log_name)
        return seq

    def remote_append(self, target: str, log_name: str, payload: bytes,
                      message_id: bytes | None = None):
        """Process: a remote append that costs one round trip once the size is
        cached. A stale cached size appends nothing and is dropped, so one
        retry under the same message id re-learns the size and lands once."""
        if message_id is None:
            message_id = self.client.new_message_id()
        cache = self.client.cache
        if cache is not None and self._saved_sizes is None:
            self._saved_sizes = _load_sizes(self.root_dir / SIZES_FILE)
            for key, size in self._saved_sizes.items():
                cache.setdefault(key, size)
        try:
            return (yield from self.client.remote_append(target, log_name, payload, message_id))
        except SizeMismatch:
            return (yield from self.client.remote_append(target, log_name, payload, message_id))
        finally:
            if cache is not None and cache != self._saved_sizes and not self.closed:
                _replace_file(self.root_dir / SIZES_FILE, json.dumps(
                    sorted([*key, size] for key, size in cache.items())).encode())
                self._saved_sizes = dict(cache)

    def close(self) -> None:
        """Close the pumps and the processes parked on exchanges, drop the
        handlers and bindings, unplug the endpoint and close the logs."""
        self.closed = True
        self.engine.close()
        self.client.close()
        self.network.unregister_endpoint(self.name, self._endpoint)
        self.registry.close_all()


def _load_sizes(path: Path) -> SizeCache:
    """The saved sizes; empty unless the file holds [node, log, u32 size >= 1] triples."""
    try:
        sizes = {(node, log): size for node, log, size in json.loads(path.read_bytes())}
    except (OSError, ValueError, TypeError, RecursionError):
        return SizeCache()
    valid = all(type(node) is str and type(log) is str and type(size) is int
                and 1 <= size < 2**32 for (node, log), size in sizes.items())
    return sizes if valid else SizeCache()
