"""A fabric node: log registry + transport endpoints + handler engine.

Nothing here survives in memory across a (simulated) crash; reopening a node
over the same directory recovers all state from the logs.
"""

from __future__ import annotations

from pathlib import Path

from .events import HandlerEngine
from .logstore import LogRegistry, LogStore
from .netsim import Network
from .simcore import Simulator
from .transport import TransportClient, TransportServer, wire_node


class FabricNode:
    def __init__(self, sim: Simulator, network: Network, name: str,
                 root_dir: str | Path):
        self.sim = sim
        self.network = network
        self.name = name
        self.root_dir = Path(root_dir)
        self.registry = LogRegistry(self.root_dir)
        self.server = TransportServer(sim, network, name, self.registry)
        self.client = TransportClient(sim, network, name)
        self.engine = HandlerEngine(self)
        self.server.on_append = self.engine.notify_append
        wire_node(network, name, self.client, self.server)

    def create_log(self, name: str, element_size: int, capacity: int) -> LogStore:
        return self.registry.create(name, element_size, capacity)

    def append_local(self, log_name: str, payload: bytes,
                     message_id: bytes | None = None) -> int:
        """Local append that also wakes any handlers bound to the log."""
        store = self.registry.get(log_name)
        if message_id is None:
            message_id = self.client.new_message_id()
        before = store.next_seq
        seq = store.append(payload, message_id, self.sim.now_us)
        if store.next_seq != before:
            self.engine.notify_append(log_name)
        return seq

    def close(self) -> None:
        self.registry.close_all()
