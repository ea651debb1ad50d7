"""Simulated network: nodes, links with latency distributions, partitions,
and loss/duplication fault injection.

Latency per link traversal is normal(mean, sd) clamped at 0.1 ms. A frame
additionally pays a serialization delay of bytes*8 / capacity at the link's
base rate. The PRB slice model lives in one function, `slice_rate_mbps`, which
the slicing sweep calls; a slice's throughput scales with its PRB fraction:

    rate = prb_fraction * base_capacity * device_efficiency + noise

with the noise sized so per-configuration standard deviations sit in the
3-5 Mbps band observed on the reference hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NetError, RouteUnreachable
from .simcore import US_PER_MS, Simulator

MIN_LATENCY_US = 100  # 0.1 ms floor on sampled latency
MAX_LATENCY_MS = 60_000.0  # 12 resends at transport.RETRY_CAP_MS; a bundled link ends in 0.4 s
DEFAULT_SLICE_SD_MBPS = 4.0
CAPACITY_FLOOR_MBPS = 0.05  # below it a frame outlasts every retry
MAX_CAPACITY_MBPS = 1e6  # 1 Tbps: a year of slicing samples still counts finite bytes


def slice_rate_mbps(nominal: float, sd_mbps: float, rng: np.random.Generator) -> float:
    """One rate sample for a slice whose nominal rate is `nominal` Mbps: normal
    noise of `sd_mbps`, floored at CAPACITY_FLOOR_MBPS; no draw when `sd_mbps` is 0."""
    if sd_mbps == 0.0:
        return nominal
    sampled = nominal * (1.0 + rng.normal(0.0, sd_mbps / nominal))
    return max(sampled, CAPACITY_FLOOR_MBPS)


@dataclass(frozen=True)
class LinkSpec:
    link_id: str
    a: str
    b: str
    latency_mean_ms: float
    latency_sd_ms: float
    loss_prob: float = 0.0
    base_capacity_mbps: float = 10_000.0
    partitions_us: tuple[tuple[int, int], ...] = ()
    duplicate_prob: float = 0.0

    def __post_init__(self):
        if any(end < start for start, end in self.partitions_us):
            raise NetError("a partition must not end before it starts")

    def partitioned_at(self, t_us: int) -> bool:
        return any(start <= t_us < end for start, end in self.partitions_us)


class Network:
    """Deterministic frame delivery over a static topology, which is what lets
    `hop_plan` resolve each `(src, dst)` pair's route once and keep it."""

    def __init__(self, sim: Simulator, links: list[LinkSpec],
                 routes: dict[tuple[str, str], list[str]] | None = None):
        self.sim = sim
        self.links = {l.link_id: l for l in links}
        if len(self.links) != len(links):
            raise NetError("duplicate link ids")
        self.routes = dict(routes or {})
        self._endpoints: dict[str, Callable[[bytes, str], None]] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self._plans: dict[tuple[str, str], tuple] = {}
        self._traverse = self._traverse  # one bound method serves every frame in flight

    def _rng(self, label: str) -> np.random.Generator:
        if label not in self._rngs:
            self._rngs[label] = self.sim.rng(label)
        return self._rngs[label]

    # -- endpoints and routing -------------------------------------------

    def register_endpoint(self, node: str, callback: Callable[[bytes, str], None]
                          ) -> Callable[[bytes, str], None]:
        """Deliver frames for `node` to `callback`; returns the callback that
        `unregister_endpoint` takes."""
        self._endpoints[node] = callback
        return callback

    def unregister_endpoint(self, node: str, callback: Callable[[bytes, str], None]) -> None:
        """Drop `node`'s endpoint if it is still `callback`; frames to it then drop."""
        if self._endpoints.get(node) is callback:
            del self._endpoints[node]

    def route(self, src: str, dst: str) -> list[LinkSpec]:
        explicit = self.routes.get((src, dst))
        if explicit is not None:
            return [self.links[lid] for lid in explicit]
        for link in self.links.values():
            if {link.a, link.b} == {src, dst}:
                return [link]
        raise RouteUnreachable(f"no route {src} -> {dst}")

    def hop_plan(self, src: str, dst: str) -> tuple[tuple[LinkSpec, np.random.Generator], ...]:
        """`route(src, dst)` paired with each link's RNG, resolved once per pair.
        A failed lookup raises `RouteUnreachable` and is not cached."""
        plan = self._plans.get((src, dst))
        if plan is None:
            plan = self._plans[(src, dst)] = tuple(
                (link, self._rng(f"link:{link.link_id}")) for link in self.route(src, dst))
        return plan

    # -- frame delivery ------------------------------------------------------

    def send(self, src: str, dst: str, frame: bytes) -> None:
        """Launch a frame along the route; losses and partitions drop it."""
        if not frame:
            raise NetError("empty frame")
        self._traverse(src, dst, frame, self.hop_plan(src, dst), 0)

    def _traverse(self, src: str, dst: str, frame: bytes,
                  plan: tuple[tuple[LinkSpec, np.random.Generator], ...],
                  index: int) -> None:
        sim = self.sim
        if index == len(plan):
            endpoint = self._endpoints.get(dst)
            if sim.trace is not None and endpoint is None:
                sim.record("drop", src=src, dst=dst, reason="no-endpoint", nbytes=len(frame))
            elif sim.trace is not None:
                sim.record("deliver", src=src, dst=dst, nbytes=len(frame))
            if endpoint is not None:
                endpoint(frame, src)
            return
        link, rng = plan[index]
        if link.partitions_us and link.partitioned_at(sim.now_us):
            if sim.trace is not None:
                sim.record("drop", link=link.link_id, reason="partition", nbytes=len(frame))
            return
        # per-link draw order: loss, then duplicate, then one normal per copy
        if link.loss_prob > 0.0 and rng.random() < link.loss_prob:
            if sim.trace is not None:
                sim.record("drop", link=link.link_id, reason="loss", nbytes=len(frame))
            return
        copies = 1
        if link.duplicate_prob > 0.0 and rng.random() < link.duplicate_prob:
            copies = 2
            if sim.trace is not None:
                sim.record("duplicate", link=link.link_id, nbytes=len(frame))
        for _ in range(copies):
            delay = self._hop_delay_us(link, len(frame), rng)
            if sim.trace is not None:
                sim.record("hop", link=link.link_id, delay_us=delay, nbytes=len(frame))
            sim.schedule(delay, self._traverse, src, dst, frame, plan, index + 1)

    def _hop_delay_us(self, link: LinkSpec, nbytes: int, rng: np.random.Generator) -> int:
        mean_ms, sd_ms = link.latency_mean_ms, link.latency_sd_ms
        latency_ms = rng.normal(mean_ms, sd_ms) if sd_ms > 0.0 else mean_ms
        latency_us = max(int(round(latency_ms * US_PER_MS)), MIN_LATENCY_US)  # ms_to_us
        serialization_us = int(round(nbytes * 8 / (link.base_capacity_mbps * 1e6) * 1e6))
        return latency_us + serialization_us
