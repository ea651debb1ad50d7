"""Simulated network: nodes, links with latency distributions, partitions,
loss/duplication fault injection, and a PRB-sliced throughput model.

Latency per link traversal is normal(mean, sd) clamped at 0.1 ms. A frame
additionally pays a serialization delay of bytes*8 / capacity, where the
capacity is the link's base rate or, for sliced traffic, the slice's share.
Throughput of a slice scales with its PRB fraction:

    rate = prb_fraction * base_capacity * ue_efficiency + noise

with the noise sized so per-configuration standard deviations sit in the
3-5 Mbps band observed on the reference hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSlice, NetError, RouteUnreachable, check_not_negative
from .simcore import US_PER_MS, Simulator, s_to_us, sleep

MIN_LATENCY_US = 100  # 0.1 ms floor on sampled latency

# Reference calibration: mean uplink throughput (Mbps) measured per device at
# complementary PRB fractions on a 40 MHz TDD cell. The weaker device
# saturates at high fractions, so its proportional slope is fit on the
# low/mid points only.
LOW_UE_CALIBRATION = ((0.1, 4.95), (0.5, 23.91), (0.9, 34.73))
HIGH_UE_CALIBRATION = ((0.1, 5.14), (0.5, 25.22), (0.9, 43.47))
DEFAULT_SLICE_SD_MBPS = 4.0
CAPACITY_FLOOR_MBPS = 0.05


def fit_slope_through_origin(points) -> float:
    f = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    return float((f * y).sum() / (f * f).sum())


def calibrated_slice_params() -> tuple[float, dict[str, float]]:
    """(base_capacity_mbps, per-device efficiency) fit from the reference data."""
    base = fit_slope_through_origin(HIGH_UE_CALIBRATION)
    low = fit_slope_through_origin(LOW_UE_CALIBRATION[:2])
    return base, {"low": low / base, "high": 1.0}


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
        check_not_negative(self, "latency_mean_ms", "latency_sd_ms")
        if any(end < start for start, end in self.partitions_us):
            raise NetError("a partition must not end before it starts")
        if not (0.0 <= self.loss_prob < 1.0):
            raise NetError(f"loss_prob must be in [0,1), got {self.loss_prob}")
        if self.base_capacity_mbps <= 0:
            raise NetError("base_capacity_mbps must be positive")
        if not (0.0 <= self.duplicate_prob < 1.0):
            raise NetError("duplicate_prob must be in [0,1)")

    def partitioned_at(self, t_us: int) -> bool:
        return any(start <= t_us < end for start, end in self.partitions_us)


@dataclass(frozen=True)
class SliceConfig:
    slice_id: int
    prb_fraction: float
    assigned_ue: str

    def __post_init__(self):
        if not (1 <= self.slice_id <= 9):
            raise InvalidSlice(f"slice_id must be 1..9, got {self.slice_id}")
        if not (0.0 < self.prb_fraction <= 1.0):
            raise InvalidSlice(f"prb_fraction must be in (0,1], got {self.prb_fraction}")


@dataclass(frozen=True)
class TransferRecord:
    nbytes: int
    start_us: int
    end_us: int

    @property
    def achieved_mbps(self) -> float:
        return self.nbytes * 8 / ((self.end_us - self.start_us) / 1e6) / 1e6


class Network:
    """Deterministic frame delivery over a static topology, which is what lets
    `hop_plan` resolve each `(src, dst)` pair's route once and keep it."""

    def __init__(self, sim: Simulator, links: list[LinkSpec],
                 routes: dict[tuple[str, str], list[str]] | None = None,
                 ue_efficiency: dict[str, float] | None = None,
                 slice_sd_mbps: float = DEFAULT_SLICE_SD_MBPS):
        self.sim = sim
        self.links = {l.link_id: l for l in links}
        if len(self.links) != len(links):
            raise NetError("duplicate link ids")
        self.routes = dict(routes or {})
        self.ue_efficiency = dict(ue_efficiency or {})
        self.slice_sd_mbps = slice_sd_mbps
        self.active_slices: dict[str, list[SliceConfig]] = {}
        self._endpoints: dict[str, Callable[[bytes, str], None]] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self._plans: dict[tuple[str, str], tuple] = {}

    def _rng(self, label: str) -> np.random.Generator:
        if label not in self._rngs:
            self._rngs[label] = self.sim.rng(label)
        return self._rngs[label]

    # -- endpoints and routing -------------------------------------------

    def register_endpoint(self, node: str, callback: Callable[[bytes, str], None]) -> None:
        self._endpoints[node] = callback

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

    # -- slicing -----------------------------------------------------------

    def set_slices(self, link_id: str, slices: list[SliceConfig]) -> None:
        if link_id not in self.links:
            raise NetError(f"unknown link {link_id!r}")
        total = sum(s.prb_fraction for s in slices)
        if total > 1.0 + 1e-9:
            raise InvalidSlice(f"PRB fractions sum to {total:.3f} > 1.0 on {link_id}")
        # the middle complementary pair puts both devices on the same profile,
        # so uniqueness is per (profile, device)
        keys = [(s.slice_id, s.assigned_ue) for s in slices]
        if len(set(keys)) != len(keys):
            raise InvalidSlice("duplicate (slice_id, ue) on link")
        self.active_slices[link_id] = list(slices)

    def slice_for_ue(self, link_id: str, ue: str) -> SliceConfig | None:
        for s in self.active_slices.get(link_id, ()):
            if s.assigned_ue == ue:
                return s
        return None

    def nominal_capacity(self, link: LinkSpec | str, slc: SliceConfig,
                         ue_efficiency: float) -> float:
        link = self.links[link] if isinstance(link, str) else link
        self._check_slice(link, slc)
        return slc.prb_fraction * link.base_capacity_mbps * ue_efficiency

    def effective_capacity(self, link: LinkSpec | str, slc: SliceConfig,
                           ue_efficiency: float) -> float:
        """Mbps available to the slice; sampled with calibrated noise."""
        link = self.links[link] if isinstance(link, str) else link
        nominal = self.nominal_capacity(link, slc, ue_efficiency)
        if self.slice_sd_mbps == 0.0:
            return nominal
        rng = self._rng(f"slice:{link.link_id}:{slc.assigned_ue}")
        rel_sd = self.slice_sd_mbps / nominal
        sampled = nominal * (1.0 + rng.normal(0.0, rel_sd))
        return max(sampled, CAPACITY_FLOOR_MBPS)

    def _check_slice(self, link: LinkSpec, slc: SliceConfig) -> None:
        active = self.active_slices.get(link.link_id)
        if active is not None and slc not in active:
            raise InvalidSlice(f"slice {slc.slice_id} not active on {link.link_id}")

    def run_throughput_trial(self, ue: str, link_id: str, slc: SliceConfig,
                             duration_s: float, samples: int):
        """Process: back-to-back rate samples, like an iperf session."""
        if duration_s <= 0:
            raise NetError("trial duration must be positive")
        if samples < 1:
            raise NetError("need at least one sample")
        if link_id not in self.links:
            raise RouteUnreachable(f"no link {link_id!r}")
        eff = self.ue_efficiency.get(ue, 1.0)

        def trial():
            records = []
            for _ in range(samples):
                rate = self.effective_capacity(link_id, slc, eff)
                start = self.sim.now_us
                yield sleep(s_to_us(duration_s))
                nbytes = int(rate * 1e6 * duration_s / 8)
                records.append(TransferRecord(nbytes, start, self.sim.now_us))
            return records

        return trial()

    # -- frame delivery ------------------------------------------------------

    def send(self, src: str, dst: str, frame: bytes, slice_ue: str | None = None) -> None:
        """Launch a frame along the route; losses and partitions drop it."""
        if not frame:
            raise NetError("empty frame")
        self._traverse(src, dst, frame, self.hop_plan(src, dst), 0, slice_ue)

    def _traverse(self, src: str, dst: str, frame: bytes,
                  plan: tuple[tuple[LinkSpec, np.random.Generator], ...],
                  index: int, slice_ue: str | None) -> None:
        sim = self.sim
        if index == len(plan):
            if sim.trace is not None:
                sim.record("deliver", src=src, dst=dst, nbytes=len(frame))
            endpoint = self._endpoints.get(dst)
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
            delay = self._hop_delay_us(link, len(frame), rng, slice_ue)
            if sim.trace is not None:
                sim.record("hop", link=link.link_id, delay_us=delay, nbytes=len(frame))
            sim.schedule(delay, self._traverse, src, dst, frame, plan, index + 1, slice_ue)

    def _hop_delay_us(self, link: LinkSpec, nbytes: int,
                      rng: np.random.Generator, slice_ue: str | None) -> int:
        mean_ms, sd_ms = link.latency_mean_ms, link.latency_sd_ms
        latency_ms = rng.normal(mean_ms, sd_ms) if sd_ms > 0.0 else mean_ms
        latency_us = max(int(round(latency_ms * US_PER_MS)), MIN_LATENCY_US)  # ms_to_us
        capacity_mbps = link.base_capacity_mbps
        if slice_ue is not None:
            slc = self.slice_for_ue(link.link_id, slice_ue)
            if slc is not None:
                capacity_mbps = self.effective_capacity(
                    link, slc, self.ue_efficiency.get(slice_ue, 1.0))
        serialization_us = int(round(nbytes * 8 / (capacity_mbps * 1e6) * 1e6))
        return latency_us + serialization_us
