"""Deterministic discrete-event core.

Simulated time is integer microseconds. Events with equal timestamps fire in
insertion order, so a run is fully determined by the topology and the seed.
Long-running activities are written as generators. Whatever one yields
parks it: the engine calls the yielded object's `park(process)`, and that
object schedules the resume. `sleep(...)`, a `Trigger` and the transport's
exchanges are the yieldables.

A heap entry is the event itself, `[t << 40 | tie, fn, args]` (ties below 2**40).
`Simulator.cancel(entry)` is the one way to cancel: it clears `fn` and `args`, and
rebuilds the heap without cancelled entries once they are more than a quarter of a
heap of at least 256; pop order is the total order on the key, so history stays.
`Simulator.retime(events, t_us)` moves pending entries earlier in place, each keeping its
tie, so history is as if each had been scheduled at its new time in the first place.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
from typing import Any, Callable, Generator

import numpy as np
from numpy.random import SeedSequence, default_rng  # numpy loads it lazily: not in a first `rng`

US_PER_MS = 1_000
US_PER_S = 1_000_000
TIE_BITS = 40
_TIE_MASK = (1 << TIE_BITS) - 1
COMPACT_SHARE, COMPACT_MIN = 0.25, 256  # not asyncio's half: lossy appends pass it after their peak


def ms_to_us(ms: float) -> int:
    return int(round(ms * US_PER_MS))


def s_to_us(s: float) -> int:
    return int(round(s * US_PER_S))


class _Sleep:
    __slots__ = ("delay_us",)

    def __init__(self, delay_us: int):
        if delay_us < 0:
            raise ValueError("negative sleep")
        self.delay_us = int(delay_us)

    def park(self, proc: "Process") -> None:
        proc._sim.schedule(self.delay_us, proc._sim._step, proc, None, False)


def sleep(delay_us: int) -> _Sleep:
    return _Sleep(delay_us)


class Trigger:
    """One-shot completion event; it resumes its parked processes in park order."""

    __slots__ = ("fired", "value", "_parked")

    def __init__(self):
        self.fired = False
        self.value: Any = None
        self._parked: list[Process] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        parked, self._parked = self._parked, []
        for proc in parked:
            proc._sim.schedule(0, proc._sim._step, proc, value, False)

    def park(self, proc: "Process") -> None:
        if self.fired:
            proc._sim.schedule(0, proc._sim._step, proc, self.value, False)
        else:
            self._parked.append(proc)


class Process:
    """A spawned generator activity."""

    __slots__ = ("_sim", "gen", "name", "result", "error", "finished")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self._sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.result: Any = None
        self.error: BaseException | None = None
        self.finished = False


class Simulator:
    """Single-clock event queue with generator-based processes."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.now_us = 0
        self.seed = seed
        self._heap: list[list] = []
        self._tie = itertools.count()
        self._cancelled = 0  # cancelled entries still in the heap
        self._step = self._step  # one bound method serves every resume
        self.trace: list[tuple[int, str, dict]] | None = [] if trace else None

    # -- randomness -----------------------------------------------------

    def rng(self, label: str) -> np.random.Generator:
        """Named child stream; independent of creation order."""
        digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
        key = int.from_bytes(digest, "little")
        return default_rng(SeedSequence(entropy=(self.seed, key)))

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay_us: int, fn: Callable, *args) -> list:
        """Queue `fn(*args)`; returns the heap entry `[t << 40 | tie, fn, args]`."""
        if delay_us < 0:
            raise ValueError("cannot schedule in the past")
        event = [(self.now_us + int(delay_us)) << TIE_BITS | next(self._tie), fn, args]
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: list | None) -> None:
        """Cancel a pending event (None: no event); may compact the heap."""
        if event is not None and event[1] is not None:
            event[1] = event[2] = None
            self._cancelled += 1
            heap = self._heap
            if self._cancelled > COMPACT_SHARE * len(heap) and len(heap) >= COMPACT_MIN:
                heap[:] = [e for e in heap if e[1] is not None]  # in place: `run` holds it
                heapq.heapify(heap)
                self._cancelled = 0

    def retime(self, events: list[list], t_us: int) -> None:
        """Move each pending entry of `events` earlier to `t_us`, keeping its tie, then
        heapify once; cancelled entries are skipped. Raises ValueError, moving nothing,
        unless `t_us` is after the clock (at the clock's own instant an entry could
        belong before one that already fired) and no later than any entry's time."""
        key = t_us << TIE_BITS
        if t_us <= self.now_us or any(e[0] < key for e in events if e[1] is not None):
            raise ValueError("an event can only move earlier, and not to the clock or before")
        for event in events:
            if event[1] is not None:
                event[0] = key | event[0] & _TIE_MASK
        heapq.heapify(self._heap)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        proc = Process(self, gen, name)
        self.schedule(0, self._step, proc, None, False)
        return proc

    def record(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.append((self.now_us, kind, fields))

    def trace_lines(self) -> list[str]:
        return [json.dumps({"t_us": t, "kind": k, **f}, sort_keys=True)
                for t, k, f in self.trace or ()]

    # -- the loop -------------------------------------------------------

    def run(self, until_us: int | None = None, max_events: int = 50_000_000) -> None:
        """Drain the queue; with `until_us`, fire every event with timestamp
        <= until_us, then set the clock to it."""
        if until_us is not None and until_us < self.now_us:
            raise ValueError("clock cannot move backwards")
        fired = 0
        heap, pop = self._heap, heapq.heappop
        end = None if until_us is None else (int(until_us) + 1) << TIE_BITS
        while heap:
            if end is not None and heap[0][0] >= end:
                break
            key, fn, args = pop(heap)
            if fn is None:
                self._cancelled -= 1
                continue
            self.now_us = key >> TIE_BITS
            fn(*args)
            fired += 1
            if fired > max_events:
                raise RuntimeError("event budget exhausted; runaway simulation?")
        if until_us is not None:
            self.now_us = until_us

    # -- process stepping -----------------------------------------------

    def _step(self, proc: Process, value: Any, throwing: bool) -> None:
        try:
            yielded = proc.gen.throw(value) if throwing else proc.gen.send(value)
        except StopIteration as stop:
            proc.result, proc.finished = stop.value, True
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, then re-raised out of run()
            proc.error = exc
            raise
        park = getattr(yielded, "park", None)
        if park is None:
            raise TypeError(f"process yielded unsupported value: {yielded!r}")
        park(proc)


def run_to_completion(sim: Simulator, gen: Generator, until_us: int | None = None) -> Any:
    """Spawn `gen`, drain the simulator, and return the process result."""
    proc = sim.spawn(gen)
    sim.run(until_us=until_us)
    if not proc.finished:
        raise RuntimeError(f"process {proc.name} did not finish by the time bound")
    return proc.result
