import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabricsim import simcore
from fabricsim.simcore import (
    TIMEOUT,
    Simulator,
    Trigger,
    run_to_completion,
    sleep,
    wait,
)


def test_advance_empty_queue_moves_clock():
    sim = Simulator()
    sim.run(until_us=5_000)
    assert sim.now_us == 5_000


def test_advance_returns_fired_events_in_order():
    sim = Simulator()
    out = []

    def stamp(tag):
        out.append((sim.now_us, tag))

    sim.schedule(200, stamp, 1)
    sim.schedule(100, stamp, 2)
    sim.schedule(900, stamp, 3)
    sim.run(until_us=500)
    assert out == [(100, 2), (200, 1)]
    assert sim.now_us == 500
    sim.run(until_us=900)
    assert out == [(100, 2), (200, 1), (900, 3)]


def test_events_fire_in_timestamp_order():
    sim = Simulator()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run(until_us=1_000)
    assert fired == ["a", "b", "c"]


def test_equal_timestamps_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in ("first", "second", "third"):
        sim.schedule(50, fired.append, tag)
    sim.run(until_us=50)
    assert fired == ["first", "second", "third"]


def test_advance_cannot_move_backwards():
    sim = Simulator()
    sim.run(until_us=10)
    with pytest.raises(ValueError):
        sim.run(until_us=5)


def test_process_sleep_and_result():
    sim = Simulator()

    def proc():
        yield sleep(1_000)
        yield sleep(500)
        return sim.now_us

    assert run_to_completion(sim, proc()) == 1_500


def test_trigger_wakes_waiter_with_value():
    sim = Simulator()
    trigger = Trigger()

    def waiter():
        value = yield trigger
        return value

    proc = sim.spawn(waiter())
    sim.schedule(2_000, trigger.fire, "payload")
    sim.run()
    assert proc.result == "payload"
    assert sim.now_us == 2_000


def test_wait_timeout_returns_sentinel():
    sim = Simulator()
    trigger = Trigger()

    def waiter():
        value = yield wait(trigger, timeout_us=1_000)
        return value

    proc = sim.spawn(waiter())
    sim.run()
    assert proc.result is TIMEOUT


def test_trigger_beats_timeout_when_earlier():
    sim = Simulator()
    trigger = Trigger()

    def waiter():
        value = yield wait(trigger, timeout_us=5_000)
        return value

    proc = sim.spawn(waiter())
    sim.schedule(1_000, trigger.fire, 42)
    sim.run()
    assert proc.result == 42
    assert sim.now_us < 5_000 or proc.result == 42



def _waiter_beaten_by_trigger(sim):
    """One waiter with a 5 ms timeout whose trigger fires at 1 ms: three live
    events (start, fire, resume) and one cancelled timeout."""
    trigger = Trigger()

    def waiter():
        return (yield wait(trigger, timeout_us=5_000))

    proc = sim.spawn(waiter())
    sim.schedule(1_000, trigger.fire, 42)
    return proc


def test_cancelled_timeout_is_skipped_without_count_or_clock_move():
    sim = Simulator()
    proc = _waiter_beaten_by_trigger(sim)
    sim.run(max_events=3)  # the cancelled timeout does not count
    assert proc.result == 42
    assert sim.now_us == 1_000
    sim = Simulator()
    proc = _waiter_beaten_by_trigger(sim)
    sim.run(until_us=4_999, max_events=3)
    assert proc.result == 42
    assert sim.now_us == 4_999
    sim.run(until_us=6_000, max_events=0)  # the cancelled timeout fires nothing
    assert sim.now_us == 6_000


# -- cancel and heap compaction -----------------------------------------------------

def _cancelled_in_heap(sim):
    return sum(event[1] is None for event in sim._heap)


def test_cancel_compacts_once_more_than_a_quarter_of_a_heap_of_256_is_cancelled():
    sim = Simulator()
    fired = []
    events = [sim.schedule(i, fired.append, i) for i in range(300)]
    for event in events[:75]:  # a quarter exactly: kept
        sim.cancel(event)
    assert len(sim._heap) == 300 and _cancelled_in_heap(sim) == 75
    sim.cancel(events[75])
    assert len(sim._heap) == 224 and _cancelled_in_heap(sim) == 0
    sim.run()
    assert fired == list(range(76, 300))


def test_cancel_leaves_a_heap_below_256_whole_and_counts_an_event_once():
    sim = Simulator()
    fired = []
    events = [sim.schedule(i, fired.append, i) for i in range(255)]
    for event in events[:200] + events[:200]:
        sim.cancel(event)
    sim.cancel(None)
    assert len(sim._heap) == 255 and sim._cancelled == 200
    sim.run()
    assert fired == list(range(200, 255)) and sim._cancelled == 0


_OPS = st.lists(st.one_of(
    # (op, how many events, spread of their delays in us)
    st.tuples(st.just("schedule"), st.integers(1, 300), st.integers(0, 5_000)),
    # (op, how many pending events, which ones)
    st.tuples(st.just("cancel"), st.integers(1, 250), st.integers(0, 2**16)),
    # (op, until_us past now or None, max_events)
    st.tuples(st.just("run"), st.none() | st.integers(0, 5_000), st.integers(0, 400)),
), max_size=20)


def _replay(first, ops):
    """Run a first fill of `first` events, then `ops`; events fired by the run
    schedule and cancel more. Returns every outcome a caller can observe."""
    sim = Simulator()
    pending, ids, seen = {}, itertools.count(), []

    def add(delay):
        i = next(ids)
        pending[i] = sim.schedule(delay, fire, i)

    def cancel(count, pick):
        for _ in range(min(count, len(pending))):
            keys = list(pending)
            pick = pick * 31 + 7
            sim.cancel(pending.pop(keys[pick % len(keys)]))

    def fire(i):
        del pending[i]
        seen.append((sim.now_us, i))
        if i % 3 == 0:
            add(i % 7 * 100)
        if i % 4 == 0:
            cancel(2, i)

    def schedule(count, spread):
        for j in range(count):
            add((j * 7_919) % (spread + 1))

    schedule(*first)
    for op, a, b in ops:
        if op == "run":
            try:
                sim.run(until_us=None if a is None else sim.now_us + a, max_events=b)
            except RuntimeError:  # the event budget
                seen.append("budget")
            seen.append((sim.now_us, len(seen)))
        else:
            (schedule if op == "schedule" else cancel)(a, b)
    sim.run()
    return seen, sim.now_us


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(first=st.tuples(st.integers(256, 700), st.integers(0, 5_000)), ops=_OPS)
def test_heap_compaction_changes_no_history(first, ops):
    compacted = _replay(first, ops)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simcore, "COMPACT_SHARE", float("inf"))  # compaction off
        assert _replay(first, ops) == compacted


def test_unjoined_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sleep(1)
        raise ValueError("unhandled")

    sim.spawn(bad())
    with pytest.raises(ValueError):
        sim.run()


def test_rng_streams_are_label_keyed_and_order_independent():
    a = Simulator(seed=9)
    first = a.rng("alpha").random(4).tolist()
    second = a.rng("beta").random(4).tolist()

    b = Simulator(seed=9)
    # opposite creation order, same labels
    assert b.rng("beta").random(4).tolist() == second
    assert b.rng("alpha").random(4).tolist() == first


def test_rng_differs_across_seeds():
    assert (Simulator(seed=1).rng("x").random(3).tolist()
            != Simulator(seed=2).rng("x").random(3).tolist())


def _trace_hash(seed: int) -> str:
    sim = Simulator(seed=seed, trace=True)
    rng = sim.rng("jitter")

    def proc(tag):
        for _ in range(20):
            delay = int(rng.integers(1, 1_000))
            yield sleep(delay)
            sim.record("tick", tag=tag, delay=delay)

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    return hashlib.sha256("\n".join(sim.trace_lines()).encode()).hexdigest()


def test_seeded_runs_produce_identical_traces():
    assert _trace_hash(5) == _trace_hash(5)
    assert _trace_hash(5) != _trace_hash(6)


def test_seeded_trace_matches_pinned_history():
    # a literal, so a change to event order, tie-breaking or the jitter
    # stream fails here; comparing a seed with itself would not catch it
    assert _trace_hash(5) == \
        "7d3f6c767cf885f9187044e9c4c4a0b37fc1119bdc9fac38235d926e7e321747"


def _wait_mix(seed: int) -> tuple[str, Counter]:
    """One firer and four waiters sharing one jitter stream. Each waiter
    sleeps, waits bare on a trigger, or waits with a timeout, on a trigger
    near the firer's progress, so it may already have fired."""
    sim = Simulator(seed=seed, trace=True)
    rng = sim.rng("waits")
    triggers = [Trigger() for _ in range(60)]

    def firer():
        for i, trigger in enumerate(triggers):
            yield sleep(int(rng.integers(0, 400)))
            trigger.fire(i)
            sim.record("fire", i=i)

    def waiter(tag):
        for _ in range(30):
            pick = sum(t.fired for t in triggers) + int(rng.integers(-2, 3))
            trigger = triggers[min(max(pick, 0), len(triggers) - 1)]
            choice = int(rng.integers(3))
            if choice == 0:
                kind, value = "sleep", (yield sleep(int(rng.integers(0, 300))))
            elif choice == 1:
                kind = "fired" if trigger.fired else "bare"
                value = yield trigger
            else:
                kind = "fired" if trigger.fired else "timed"
                value = yield wait(trigger, int(rng.integers(1, 600)))
                if kind == "timed":
                    kind = "timeout" if value is TIMEOUT else "beaten"
            sim.record(kind, tag=tag, value=None if value is TIMEOUT else value)

    sim.spawn(firer())
    for tag in "abcd":
        sim.spawn(waiter(tag))
    sim.run()
    kinds = Counter(kind for _, kind, _ in sim.trace)
    return hashlib.sha256("\n".join(sim.trace_lines()).encode()).hexdigest(), kinds


def test_every_wait_kind_keeps_its_pinned_history():
    # sleeps, bare trigger waits, timed waits won by either side, waits on a
    # trigger that already fired, and fires: each resume's delay and tie order
    # decides the next draw, so any reordering changes the hash
    digest, kinds = _wait_mix(3)
    assert min(kinds[k] for k in ("sleep", "bare", "beaten", "timeout", "fired", "fire")) >= 10
    assert digest == "de2665ed5a3750498d934a610b07ba399b29487ad296bcbc737f83f6a4c89680"
