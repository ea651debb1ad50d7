import collections
import os
import random
import threading
import zlib

import numpy as np
import pytest

from fabricsim.errors import (
    CorruptHeader,
    InvalidLogConfig,
    NameCollision,
    PayloadTooLarge,
    SeqEvicted,
    SeqNotAssigned,
    StorageFailure,
    UnknownLog,
)
from fabricsim import logstore
from fabricsim.logstore import HEADER_SIZE, RECORD_OVERHEAD, LogRegistry, LogStore

from . import oracles


def mid(i: int) -> bytes:
    return i.to_bytes(16, "little")


@pytest.fixture
def store(tmp_path):
    s = LogStore.create(tmp_path / "telemetry.log", "telemetry", 1024, 4096)
    yield s
    s.close()


# -- create -------------------------------------------------------------------

def test_create_fresh_log_starts_at_seq_one(store):
    assert store.next_seq == 1
    assert store.earliest_seq == 1
    assert store.element_size == 1024
    assert store.capacity == 4096


def test_create_rejects_zero_element_size(tmp_path):
    with pytest.raises(InvalidLogConfig):
        LogStore.create(tmp_path / "t.log", "t", 0, 10)


def test_create_rejects_zero_capacity(tmp_path):
    with pytest.raises(InvalidLogConfig):
        LogStore.create(tmp_path / "t.log", "t", 8, 0)


def test_create_twice_same_name_collides(tmp_path):
    LogStore.create(tmp_path / "dup.log", "dup", 8, 4).close()
    with pytest.raises(NameCollision):
        LogStore.create(tmp_path / "dup.log", "dup", 8, 4)


# -- append -------------------------------------------------------------------

def test_first_append_returns_seq_one(store):
    assert store.append(b"hello", mid(1)) == 1
    assert store.next_seq == 2


def test_appends_are_monotone(store):
    for i in range(1, 11):
        assert store.append(bytes([i]), mid(i)) == i


def test_duplicate_message_id_returns_original_seq(store):
    for i in range(1, 8):
        store.append(bytes([i]), mid(i))
    length_before = len(store)
    assert store.append(b"retry-payload", mid(7)) == 7
    assert len(store) == length_before


def test_oversized_payload_rejected(store):
    with pytest.raises(PayloadTooLarge):
        store.append(b"x" * 1025, mid(1))


def test_dedup_idempotence_matches_single_append(tmp_path):
    a = LogStore.create(tmp_path / "a.log", "a", 64, 128)
    b = LogStore.create(tmp_path / "b.log", "b", 64, 128)
    a.append(b"payload", mid(5))
    b.append(b"payload", mid(5))
    b.append(b"payload", mid(5))
    assert a.scan(1, 10).entries == b.scan(1, 10).entries
    a.close()
    b.close()


# -- read ----------------------------------------------------------------------

def test_read_round_trips_exact_bytes(store):
    payloads = [b"", b"x", b"hello world", b"\x00\x01\x02",
                "météo-à-paris".encode("utf-8").ljust(700, b"-")]
    seqs = [store.append(p, mid(i)) for i, p in enumerate(payloads)]
    for seq, payload in zip(seqs, payloads):
        assert store.read(seq).payload == payload


def test_read_next_seq_not_assigned(store):
    store.append(b"one", mid(1))
    with pytest.raises(SeqNotAssigned):
        store.read(store.next_seq)


def test_read_evicted_after_capacity_overflow(tmp_path):
    # oracle: brute-force append loop one past capacity evicts seq 1
    cap = 16
    s = LogStore.create(tmp_path / "ring.log", "ring", 8, cap)
    for i in range(1, cap + 2):
        s.append(bytes([i % 256]), mid(i))
    with pytest.raises(SeqEvicted):
        s.read(1)
    assert s.read(2).payload == bytes([2])
    assert s.earliest_seq == 2
    s.close()


def test_read_your_write_for_all_sizes(tmp_path):
    element = 96
    s = LogStore.create(tmp_path / "sizes.log", "sizes", element, 256)
    rng = random.Random(13)
    for size in range(element + 1):
        payload = bytes(rng.randrange(256) for _ in range(size))
        seq = s.append(payload, mid(size))
        assert s.read(seq).payload == payload
    s.close()


# -- scan ---------------------------------------------------------------------

def test_scan_empty_range_on_empty_log(store):
    result = store.scan(1, 0)
    assert result.entries == []
    assert not result.truncated


def test_scan_six_entries_in_order(store):
    for i in range(1, 7):
        store.append(bytes([i]), mid(i))
    result = store.scan(1, 6)
    assert [e.seq for e in result.entries] == [1, 2, 3, 4, 5, 6]
    assert [e.payload for e in result.entries] == [bytes([i]) for i in range(1, 7)]
    assert not result.truncated


def test_scan_spanning_evicted_region_is_marked(tmp_path):
    # oracle: in-memory list of every append
    cap = 8
    total = 20
    s = LogStore.create(tmp_path / "ev.log", "ev", 8, cap)
    shadow = {}
    for i in range(1, total + 1):
        shadow[s.append(bytes([i]), mid(i))] = bytes([i])
    result = s.scan(1, total)
    earliest = total - cap + 1
    assert result.truncated
    assert result.first_available == earliest
    assert [e.seq for e in result.entries] == list(range(earliest, total + 1))
    for e in result.entries:
        assert e.payload == shadow[e.seq]
    s.close()


def test_scan_clamps_beyond_head(store):
    store.append(b"one", mid(1))
    result = store.scan(1, 10)
    assert [e.seq for e in result.entries] == [1]


def test_scan_matches_per_seq_read_across_the_wrap_point(tmp_path):
    cap, element = 8, 6
    stride = RECORD_OVERHEAD + element
    path = tmp_path / "wrap.log"
    s = LogStore.create(path, "wrap", element, cap)
    for i in range(1, 4):
        s.append(f"p{i}".encode(), mid(i))
    with open(path, "rb") as f:
        f.seek(HEADER_SIZE + 2 * stride)
        stale = f.read(stride)  # seq 3's record, which seq 11 overwrites
    for i in range(4, 14):
        s.append(f"p{i}".encode(), mid(i))
    with open(path, "r+b") as f:
        f.seek(HEADER_SIZE + 2 * stride)
        f.write(stale)                                  # slot of seq 11 holds seq 3
        f.seek(HEADER_SIZE + ((9 - 1) % cap) * stride + 30)
        f.write(b"\xff")                                # seq 9 fails its CRC
    earliest, nxt = s.earliest_seq, s.next_seq
    assert (earliest, nxt) == (6, 14)

    def read_or_none(seq):
        try:
            return s.read(seq)
        except SeqEvicted:
            return None

    by_read = {seq: read_or_none(seq) for seq in range(earliest, nxt)}
    assert by_read[9] is None and by_read[11] is None
    for lo in range(0, nxt + 2):
        for hi in range(lo - 1, nxt + 2):
            result = s.scan(lo, hi)
            expected = [by_read[seq] for seq in range(max(lo, earliest), min(hi, nxt - 1) + 1)
                        if by_read[seq] is not None]
            assert result.entries == expected, (lo, hi)
            assert result.truncated == (lo <= hi and lo < earliest), (lo, hi)
            assert result.first_available == (earliest if result.truncated else None)
    s.close()


# -- recover ---------------------------------------------------------------------

@pytest.fixture
def recovery_paths(monkeypatch) -> collections.Counter:
    """How often recovery checked its records as whole "columns" or slot by
    "slots", and how often a reopened log built its dedup index in one step
    from "distinct" ids or by an entry-by-entry "replay"."""
    paths: collections.Counter = collections.Counter()
    real_decode = logstore._decode_slots
    real_index, real_remember = LogStore._index, LogStore._dedup_remember

    def decode(raw, element_size, layout=None):
        result = real_decode(raw, element_size, layout)
        if layout is not None:  # recovery, not a read or scan
            paths["columns" if isinstance(result, np.ndarray) else "slots"] += 1
        return result

    def remember(self, message_id, seq):
        paths["remembered entries"] += 1
        real_remember(self, message_id, seq)

    def index(self):
        building, before = self._pending is not None, paths["remembered entries"]
        built = real_index(self)
        if building:
            paths["replay" if paths["remembered entries"] > before else "distinct"] += 1
        return built

    monkeypatch.setattr(logstore, "_decode_slots", decode)
    monkeypatch.setattr(LogStore, "_dedup_remember", remember)
    monkeypatch.setattr(LogStore, "_index", index)
    return paths


def test_recover_round_trips_100_entries(tmp_path):
    path = tmp_path / "dur.log"
    s = LogStore.create(path, "dur", 32, 256)
    payloads = {}
    for i in range(1, 101):
        payloads[i] = f"entry-{i}".encode()
        s.append(payloads[i], mid(i))
    s.close()

    r = LogStore.recover(path)
    assert r.next_seq == 101
    result = r.scan(1, 100)
    assert [e.seq for e in result.entries] == list(range(1, 101))
    for e in result.entries:
        assert e.payload == payloads[e.seq]
    assert not r.torn_discarded
    r.close()


def test_recover_without_clean_close(tmp_path):
    # crash semantics: no close(), reopen straight from whatever hit the disk
    path = tmp_path / "crash.log"
    s = LogStore.create(path, "crash", 16, 64)
    for i in range(1, 8):
        s.append(bytes([i]) * 3, mid(i))
    # no s.close()
    r = LogStore.recover(path)
    assert r.next_seq == 8
    assert [e.payload for e in r.scan(1, 7).entries] == [bytes([i]) * 3
                                                         for i in range(1, 8)]
    r.close()


def test_recover_resumes_sequence_numbering(tmp_path):
    path = tmp_path / "resume.log"
    s = LogStore.create(path, "resume", 8, 64)
    for i in range(1, 6):
        s.append(bytes([i]), mid(i))
    s.close()
    r = LogStore.recover(path)
    assert r.append(b"next", mid(6)) == 6
    r.close()


def test_recover_preserves_dedup_index(tmp_path):
    path = tmp_path / "dd.log"
    s = LogStore.create(path, "dd", 8, 64)
    s.append(b"x", mid(42))
    s.close()
    r = LogStore.recover(path)
    assert r.append(b"retry", mid(42)) == 1
    assert r.next_seq == 2
    r.close()


def test_recover_parses_each_live_record_once(tmp_path, decoded_records):
    path = tmp_path / "once.log"
    s = LogStore.create(path, "once", 32, 128)
    for i in range(1, 101):
        s.append(f"entry-{i}".encode(), mid(i))
    s.close()
    r = LogStore.recover(path)
    # each of the 100 written slots exactly once; 28 slots were never written
    assert sorted(decoded_records) == list(range(1, 101))
    assert (r.earliest_seq, r.next_seq) == (1, 101)
    assert r.append(b"retry", mid(37)) == 37  # live ids seed the dedup index
    r.close()


def test_recover_matches_reference_on_random_histories(tmp_path, recovery_paths):
    # appends with repeated ids, an LRU small enough to evict, journal
    # compactions, reopens (some after a cut journal) and wraparound; then
    # the log and the journal are cut (or a byte flipped) at random and
    # recovery is compared with the one-record-at-a-time reference
    outcomes = {"recovered": 0, "corrupt": 0}
    for seed in range(150):
        rng = random.Random(seed)
        element, capacity = rng.randint(1, 12), rng.randint(1, 10)
        limit, id_pool = rng.choice([2, 5, 64]), rng.choice([4, 12, 10_000])
        path = tmp_path / f"h{seed}.log"
        journal = path.with_suffix(".log.dedup")
        s = LogStore.create(path, "h", element, capacity, dedup_limit=limit)
        for _ in range(rng.randint(0, 40)):
            op = rng.random()
            if op < 0.05:
                s._compact_dedup()
            elif op < 0.12:
                s.close()
                if op < 0.08:
                    data = journal.read_bytes()
                    journal.write_bytes(data[:rng.randint(0, len(data))])
                s = LogStore.recover(path)
            else:
                s.append(rng.randbytes(rng.randint(0, element)), mid(rng.randint(1, id_pool)))
        s.close()
        for target in (path, journal):
            data = target.read_bytes()
            cut = rng.random()
            if cut < 0.3:
                data = data[:rng.randint(0, len(data))]
            elif cut < 0.4 and data:
                at = rng.randrange(len(data))
                data = data[:at] + bytes([data[at] ^ 0x5A]) + data[at + 1:]
            target.write_bytes(data)
        if expect_recovery_as_reference(path):
            outcomes["recovered"] += 1
        else:
            outcomes["corrupt"] += 1
    assert min(outcomes.values()) >= 10, outcomes
    assert min(recovery_paths[p] for p in ("columns", "slots", "distinct", "replay")) >= 10, \
        recovery_paths


def expect_recovery_as_reference(path) -> bool:
    """Recover path and check the outcome against the reference; True if it
    recovered, False if both raised CorruptHeader."""
    journal = path.with_suffix(".log.dedup")
    expected = oracles.reference_recover(path.read_bytes(), journal.read_bytes())
    if expected is None:
        with pytest.raises(CorruptHeader):
            LogStore.recover(path)
        return False
    r = LogStore.recover(path)
    got = {"next_seq": r.next_seq, "earliest_seq": r.earliest_seq,
           "torn_discarded": r.torn_discarded, "dedup": list(r._index().items()),
           "journal_entries": r._dedup_journal_entries,
           "journal_bytes": journal.stat().st_size}
    r.close()
    assert got == expected, path.name
    return True


def journal_entry(message_id, seq):
    body = message_id + seq.to_bytes(8, "little")
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_recover_replays_a_journal_with_a_repeated_id_entry_by_entry(tmp_path,
                                                                      recovery_paths):
    # a journal naming one id twice replays as an LRU would: the first seq
    # stays, even though the live record (seq 2) is the journal's last entry
    path = tmp_path / "dup.log"
    s = LogStore.create(path, "dup", 8, 1)
    s.append(b"a", mid(1))
    s.append(b"b", mid(2))
    s.close()
    path.with_suffix(".log.dedup").write_bytes(journal_entry(mid(2), 1) + journal_entry(mid(2), 2))
    assert expect_recovery_as_reference(path)
    assert (recovery_paths["columns"], recovery_paths["replay"]) == (1, 1)
    r = LogStore.recover(path)
    assert (r.next_seq, list(r._index().items())) == (3, [(mid(2), 1)])
    r.close()


def write_log(path, element, capacity, appends):
    s = LogStore.create(path, "h", element, capacity)
    for i in range(1, appends + 1):
        s.append(bytes([i % 256]) * (i % (element + 1)), mid(i))
    s.close()


def rewrite_header(path, next_seq):
    """Replace the header's counters as a crash between a record write and
    its header write would leave them; the header CRC stays valid."""
    element, capacity, _, limit, _, _ = logstore._read_log(path)
    with open(path, "r+b") as f:
        f.write(logstore._pack_header(element, capacity, next_seq,
                                      max(1, next_seq - capacity), limit))


@pytest.mark.parametrize("appends", [1, 5, 8, 13, 16])
@pytest.mark.parametrize("offset", [-1, +1])
def test_recover_matches_reference_when_header_and_records_disagree(tmp_path, appends,
                                                                    offset, recovery_paths):
    # the header proposes a layout one seq behind (a record written, its
    # header not) or one ahead of the records; the records decide
    path = tmp_path / "lag.log"
    write_log(path, 4, 8, appends)
    rewrite_header(path, appends + 1 + offset)
    assert expect_recovery_as_reference(path)
    assert (recovery_paths["columns"], recovery_paths["slots"]) == (0, 1)
    r = LogStore.recover(path)
    assert (r.earliest_seq, r.next_seq) == (max(1, appends - 7), appends + 1)
    assert [e.seq for e in r.scan(1, appends).entries] == list(range(r.earliest_seq,
                                                                     appends + 1))
    r.close()


@pytest.mark.parametrize("lag", [0, 1])
def test_close_writes_the_header_only_if_the_disk_holds_another(tmp_path, monkeypatch, lag):
    # an untouched reopen leaves the header it read, with no write; a header
    # one seq behind its records (a crash between the two writes) is repaired
    # at close, to the bytes a clean close leaves
    path = tmp_path / "h.log"
    write_log(path, 4, 8, 5)
    clean = path.read_bytes()
    if lag:
        rewrite_header(path, 6 - lag)
    r = LogStore.recover(path)
    writes, real_pwrite = [], os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, at: writes.append(at) or
                        real_pwrite(fd, data, at))
    r.close()
    assert writes == [0] * lag
    assert path.read_bytes() == clean


@pytest.mark.parametrize("fault, records_path, index_path", [
    ("header_behind", "slots", "distinct"),
    ("header_ahead", "slots", "distinct"),
    ("torn_tail", "slots", "distinct"),
    ("flipped_byte", "slots", None),             # beyond the torn slot: corrupt
    ("repeated_journal_id", "columns", "replay"),
    ("torn_journal_tail", "columns", "distinct"),  # the cut journal names seqs 1-4
    ("journal_seqs_disagree", "columns", "replay"),  # ids the records hold, other seqs
    ("journal_ids_disagree", "columns", "distinct"),  # 21 distinct ids: newest window
    ("journal_past_window", "columns", "distinct"),  # 13 distinct ids: newest window
    ("reappended_past_window", "columns", "replay"),
])
def test_recover_fallbacks_match_reference(tmp_path, recovery_paths, fault, records_path,
                                          index_path):
    # 13 appends wrap an 8-slot log whose dedup window is 10 ids, so its
    # journal holds the 5 evicted ids and with the records names more ids
    # than the window; each fault moves recovery off the column check or
    # the index off its one-step build, or neither
    path, stride = tmp_path / "f.log", RECORD_OVERHEAD + 4
    journal = path.with_suffix(".log.dedup")
    s = LogStore.create(path, "f", 4, 8, dedup_limit=10)
    for i in range(1, 14):
        s.append(bytes([i]), mid(i))
    if fault == "reappended_past_window":
        s.append(b"re", mid(1))  # evicted from the window, so written again
    s.close()
    assert journal.read_bytes() == b"".join(journal_entry(mid(i), i) for i in range(
        1, 7 if fault == "reappended_past_window" else 6))
    if fault in ("header_behind", "header_ahead", "torn_tail"):
        rewrite_header(path, 15 if fault == "header_ahead" else 13)
    newest = HEADER_SIZE + (13 - 1) % 8 * stride
    data = bytearray(path.read_bytes())
    if fault == "torn_tail":  # seq 13 half written over seq 5, whose id the journal holds
        data[newest + 20:newest + stride] = bytes(stride - 20)
    elif fault == "flipped_byte":
        data[newest - 2 * stride + 30] ^= 0x10
    elif fault == "repeated_journal_id":
        journal.write_bytes(journal_entry(mid(13), 1) + journal.read_bytes())
    elif fault == "torn_journal_tail":
        journal.write_bytes(journal.read_bytes()[:-5])
    elif fault == "journal_seqs_disagree":
        journal.write_bytes(b"".join(journal_entry(mid(i), i + 100) for i in range(1, 14)))
    elif fault == "journal_ids_disagree":
        journal.write_bytes(b"".join(journal_entry(mid(i + 100), i) for i in range(1, 14)))
    path.write_bytes(data)
    assert expect_recovery_as_reference(path) == (fault != "flipped_byte")
    assert recovery_paths[records_path] == 1, recovery_paths
    if index_path is not None:
        assert recovery_paths[index_path] == 1, recovery_paths


@pytest.mark.parametrize("window", [4, 8])
def test_journal_stays_empty_while_the_window_fits_the_capacity(tmp_path, window):
    # every id the window can hold is still in a record, so nothing is journaled
    path = tmp_path / "w.log"
    journal = path.with_suffix(".log.dedup")
    s = LogStore.create(path, "w", 8, 8, dedup_limit=window)
    for i in range(1, 21):  # wraps twice and a half
        s.append(bytes([i]), mid(i))
    s.close()
    assert journal.stat().st_size == 0
    r = LogStore.recover(path)
    assert r.append(b"retry", mid(20)) == 20
    for i in range(21, 31):
        r.append(bytes([i]), mid(i))
    assert r.append(b"retry", mid(31 - window)) == 31 - window
    r.close()
    assert journal.stat().st_size == 0
    assert expect_recovery_as_reference(path)


def test_journal_holds_exactly_the_evicted_ids_in_seq_order(tmp_path):
    path = tmp_path / "e.log"
    journal = path.with_suffix(".log.dedup")
    s = LogStore.create(path, "e", 8, 4, dedup_limit=16)
    for i in range(1, 11):  # seqs 1-6 are evicted
        s.append(bytes([i]), mid(i))
    s.close()
    assert journal.read_bytes() == b"".join(journal_entry(mid(i), i) for i in range(1, 7))
    assert expect_recovery_as_reference(path)
    r = LogStore.recover(path)
    assert r.append(b"retry", mid(2)) == 2  # evicted, still in the window
    assert r.append(b"retry", mid(9)) == 9  # live
    assert (r.earliest_seq, r.next_seq) == (7, 11)
    r.close()


def test_crash_between_eviction_entry_and_overwrite_recovers_as_reference(tmp_path,
                                                                         monkeypatch):
    # seq 5 would overwrite seq 1: the journal names seq 1, whose record is
    # still whole, so id 1 is in the journal and in the records
    path = tmp_path / "x.log"
    s = LogStore.create(path, "x", 8, 4)
    for i in range(1, 5):
        s.append(bytes([i]), mid(i))

    class Crash(Exception):
        pass

    def crashing_pwrite(fd, data, offset):
        raise Crash

    monkeypatch.setattr(os, "pwrite", crashing_pwrite)
    with pytest.raises(Crash):
        s.append(b"five", mid(5))
    monkeypatch.undo()
    os.close(s._fd)  # the process is gone: nothing else reaches its files
    os.close(s._dedup_fd)
    assert path.with_suffix(".log.dedup").read_bytes() == journal_entry(mid(1), 1)
    assert expect_recovery_as_reference(path)
    r = LogStore.recover(path)
    assert (r.earliest_seq, r.next_seq) == (1, 5)
    assert r.append(b"retry", mid(1)) == 1
    assert r.append(b"five", mid(5)) == 5
    r.close()
    assert expect_recovery_as_reference(path)


@pytest.mark.parametrize("window", [4, logstore.DEFAULT_DEDUP_LIMIT])
def test_journal_listing_every_id_still_recovers_as_reference(tmp_path, recovery_paths,
                                                              window):
    # a journal that names every appended id, live records' ids included (the
    # format before it kept only evicted ids), replays entry by entry
    path = tmp_path / "old.log"
    journal = path.with_suffix(".log.dedup")
    s = LogStore.create(path, "old", 8, 8, dedup_limit=window)
    for i in range(1, 14):
        s.append(bytes([i]), mid(i))
    s.close()
    journal.write_bytes(b"".join(journal_entry(mid(i), i) for i in range(1, 14)))
    assert expect_recovery_as_reference(path)
    assert recovery_paths["replay"] == 1
    r = LogStore.recover(path)
    assert list(r._index().items()) == [(mid(i), i) for i in range(max(1, 14 - window), 14)]
    assert r.append(b"retry", mid(13)) == 13
    assert r.append(b"new", mid(14)) == 14
    r.close()
    assert expect_recovery_as_reference(path)


def test_recover_checks_each_crc_once_and_defers_the_index(tmp_path, monkeypatch):
    # work pin: a 1,000-record log with no evictions reopens with one crc32
    # per record plus the header's, and builds its index at the first append
    path = tmp_path / "pin.log"
    s = LogStore.create(path, "pin", 8, 1024)
    for i in range(1, 1001):
        s.append(i.to_bytes(8, "little"), mid(i))
    s.close()
    calls = []

    class CountingZlib:
        @staticmethod
        def crc32(data, value=0):
            calls.append(1)
            return zlib.crc32(data, value)

    monkeypatch.setattr(logstore, "zlib", CountingZlib)
    r = LogStore.recover(path)
    assert len(calls) == 1001
    assert len(r._dedup) == 0
    assert r.append(b"retry", mid(500)) == 500
    assert len(r._dedup) == 1000
    r.close()


@pytest.mark.parametrize("step", ["before_write", "after_write", "after_replace"])
@pytest.mark.parametrize("operation", ["resize", "compaction"])
def test_crash_mid_resize_or_compaction_recovers_as_reference(tmp_path, monkeypatch,
                                                              operation, step):
    # both write a .tmp sibling and rename it over the file; a process crash
    # at each step leaves the old file or the new one, and the reopen removes
    # any leftover .tmp file
    path = tmp_path / "c.log"
    s = LogStore.create(path, "c", 8, 2, dedup_limit=3)
    for i in range(1, 21):  # wrapped, and the journal of evicted ids compacted once already
        s.append(bytes([i]) * (i % 8), mid(i))
    real_open, real_replace = open, os.replace

    class Crash(Exception):
        pass

    def crashing_open(file, mode="r"):
        f = real_open(file, mode)
        if step == "before_write":
            f.close()
            raise Crash
        return f

    def crashing_replace(src, dst):
        if step == "after_replace":
            real_replace(src, dst)
        raise Crash

    monkeypatch.setattr(logstore, "open", crashing_open, raising=False)
    monkeypatch.setattr(os, "replace", crashing_replace)
    with pytest.raises(Crash):
        s.resize(16) if operation == "resize" else s._compact_dedup()
    monkeypatch.undo()
    os.close(s._fd)  # the process is gone: nothing else reaches its files
    os.close(s._dedup_fd)
    leftover = {"resize": "c.log.tmp", "compaction": "c.log.dedup.tmp"}[operation]
    assert [p.name for p in tmp_path.glob("*.tmp")] == \
        ([] if step == "after_replace" else [leftover])
    assert expect_recovery_as_reference(path)
    assert not list(tmp_path.glob("*.tmp"))


def test_recover_wrapped_log_at_every_rotation(tmp_path, monkeypatch, recovery_paths):
    decoded_records, verdicts = [], []  # seqs decoded; whether a run passed whole
    real_decode = logstore._decode_slots

    def recording_decode(raw, element_size, layout=None):
        result = real_decode(raw, element_size, layout)
        if layout is not None:  # recovery's whole-run check, not a read or scan
            verdicts.append(isinstance(result, np.ndarray))
        if isinstance(result, np.ndarray):
            decoded_records.extend(result["seq"].tolist())
            return result
        pairs = list(result)
        decoded_records.extend(rec[0] if rec is not None else 0 for _, rec in pairs)
        return iter(pairs)

    monkeypatch.setattr(logstore, "_decode_slots", recording_decode)
    for capacity in range(1, 11):
        for appends in range(capacity, 2 * capacity + 1):
            path = tmp_path / f"w{capacity}_{appends}.log"
            write_log(path, 3, capacity, appends)
            decoded_records.clear()
            assert expect_recovery_as_reference(path)
            # each slot decoded once, and the records come back in seq order
            assert sorted(decoded_records) == list(range(appends - capacity + 1, appends + 1))
            r = LogStore.recover(path)
            first = appends - capacity + 1
            assert [(e.seq, e.message_id) for e in r.scan(first, appends).entries] \
                == [(seq, mid(seq)) for seq in range(first, appends + 1)]
            assert r.take_recovered() == (first, [bytes([seq % 256]) * (seq % 4)
                                                  for seq in range(first, appends + 1)])
            assert r.take_recovered() is None  # handed over once
            r.close()
    assert verdicts and all(verdicts)  # the header's layout held at every rotation
    assert recovery_paths["slots"] == recovery_paths["replay"] == 0


def test_decode_slots_agrees_with_a_slot_by_slot_reference():
    # whether a run matches the seqs it should hold or differs from them
    # anyhow, each non-blank slot decodes as the one-slot reference says,
    # slot by slot or, given the layout, as a run that passes whole
    element, stride = 4, RECORD_OVERHEAD + 4
    passed_whole = 0

    def slot(seq, payload_len=1):
        body = logstore._RECORD_PREFIX.pack(seq, mid(seq), 0, payload_len) + bytes(element)
        return bytearray(body + zlib.crc32(body).to_bytes(4, "little"))

    for seed in range(300):
        rng = random.Random(seed)
        first = rng.randint(1, 9)
        seqs = list(range(first, first + rng.randint(0, 6)))
        slots = [slot(seq) for seq in seqs] + [bytearray(stride)] * rng.randint(0, 2)
        fault = rng.choice(["none", "seq_zero", "payload_len", "flip", "other_seq", "blank"])
        if slots and fault != "none":
            at = rng.randrange(len(slots))
            slots[at] = {"seq_zero": slot(0), "payload_len": slot(first, element + 1),
                         "flip": slot(first + at), "other_seq": slot(first + at + 1),
                         "blank": bytearray(stride)}[fault]
            if fault == "flip":
                slots[at][rng.randrange(stride)] ^= 0x10
        raw = bytes(b"".join(slots))[:rng.choice([None, -1, -stride + 3])]
        expected = [(i, oracles._reference_record(raw[off:off + stride], element))
                    for i, off in enumerate(range(0, len(raw), stride))
                    if any(raw[off:off + stride])]
        got = [(i, rec and rec[:2]) for i, rec in logstore._decode_slots(raw, element)]
        assert got == expected, (seed, fault)
        result = logstore._decode_slots(raw, element, np.array(seqs, dtype=np.uint64))
        if isinstance(result, np.ndarray):
            passed_whole += 1
            result = enumerate(zip(result["seq"].tolist(), result["message_id"].tolist()))
        assert [(i, rec and rec[:2]) for i, rec in result] == expected, (seed, fault)
    assert 30 <= passed_whole <= 270, passed_whole


def test_recovered_records_are_dropped_at_close(tmp_path):
    path = tmp_path / "drop.log"
    write_log(path, 4, 8, 3)
    r = LogStore.recover(path)
    r.close()
    assert r.take_recovered() is None


@pytest.mark.parametrize("slot, recovers", [(3, True), (4, False), (7, False)])
def test_recover_with_a_nonzero_byte_past_the_last_used_slot(tmp_path, slot, recovers):
    # slot 3 is where the next append lands, so a stray byte there reads as a
    # torn write; anywhere later it is corruption
    path = tmp_path / "stray.log"
    write_log(path, 4, 8, 3)
    with open(path, "r+b") as f:
        f.seek(HEADER_SIZE + slot * (RECORD_OVERHEAD + 4) + 20)
        f.write(b"\x01")
    assert expect_recovery_as_reference(path) == recovers


@pytest.mark.parametrize("fault", ["payload_len_too_long", "seq_zero"])
def test_record_failing_a_check_besides_its_crc_is_skipped_and_torn(tmp_path, fault):
    path = tmp_path / "f.log"
    s = LogStore.create(path, "f", 8, 16)
    for i in range(1, 6):
        s.append(bytes([i]), mid(i))
    stride = RECORD_OVERHEAD + 8
    offset = HEADER_SIZE + 4 * stride  # seq 5, the newest record
    record = bytearray(path.read_bytes()[offset:offset + stride])
    if fault == "payload_len_too_long":
        record[32:36] = (9).to_bytes(4, "little")
    else:
        record[0:8] = bytes(8)
    record[-4:] = zlib.crc32(record[:-4]).to_bytes(4, "little")  # a valid CRC
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(record)
    with pytest.raises(SeqEvicted):
        s.read(5)
    assert [e.seq for e in s.scan(1, 5).entries] == [1, 2, 3, 4]
    s.close()
    assert expect_recovery_as_reference(path)
    r = LogStore.recover(path)
    assert (r.next_seq, r.torn_discarded) == (5, True)
    r.close()


def test_closed_store_refuses_io(tmp_path):
    a = LogStore.create(tmp_path / "a.log", "a", 8, 16)
    a.append(b"a-first", mid(1))
    a.close()
    b = LogStore.create(tmp_path / "b.log", "b", 8, 16)
    b.append(b"b-first", mid(1))
    # b took the fd numbers a released; a write through a would land in b
    assert (b._fd, b._dedup_fd) == (a._fd, a._dedup_fd)
    with pytest.raises(StorageFailure, match="closed"):
        a.append(b"XXXXXXXX", mid(2))
    with pytest.raises(StorageFailure, match="closed"):
        a.read(1)
    with pytest.raises(StorageFailure, match="closed"):
        a.scan(1, 1)
    assert b.next_seq == 2
    stride = RECORD_OVERHEAD + 8
    with open(tmp_path / "b.log", "rb") as f:
        f.seek(HEADER_SIZE + stride)  # slot 2: never written, so zero or absent
        assert not any(f.read(stride))
    assert not a._dedup  # released on close
    b.close()


def test_truncation_at_every_byte_of_last_record(tmp_path, recovery_paths):
    # fault-injection harness: persist 100 entries, then truncate the file at
    # every byte offset inside the final record; recovery must always come
    # back with 99 entries and next_seq == 100
    element = 16
    stride = RECORD_OVERHEAD + element
    base = tmp_path / "base.log"
    s = LogStore.create(base, "base", element, 128)
    for i in range(1, 101):
        s.append(f"p{i:03d}".encode(), mid(i))
    s.close()
    file_size = base.stat().st_size
    last_record_start = file_size - stride

    for cut in range(stride):
        victim = tmp_path / f"cut{cut}.log"
        victim.write_bytes(base.read_bytes())
        with open(victim, "r+b") as f:
            f.truncate(last_record_start + cut)
        r = LogStore.recover(victim)
        assert recovery_paths["slots"] == cut + 1  # a torn tail is classified slot by slot
        assert r.next_seq == 100, f"cut at byte {cut}"
        assert r.earliest_seq == 1
        assert len(r.scan(1, 99).entries) == 99
        assert r.torn_discarded == (cut != 0)
        r.close()


def test_torn_final_write_discarded_after_wraparound(tmp_path):
    path = tmp_path / "wrap.log"
    cap = 8
    s = LogStore.create(path, "wrap", 8, cap)
    for i in range(1, 21):
        s.append(bytes([i]), mid(i))
    s.close()
    # corrupt the slot holding the newest record (seq 20)
    stride = RECORD_OVERHEAD + 8
    slot = (20 - 1) % cap
    with open(path, "r+b") as f:
        f.seek(HEADER_SIZE + slot * stride + 10)
        f.write(b"\xff\xff\xff")
    r = LogStore.recover(path)
    assert r.next_seq == 20
    assert r.torn_discarded
    r.close()


def test_corrupt_magic_raises_corrupt_header(tmp_path):
    path = tmp_path / "bad.log"
    s = LogStore.create(path, "bad", 8, 16)
    s.append(b"x", mid(1))
    s.close()
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(raw)
    with pytest.raises(CorruptHeader):
        LogStore.recover(path)


def test_mid_log_corruption_is_not_forgiven(tmp_path):
    path = tmp_path / "midcorrupt.log"
    s = LogStore.create(path, "midcorrupt", 8, 64)
    for i in range(1, 11):
        s.append(bytes([i]), mid(i))
    s.close()
    stride = RECORD_OVERHEAD + 8
    with open(path, "r+b") as f:
        f.seek(HEADER_SIZE + 4 * stride + 12)  # inside record for seq 5
        f.write(b"\xde\xad")
    with pytest.raises(CorruptHeader):
        LogStore.recover(path)


# -- resize ----------------------------------------------------------------------

def test_resize_preserves_entries_and_seqs(tmp_path):
    path = tmp_path / "rs.log"
    s = LogStore.create(path, "rs", 64, 32)
    for i in range(1, 6):
        s.append(f"v{i}".encode(), mid(i))
    s.resize(128)
    assert s.element_size == 128
    assert [e.payload for e in s.scan(1, 5).entries] == [f"v{i}".encode()
                                                         for i in range(1, 6)]
    assert s.append(b"y" * 100, mid(6)) == 6
    s.close()
    r = LogStore.recover(path)
    assert r.element_size == 128
    assert r.next_seq == 7
    r.close()


def test_resize_of_a_wrapped_log_keeps_every_live_record(tmp_path):
    path = tmp_path / "wrap.log"
    s = LogStore.create(path, "wrap", 16, 8)
    for i in range(1, 14):  # seqs 6..13 live, wrapped past slot 0
        s.append(bytes([i]) * (i % 7 + 1), mid(i), created_at_us=1_000 * i + 7)
    live = [(e.seq, e.payload, e.message_id, e.created_at_us)
            for e in s.scan(1, 13).entries]
    assert [row[0] for row in live] == list(range(6, 14))
    s.resize(40)
    s.close()
    r = LogStore.recover(path)
    assert (r.element_size, r.capacity, r.earliest_seq, r.next_seq) == (40, 8, 6, 14)
    assert [(e.seq, e.payload, e.message_id, e.created_at_us)
            for e in r.scan(1, 13).entries] == live
    assert [(e.seq, e.payload, e.message_id, e.created_at_us)
            for e in map(r.read, range(6, 14))] == live
    assert r.append(b"again", mid(9)) == 9  # a retried live id keeps its seq
    assert r.next_seq == 14
    r.close()


def test_resize_refuses_to_shrink_below_live_payload(tmp_path):
    s = LogStore.create(tmp_path / "shrink.log", "shrink", 64, 8)
    s.append(b"z" * 50, mid(1))
    with pytest.raises(InvalidLogConfig):
        s.resize(32)
    s.close()


# -- concurrency -----------------------------------------------------------------

def test_concurrent_appends_assign_gap_free_permutation(tmp_path):
    s = LogStore.create(tmp_path / "conc.log", "conc", 32, 4096)
    n_threads, per_thread = 8, 100
    results: dict[int, list[int]] = {}

    def worker(tid: int):
        seqs = []
        for i in range(per_thread):
            unique = tid * per_thread + i
            seqs.append(s.append(f"{tid}:{i}".encode(), mid(unique)))
        results[tid] = seqs

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_seqs = sorted(seq for seqs in results.values() for seq in seqs)
    assert all_seqs == list(range(1, n_threads * per_thread + 1))
    s.close()


def test_concurrent_duplicate_ids_get_one_seq(tmp_path):
    s = LogStore.create(tmp_path / "dups.log", "dups", 16, 1024)
    barrier = threading.Barrier(6)
    seen: list[int] = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        for i in range(50):
            seq = s.append(b"same", mid(i))
            with lock:
                seen.append(seq)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # 50 distinct message ids -> 50 distinct seqs, each repeated 6x
    assert sorted(set(seen)) == list(range(1, 51))
    assert len(seen) == 300
    s.close()


# -- registry ------------------------------------------------------------------------

def test_registry_create_get_and_unknown(tmp_path):
    reg = LogRegistry(tmp_path)
    reg.create("one", 8, 16)
    assert reg.exists("one")
    assert reg.get("one").element_size == 8
    with pytest.raises(UnknownLog):
        reg.get("missing")
    with pytest.raises(NameCollision):
        reg.create("one", 8, 16)
    reg.close_all()


def test_registry_reopens_from_disk(tmp_path):
    reg = LogRegistry(tmp_path)
    reg.create("persist", 16, 32).append(b"v", mid(1))
    reg.close_all()
    reg2 = LogRegistry(tmp_path)
    assert reg2.get("persist").read(1).payload == b"v"
    reg2.close_all()


def test_registry_rejects_path_tricks(tmp_path):
    reg = LogRegistry(tmp_path)
    with pytest.raises(InvalidLogConfig):
        reg.create("../escape", 8, 8)
