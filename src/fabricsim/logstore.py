"""Persistent append-only circular logs with atomic sequence assignment.

One file per log: a fixed 64-byte header followed by fixed-stride records.
Sequence numbers start at 1 and never repeat; slot layout is circular, so
appending past capacity evicts the oldest entry. Every record carries a
CRC32; a failed checksum on the newest record is treated as a torn write
and discarded on recovery, anywhere else it is corruption.

A bounded message-id dedup index (LRU, window the header's u32 after
capacity, 0 meaning DEFAULT_DEDUP_LIMIT) returns a retried append its
original seq. The records are the index for the ids they hold; a sidecar
journal keeps the ids whose records were evicted (none while the window is
at most the capacity), each written at eviction, before its slot is
overwritten, and compacted to the index's evicted ids past four windows.
A hit's LRU refresh lives in memory only; a reopen orders ids by landing.
With a window of 2, after A, X, a retry of A and B, a reopen forgets A: the
contract holds only while fewer than a window of other ids land between an
append's first and last attempt.

A reopen makes one crc32 per record and per journal entry and cuts a torn
journal tail. Records where the header's counters put them are checked as
columns (seq equals that layout, the largest payload_len fits, the rest is
zero), else slot by slot. The index is built on first use as the replay of
(journal ++ live (message_id, seq) columns), in one step if the ids are
distinct, else entry by entry.

Durability: `append` hands the eviction entry, the record and the header to
the operating system before it returns, so a log survives a process crash.
Nothing is fsynced unless `flush()` is called, so a power cut may lose the
latest appends and eviction entries. `resize` and compaction rename a `.tmp`
file over the old one, atomic under a process crash only (neither the file
nor its directory is fsynced); a reopen removes a leftover `.tmp` file.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptHeader,
    InvalidLogConfig,
    NameCollision,
    PayloadTooLarge,
    SeqEvicted,
    SeqNotAssigned,
    StorageFailure,
    UnknownLog,
)

MAGIC = b"XGFLOG01"
VERSION = 1
HEADER_SIZE = 64
_HEADER = struct.Struct("<8sIIIIQQ")   # magic, version, element_size, capacity, dedup window, next_seq, earliest_seq
_RECORD_PREFIX = struct.Struct("<Q16sQI")  # seq, message_id, created_at_us, payload_len
_CRC = struct.Struct("<I")
RECORD_OVERHEAD = _RECORD_PREFIX.size + _CRC.size  # 40 bytes
_CRC_RESIDUE = 0x2144DF1C  # crc32(body + _CRC.pack(c)) is this iff c == crc32(body)

DEFAULT_DEDUP_LIMIT = 65_536
_DEDUP_ENTRY = struct.Struct("<16sQ")  # message_id, seq (crc32 appended)
_DEDUP_PAIRS = struct.Struct("<16sQ4x")  # message_id, seq
_DEDUP_STRIDE = _DEDUP_PAIRS.size
_EVICTED = struct.Struct("<Q16s")  # a record's seq and message_id

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]{1,128}")


class LogEntry(NamedTuple):
    seq: int
    payload: bytes
    message_id: bytes
    created_at_us: int


@dataclass(frozen=True)
class ScanResult:
    """Contiguous entries plus an explicit marker for evicted prefixes."""

    entries: list[LogEntry]
    truncated: bool
    first_available: int | None


def _check_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name):
        raise InvalidLogConfig(f"bad log name {name!r}")
    return name


class LogStore:
    """A single on-disk log. Thread safe; only appends serialize."""

    def __init__(self, path: Path, name: str, element_size: int, capacity: int,
                 next_seq: int, earliest_seq: int, dedup_limit: int, header: bytes):
        self.path = path
        self.name = name
        self.element_size = element_size
        self.capacity = capacity
        self._next_seq = next_seq
        self._earliest_seq = earliest_seq
        self._lock = threading.Lock()
        self._dedup_limit = dedup_limit
        self._dedup: OrderedDict[bytes, int] = OrderedDict()
        self._pending: tuple[bytes, np.ndarray] | None = None  # what _index builds from
        self._dedup_journal_entries = 0
        self._fd = os.open(self.path, os.O_RDWR)
        self._dedup_file = f"{path}.dedup"
        self._dedup_fd = os.open(self._dedup_file, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._closed = False
        self.torn_discarded = False
        self._recovered: tuple[int, np.ndarray] | None = None
        self._header_on_disk = header  # as last written or read: close skips it

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, path: str | os.PathLike, name: str, element_size: int,
               capacity: int, dedup_limit: int = DEFAULT_DEDUP_LIMIT) -> "LogStore":
        """Create a log whose header keeps its dedup window for every reopen."""
        _check_name(name)
        if element_size < 1:
            raise InvalidLogConfig(f"element_size must be >= 1, got {element_size}")
        if capacity < 1:
            raise InvalidLogConfig(f"capacity must be >= 1, got {capacity}")
        if not 1 <= dedup_limit < 2**32:
            raise InvalidLogConfig(f"dedup_limit must be a u32 >= 1, got {dedup_limit}")
        path = Path(path)
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError as exc:
            raise NameCollision(f"log file already exists: {path}") from exc
        except OSError as exc:
            raise StorageFailure(str(exc)) from exc
        header = _pack_header(element_size, capacity, 1, 1, dedup_limit)
        try:
            os.write(fd, header)
        finally:
            os.close(fd)
        return cls(path, name, element_size, capacity, 1, 1, dedup_limit, header)

    @classmethod
    def recover(cls, path: str | os.PathLike, name: str | None = None) -> "LogStore":
        """Reopen a persisted log, discarding a torn final record if present
        and any `.tmp` file that a crash mid-`resize` or mid-compaction left."""
        path = Path(path)
        element_size, capacity, hdr_next, dedup_limit, header, area = _read_log(path)
        for target in (path, f"{path}.dedup"):  # what _replace_file may leave
            with suppress(FileNotFoundError):
                os.unlink(f"{target}.tmp")
        next_seq, earliest_seq, torn, live = _scan_live_range(path, area, element_size,
                                                              capacity, hdr_next)
        store = cls(path, name or path.stem, element_size, capacity, next_seq,
                    earliest_seq, dedup_limit, header)  # which may lag the records
        store.torn_discarded = torn
        store._pending = (store._read_journal(), live)
        if len(live):
            store._recovered = (earliest_seq, live)
        return store

    # -- public surface ---------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def earliest_seq(self) -> int:
        return self._earliest_seq

    def __len__(self) -> int:
        with self._lock:
            return self._next_seq - self._earliest_seq

    def append(self, payload: bytes, message_id: bytes, created_at_us: int = 0) -> int:
        """Append; returns the assigned (or original, on dedup) seq.

        The evicted id's journal entry (if any), the record and the header
        are written to the OS before this returns: the append survives a
        process crash, but not a power cut unless `flush()` is called.
        """
        if self._closed:
            raise StorageFailure(f"log {self.name!r} is closed")
        if len(message_id) != 16:
            raise InvalidLogConfig("message_id must be exactly 16 bytes")
        if len(payload) > self.element_size:
            raise PayloadTooLarge(
                f"payload {len(payload)} > element size {self.element_size}")
        with self._lock:
            index = self._index()
            prior = index.get(bytes(message_id))
            if prior is not None:
                index.move_to_end(bytes(message_id))
                return prior
            seq, offset = self._next_seq, self._slot_offset(self._next_seq)
            try:
                if seq - self._earliest_seq >= self.capacity < self._dedup_limit:
                    # the window outlives the record it overwrites: journal its id first
                    old_seq, old_id = _EVICTED.unpack(os.pread(self._fd, _EVICTED.size, offset))
                    os.write(self._dedup_fd, _pack_dedup_entry(old_id, old_seq))
                    self._dedup_journal_entries += 1
                os.pwrite(self._fd, self._record(seq, payload, message_id, created_at_us),
                          offset)
                self._next_seq = seq + 1
                if self._next_seq - self._earliest_seq > self.capacity:
                    self._earliest_seq = self._next_seq - self.capacity
                self._persist_header()
                self._dedup_remember(bytes(message_id), seq)
                if self._dedup_journal_entries > 4 * self._dedup_limit:
                    self._compact_dedup()
            except OSError as exc:
                raise StorageFailure(str(exc)) from exc
            return seq

    def read(self, seq: int) -> LogEntry:
        with self._lock:
            earliest, nxt = self._earliest_seq, self._next_seq
        if seq >= nxt:
            raise SeqNotAssigned(f"seq {seq} not assigned yet (next is {nxt})")
        if seq < earliest:
            raise SeqEvicted(f"seq {seq} evicted (earliest retained is {earliest})")
        entries = self._entries(seq, seq)
        if not entries:
            # slot was overwritten by a concurrent append racing this read
            raise SeqEvicted(f"seq {seq} evicted concurrently")
        return entries[0]

    def scan(self, lo: int, hi: int) -> ScanResult:
        """Entries with lo <= seq <= hi, in order; evicted prefix is marked."""
        if lo > hi:
            return ScanResult([], False, None)
        with self._lock:
            earliest, nxt = self._earliest_seq, self._next_seq
        truncated = lo < earliest
        entries = self._entries(max(lo, earliest), min(hi, nxt - 1))
        first_available = earliest if truncated and nxt > earliest else None
        return ScanResult(entries, truncated, first_available)

    def resize(self, new_element_size: int) -> None:
        """Change the element size in place; all live payloads must still fit.

        Invalidates any client-side size caches by construction: remote
        appends that declare the old size are rejected with a size mismatch.
        """
        if new_element_size < 1:
            raise InvalidLogConfig("element_size must be >= 1")
        with self._lock:
            live = self._entries(self._earliest_seq, self._next_seq - 1)
            for entry in live:
                if len(entry.payload) > new_element_size:
                    raise InvalidLogConfig(
                        f"live entry seq {entry.seq} has {len(entry.payload)} bytes; "
                        f"cannot shrink element size to {new_element_size}")
            old_size = self.element_size
            self.element_size = new_element_size
            records = {self._slot_offset(entry.seq): self._record(*entry) for entry in live}
            image = bytearray(self._header())
            for offset in sorted(records):  # slot order, never-written slots zero
                image += bytes(offset - len(image)) + records[offset]
            try:
                _replace_file(self.path, image)
                os.close(self._fd)
                self._fd = os.open(self.path, os.O_RDWR)
                self._header_on_disk = bytes(image[:HEADER_SIZE])
            except OSError as exc:
                self.element_size = old_size
                raise StorageFailure(str(exc)) from exc

    def take_recovered(self) -> tuple[int, list[bytes]] | None:
        """Hand over, once, (first seq, payloads in seq order) of the records
        the reopen validated; None afterwards, after close or if none."""
        if self._recovered is None:
            return None
        (first_seq, live), self._recovered = self._recovered, None
        return first_seq, list(map(getitem, live["payload"].tolist(),
                                   map(slice, live["payload_len"].tolist())))

    def flush(self) -> None:
        try:
            os.fsync(self._fd)
            os.fsync(self._dedup_fd)
        except OSError as exc:
            raise StorageFailure(str(exc)) from exc

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            if self._header() != self._header_on_disk:
                self._persist_header()
        os.close(self._fd)
        os.close(self._dedup_fd)
        self._closed = True
        self._dedup.clear()
        self._pending = self._recovered = None

    # -- on-disk layout ----------------------------------------------------

    def _slot_offset(self, seq: int) -> int:
        stride = RECORD_OVERHEAD + self.element_size
        return HEADER_SIZE + ((seq - 1) % self.capacity) * stride

    def _record(self, seq: int, payload: bytes, message_id: bytes,
                created_at_us: int) -> bytes:
        padded = payload.ljust(self.element_size, b"\x00")
        body = _RECORD_PREFIX.pack(seq, bytes(message_id), created_at_us, len(payload)) + padded
        return body + _CRC.pack(zlib.crc32(body))

    def _entries(self, seq: int, hi: int) -> list[LogEntry]:
        """Retained entries seq..hi, one `pread` per contiguous run of slots;
        a slot holding another seq or failing its checks is skipped."""
        element_size = self.element_size
        stride = RECORD_OVERHEAD + element_size
        entries = []
        while seq <= hi:  # at most two runs: up to the wrap point, then after it
            if self._closed:  # its fd numbers may already belong to another file
                raise StorageFailure(f"log {self.name!r} is closed")
            slot = (seq - 1) % self.capacity
            run = min(hi - seq + 1, self.capacity - slot)
            raw = os.pread(self._fd, run * stride, HEADER_SIZE + slot * stride)
            for i, rec in _decode_slots(raw, element_size):
                if rec is not None and rec[0] == seq + i:
                    entries.append(LogEntry(rec[0], rec[4][:rec[3]], rec[1], rec[2]))
            seq += run
        return entries

    def _header(self) -> bytes:
        return _pack_header(self.element_size, self.capacity, self._next_seq,
                            self._earliest_seq, self._dedup_limit)

    def _persist_header(self) -> None:
        header = self._header()
        os.pwrite(self._fd, header, 0)
        self._header_on_disk = header

    # -- dedup index --------------------------------------------------------

    def _index(self) -> OrderedDict[bytes, int]:
        """The dedup index. After a reopen it is built here, on first use:
        the replay of (journal ++ live columns), which for distinct ids is
        their newest window in order."""
        if self._pending is not None:
            journal, live = self._pending
            self._pending = None
            pairs = list(_DEDUP_PAIRS.iter_unpack(journal))
            pairs += zip(live["message_id"].tolist(), live["seq"].tolist())
            self._dedup = OrderedDict(pairs)
            if len(self._dedup) < len(pairs):  # an id repeats: replay as an LRU would
                self._dedup = OrderedDict()
                for mid, seq in pairs:
                    self._dedup_remember(mid, seq)
            elif len(pairs) > self._dedup_limit:
                self._dedup = OrderedDict(pairs[-self._dedup_limit:])
        return self._dedup

    def _dedup_remember(self, message_id: bytes, seq: int) -> None:
        if message_id in self._dedup:
            self._dedup.move_to_end(message_id)
            return
        self._dedup[message_id] = seq
        if len(self._dedup) > self._dedup_limit:
            self._dedup.popitem(last=False)

    def _compact_dedup(self) -> None:
        """Rewrite the journal as the index's ids whose records were evicted."""
        evicted = [(mid, seq) for mid, seq in self._index().items() if seq < self._earliest_seq]
        _replace_file(self._dedup_file, b"".join(_pack_dedup_entry(*e) for e in evicted))
        os.close(self._dedup_fd)
        self._dedup_fd = os.open(self._dedup_file, os.O_RDWR | os.O_APPEND)
        self._dedup_journal_entries = len(evicted)

    def _read_journal(self) -> bytes:
        """The journal's entries before the first whose CRC fails (one
        crc32 over the whole entry, see _CRC_RESIDUE); that torn tail is cut."""
        raw = os.pread(self._dedup_fd, os.fstat(self._dedup_fd).st_size, 0)
        entries = np.frombuffer(raw, f"V{_DEDUP_STRIDE}", len(raw) // _DEDUP_STRIDE)
        count = next((i for i, residue in enumerate(map(zlib.crc32, entries))
                      if residue != _CRC_RESIDUE), len(entries))
        self._dedup_journal_entries = count
        if count * _DEDUP_STRIDE != len(raw):
            os.ftruncate(self._dedup_fd, count * _DEDUP_STRIDE)
        return raw[:count * _DEDUP_STRIDE]


# -- header / record codecs ------------------------------------------------

def _pack_header(element_size: int, capacity: int, next_seq: int, earliest_seq: int,
                 dedup_limit: int) -> bytes:
    window = 0 if dedup_limit == DEFAULT_DEDUP_LIMIT else dedup_limit
    body = _HEADER.pack(MAGIC, VERSION, element_size, capacity, window, next_seq, earliest_seq)
    packed = body + _CRC.pack(zlib.crc32(body))
    return packed.ljust(HEADER_SIZE, b"\x00")


def _pack_dedup_entry(message_id: bytes, seq: int) -> bytes:
    body = _DEDUP_ENTRY.pack(message_id, seq)
    return body + _CRC.pack(zlib.crc32(body))


def _replace_file(path: Path, data: bytes) -> None:
    """Write data to a `.tmp` sibling, then rename it over path."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _read_log(path: Path) -> tuple[int, int, int, int, bytes, bytes]:
    """(element_size, capacity, next_seq, dedup_limit, header, slot area) of
    a log whose header checks out."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            raw = os.read(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
    except FileNotFoundError as exc:
        raise UnknownLog(f"no log file at {path}") from exc
    except OSError as exc:
        raise StorageFailure(str(exc)) from exc
    if len(raw) < HEADER_SIZE:
        raise CorruptHeader(f"{path}: short header ({len(raw)} bytes)")
    body = raw[:_HEADER.size]
    (crc,) = _CRC.unpack_from(raw, _HEADER.size)
    if crc != zlib.crc32(body):
        raise CorruptHeader(f"{path}: header checksum mismatch")
    magic, version, element_size, capacity, window, next_seq, _ = _HEADER.unpack(body)
    if magic != MAGIC:
        raise CorruptHeader(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptHeader(f"{path}: unsupported version {version}")
    if element_size < 1 or capacity < 1:
        raise CorruptHeader(f"{path}: nonsensical header geometry")
    stride = RECORD_OVERHEAD + element_size
    return (element_size, capacity, next_seq, window or DEFAULT_DEDUP_LIMIT,
            raw[:HEADER_SIZE], raw[HEADER_SIZE:HEADER_SIZE + capacity * stride])


@lru_cache(maxsize=64)
def _record_structs(element_size: int) -> tuple[struct.Struct, struct.Struct, np.dtype]:
    """The record decoder for one element size, (seq, message_id,
    created_at_us, payload_len, padded payload), the whole-slot one, and
    the same five fields as the columns of a slot array."""
    stride = RECORD_OVERHEAD + element_size
    columns = np.dtype({"names": ["seq", "message_id", "created_at_us", "payload_len", "payload"],
                        "formats": ["<u8", "V16", "<u8", "<u4", f"V{element_size}"],
                        "offsets": [0, 8, 24, 32, 36], "itemsize": stride})
    return struct.Struct(f"<Q16sQI{element_size}s4x"), struct.Struct(f"{stride}s"), columns


def _decode_slots(raw: bytes, element_size: int, layout: np.ndarray | None = None
                  ) -> np.ndarray | Iterator[tuple[int, tuple | None]]:
    """Iterate (index, record) over each non-blank slot of a run of slots.

    record is the unpacked (seq, message_id, created_at_us, payload_len,
    padded payload) tuple, or None when the slot is not all zero yet has
    seq 0, or has a payload_len over the element size or a bad CRC (one
    crc32 over the slot is _CRC_RESIDUE exactly when its CRC is right); a
    short final slot fails these checks. Given the layout, the seqs its
    leading slots should hold (the rest blank), a whole run that passes the
    same checks as columns of a zero-copy view is returned as that view."""
    record, slot, columns = _record_structs(element_size)
    stride = record.size
    if layout is not None and len(raw) >= len(layout) * stride:
        view = np.frombuffer(raw, columns, len(layout))
        if (np.array_equal(view["seq"], layout)
                and view["payload_len"].max(initial=0) <= element_size
                and raw.count(0, view.nbytes) == len(raw) - view.nbytes
                and list(map(zlib.crc32, view.view(f"V{stride}"))
                         ).count(_CRC_RESIDUE) == len(view)):
            return view

    def per_slot():
        whole = len(raw) - len(raw) % stride
        view = memoryview(raw)[:whole]
        crcs = map(zlib.crc32, map(itemgetter(0), slot.iter_unpack(view)))
        for index, (rec, crc) in enumerate(zip(record.iter_unpack(view), crcs)):
            if rec[0] == 0:  # blank unless any byte is set
                if raw.count(0, index * stride, (index + 1) * stride) != stride:
                    yield index, None
            elif rec[3] > element_size or crc != _CRC_RESIDUE:
                yield index, None
            else:
                yield index, rec
        if raw.count(0, whole) != len(raw) - whole:
            yield whole // stride, None
    return per_slot()


def _scan_live_range(path: Path, area: bytes, element_size: int, capacity: int,
                     header_next: int) -> tuple[int, int, bool, np.ndarray]:
    """Reconstruct (next_seq, earliest_seq, torn_discarded, live) from the
    records, where live holds every retained record's columns in seq order.

    The header's counters may be stale after a crash; records are the truth,
    and the header only proposes the layout they are checked against first.
    Exactly one invalid non-blank slot is tolerated, and only if it is where
    the next append would have landed (a torn final write).
    """
    earliest = max(header_next - capacity, 1)
    seqs = np.arange(earliest, max(header_next, earliest), dtype=np.uint64)
    slots = (np.arange(len(seqs)) + (earliest - 1) % capacity) % capacity
    layout = np.empty_like(seqs)  # the seq each slot holds if the header is right
    layout[slots] = seqs
    decoded = _decode_slots(area, element_size, layout)
    if isinstance(decoded, np.ndarray):
        return max(header_next, 1), earliest, False, decoded.take(slots)
    live: list[tuple] = []   # valid records
    bad_slots: list[int] = []
    for slot, rec in decoded:
        if rec is None or (rec[0] - 1) % capacity != slot:
            bad_slots.append(slot)
        else:
            live.append(rec)
    if not live:
        if len(bad_slots) > 1:
            raise CorruptHeader(f"{path}: multiple corrupt records")
        if bad_slots and bad_slots[0] != 0:
            raise CorruptHeader(f"{path}: corrupt record in slot {bad_slots[0]}")
        nxt = max(header_next, 1)
        return nxt, nxt, bool(bad_slots), np.array(live, _record_structs(element_size)[2])
    live.sort(key=itemgetter(0))
    earliest, max_seq = live[0][0], live[-1][0]
    next_seq = max_seq + 1
    if bad_slots:
        torn_slot = (next_seq - 1) % capacity
        if len(bad_slots) > 1 or bad_slots[0] != torn_slot:
            raise CorruptHeader(f"{path}: corrupt records beyond the torn tail "
                                f"(slots {bad_slots})")
    if max_seq - earliest + 1 != len(live):
        raise CorruptHeader(f"{path}: live sequence range has gaps")
    return next_seq, earliest, bool(bad_slots), np.array(live, _record_structs(element_size)[2])


class LogRegistry:
    """Per-node namespace of logs rooted at one directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: dict[str, LogStore] = {}

    def path_for(self, name: str) -> Path:
        _check_name(name)
        return self.root / f"{name}.log"

    def create(self, name: str, element_size: int, capacity: int,
               dedup_limit: int = DEFAULT_DEDUP_LIMIT) -> LogStore:
        if name in self._open:
            raise NameCollision(f"log {name!r} already open on this node")
        store = LogStore.create(self.path_for(name), name, element_size, capacity, dedup_limit)
        self._open[name] = store
        return store

    def exists(self, name: str) -> bool:
        """False also for a name no log can have, as a wire request may carry."""
        return name in self._open or (
            _NAME_RE.fullmatch(name) is not None and self.path_for(name).exists())

    def get(self, name: str) -> LogStore:
        store = self._open.get(name)
        if store is None:
            path = self.path_for(name)
            if not path.exists():
                raise UnknownLog(f"no log named {name!r}")
            store = LogStore.recover(path, name)
            self._open[name] = store
        return store

    def names(self) -> list[str]:
        on_disk = {f[:-4] for f in os.listdir(self.root) if f.endswith(".log")}
        return sorted(on_disk | set(self._open))

    def close_all(self) -> None:
        for store in self._open.values():
            store.close()
        self._open.clear()
