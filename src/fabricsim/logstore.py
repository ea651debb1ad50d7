"""Persistent append-only circular logs with atomic sequence assignment.

One file per log: a fixed 64-byte header followed by fixed-stride records.
Sequence numbers start at 1 and never repeat; slot layout is circular, so
appending past capacity evicts the oldest entry. Every record carries a
CRC32; a failed checksum on the newest record is treated as a torn write
and discarded on recovery, anywhere else it is corruption.

A bounded message-id dedup index (LRU) is persisted in a sidecar journal so
retried appends return the original sequence number instead of writing twice.

Durability: `append` hands the record, the header and the journal entry to
the operating system before it returns, so a log survives a process crash.
Nothing is fsynced unless `flush()` is called, so a power cut may lose the
most recent appends. Each reopen CRC-checks every record and every journal
entry, a whole run of slots at once wherever the header's layout holds.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, itemgetter
from pathlib import Path
from typing import NamedTuple

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
_HEADER = struct.Struct("<8sIIIIQQ")   # magic, version, element_size, capacity, reserved, next_seq, earliest_seq
_HEADER_CRC = struct.Struct("<I")
_RECORD_PREFIX = struct.Struct("<Q16sQI")  # seq, message_id, created_at_us, payload_len
_CRC = struct.Struct("<I")
RECORD_OVERHEAD = _RECORD_PREFIX.size + _CRC.size  # 40 bytes
_CRC_RESIDUE = 0x2144DF1C  # crc32(body + _CRC.pack(c)) is this iff c == crc32(body)

DEFAULT_DEDUP_LIMIT = 65_536
_DEDUP_ENTRY = struct.Struct("<16sQ")  # message_id, seq (crc32 appended)
_DEDUP_PAIRS = struct.Struct("<16sQ4x")  # message_id, seq
_DEDUP_STRIDE = _DEDUP_PAIRS.size
_DEDUP_SLOT = struct.Struct(f"{_DEDUP_STRIDE}s")  # one whole entry, crc32 included

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
                 next_seq: int, earliest_seq: int, dedup_limit: int):
        self.path = Path(path)
        self.name = name
        self.element_size = element_size
        self.capacity = capacity
        self._next_seq = next_seq
        self._earliest_seq = earliest_seq
        self._lock = threading.Lock()
        self._dedup_limit = dedup_limit
        self._dedup: OrderedDict[bytes, int] = OrderedDict()
        self._dedup_journal_entries = 0
        self._fd = os.open(self.path, os.O_RDWR)
        self._dedup_fd = os.open(self._dedup_path(), os.O_RDWR | os.O_CREAT, 0o644)
        self._closed = False
        self.torn_discarded = False
        self._recovered: tuple[int, list[int], list[bytes]] | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, path: str | os.PathLike, name: str, element_size: int,
               capacity: int, dedup_limit: int = DEFAULT_DEDUP_LIMIT) -> "LogStore":
        _check_name(name)
        if element_size < 1:
            raise InvalidLogConfig(f"element_size must be >= 1, got {element_size}")
        if capacity < 1:
            raise InvalidLogConfig(f"capacity must be >= 1, got {capacity}")
        path = Path(path)
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError as exc:
            raise NameCollision(f"log file already exists: {path}") from exc
        except OSError as exc:
            raise StorageFailure(str(exc)) from exc
        try:
            os.write(fd, _pack_header(element_size, capacity, 1, 1))
        finally:
            os.close(fd)
        return cls(path, name, element_size, capacity, 1, 1, dedup_limit)

    @classmethod
    def recover(cls, path: str | os.PathLike, name: str | None = None,
                dedup_limit: int = DEFAULT_DEDUP_LIMIT) -> "LogStore":
        """Reopen a persisted log, discarding a torn final record if present."""
        path = Path(path)
        if not path.exists():
            raise UnknownLog(f"no log file at {path}")
        name = name or path.stem
        element_size, capacity, hdr_next, area = _read_log(path)
        next_seq, earliest_seq, torn, live = _scan_live_range(path, area, element_size,
                                                              capacity, hdr_next)
        store = cls(path, name, element_size, capacity, next_seq, earliest_seq, dedup_limit)
        store.torn_discarded = torn
        store._load_dedup(list(zip(map(itemgetter(1), live), map(itemgetter(0), live))))
        if live:
            store._recovered = (earliest_seq, list(map(itemgetter(3), live)),
                                list(map(itemgetter(4), live)))
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

        The record, the header and the journal entry are written to the OS
        before this returns: the append survives a process crash, but not a
        power cut unless `flush()` is called afterwards.
        """
        if self._closed:
            raise StorageFailure(f"log {self.name!r} is closed")
        if len(message_id) != 16:
            raise InvalidLogConfig("message_id must be exactly 16 bytes")
        if len(payload) > self.element_size:
            raise PayloadTooLarge(
                f"payload {len(payload)} > element size {self.element_size}")
        with self._lock:
            prior = self._dedup.get(bytes(message_id))
            if prior is not None:
                self._dedup.move_to_end(bytes(message_id))
                return prior
            seq = self._next_seq
            try:
                os.pwrite(self._fd, self._record(seq, payload, message_id, created_at_us),
                          self._slot_offset(seq))
                self._next_seq = seq + 1
                if self._next_seq - self._earliest_seq > self.capacity:
                    self._earliest_seq = self._next_seq - self.capacity
                self._persist_header()
                self._dedup_remember(bytes(message_id), seq, persist=True)
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
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            old_size = self.element_size
            self.element_size = new_element_size
            try:
                with open(tmp, "wb") as f:
                    f.write(_pack_header(new_element_size, self.capacity,
                                         self._next_seq, self._earliest_seq))
                    for entry in live:
                        f.seek(self._slot_offset(entry.seq))
                        f.write(self._record(entry.seq, entry.payload, entry.message_id,
                                             entry.created_at_us))
                os.replace(tmp, self.path)
                os.close(self._fd)
                self._fd = os.open(self.path, os.O_RDWR)
            except OSError as exc:
                self.element_size = old_size
                raise StorageFailure(str(exc)) from exc

    def take_recovered(self) -> tuple[int, list[bytes]] | None:
        """Hand over, once, (first seq, payloads in seq order) of the records
        the reopen validated; None afterwards, after close or if none."""
        if self._recovered is None:
            return None
        (first_seq, lengths, padded), self._recovered = self._recovered, None
        return first_seq, list(map(getitem, padded, map(slice, lengths)))

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
            self._persist_header()
        os.close(self._fd)
        os.close(self._dedup_fd)
        self._closed = True
        self._dedup.clear()
        self._recovered = None

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
            for i, rec in _decode_slots(raw, element_size, range(seq, seq + run)):
                if rec is not None and rec[0] == seq + i:
                    entries.append(LogEntry(rec[0], rec[4][:rec[3]], rec[1], rec[2]))
            seq += run
        return entries

    def _persist_header(self) -> None:
        os.pwrite(self._fd,
                  _pack_header(self.element_size, self.capacity,
                               self._next_seq, self._earliest_seq), 0)

    # -- dedup index --------------------------------------------------------

    def _dedup_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".dedup")

    def _dedup_remember(self, message_id: bytes, seq: int, persist: bool) -> None:
        if message_id in self._dedup:
            self._dedup.move_to_end(message_id)
            return
        self._dedup[message_id] = seq
        while len(self._dedup) > self._dedup_limit:
            self._dedup.popitem(last=False)
        if persist:
            os.write(self._dedup_fd, _pack_dedup_entry(message_id, seq))
            self._dedup_journal_entries += 1
            if self._dedup_journal_entries > max(4 * self._dedup_limit, 1024):
                self._compact_dedup()

    def _compact_dedup(self) -> None:
        tmp = self._dedup_path().with_suffix(".dedup.tmp")
        with open(tmp, "wb") as f:
            f.write(b"".join(_pack_dedup_entry(mid, seq) for mid, seq in self._dedup.items()))
        os.replace(tmp, self._dedup_path())
        os.close(self._dedup_fd)
        self._dedup_fd = os.open(self._dedup_path(), os.O_RDWR)
        os.lseek(self._dedup_fd, 0, os.SEEK_END)
        self._dedup_journal_entries = len(self._dedup)

    def _load_dedup(self, live: list[tuple[bytes, int]]) -> None:
        """Rebuild the index from the journal, then from the live records'
        (message_id, seq) pairs, which are ground truth for the ids they
        still hold; cut any torn journal tail. Each entry's CRC is checked
        by one crc32 call over the whole entry (see _CRC_RESIDUE)."""
        raw = os.pread(self._dedup_fd, os.fstat(self._dedup_fd).st_size, 0)
        view = memoryview(raw)[:len(raw) - len(raw) % _DEDUP_STRIDE]
        residues = list(map(zlib.crc32, map(itemgetter(0), _DEDUP_SLOT.iter_unpack(view))))
        count = residues.count(_CRC_RESIDUE)
        if count != len(residues):  # torn tail; ignore it and the rest
            count = next(i for i, r in enumerate(residues) if r != _CRC_RESIDUE)
        pairs = list(_DEDUP_PAIRS.iter_unpack(view[:count * _DEDUP_STRIDE]))
        index = OrderedDict(pairs)
        if (len(index) == count <= self._dedup_limit and len(live) <= count
                and pairs[count - len(live):] == live):
            # replaying distinct ids within the limit, then re-touching the
            # journal's own last entries in order, yields exactly this order
            self._dedup = index
        else:
            for mid, seq in pairs + live:
                self._dedup_remember(mid, seq, persist=False)
        self._dedup_journal_entries = count
        os.lseek(self._dedup_fd, count * _DEDUP_STRIDE, os.SEEK_SET)
        os.ftruncate(self._dedup_fd, count * _DEDUP_STRIDE)


# -- header / record codecs ------------------------------------------------

def _pack_header(element_size: int, capacity: int, next_seq: int, earliest_seq: int) -> bytes:
    body = _HEADER.pack(MAGIC, VERSION, element_size, capacity, 0, next_seq, earliest_seq)
    packed = body + _HEADER_CRC.pack(zlib.crc32(body))
    return packed.ljust(HEADER_SIZE, b"\x00")


def _pack_dedup_entry(message_id: bytes, seq: int) -> bytes:
    body = _DEDUP_ENTRY.pack(message_id, seq)
    return body + _CRC.pack(zlib.crc32(body))


def _read_log(path: Path) -> tuple[int, int, int, bytes]:
    """(element_size, capacity, next_seq, slot area) of a log whose header checks out."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StorageFailure(str(exc)) from exc
    if len(raw) < HEADER_SIZE:
        raise CorruptHeader(f"{path}: short header ({len(raw)} bytes)")
    body = raw[:_HEADER.size]
    (crc,) = _HEADER_CRC.unpack_from(raw, _HEADER.size)
    if crc != zlib.crc32(body):
        raise CorruptHeader(f"{path}: header checksum mismatch")
    magic, version, element_size, capacity, _, next_seq, _ = _HEADER.unpack(body)
    if magic != MAGIC:
        raise CorruptHeader(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptHeader(f"{path}: unsupported version {version}")
    if element_size < 1 or capacity < 1:
        raise CorruptHeader(f"{path}: nonsensical header geometry")
    stride = RECORD_OVERHEAD + element_size
    return element_size, capacity, next_seq, raw[HEADER_SIZE:HEADER_SIZE + capacity * stride]


@lru_cache(maxsize=64)
def _record_structs(element_size: int) -> tuple[struct.Struct, struct.Struct]:
    """The record decoder for one element size, (seq, message_id,
    created_at_us, payload_len, padded payload), and the whole-slot one."""
    stride = RECORD_OVERHEAD + element_size
    return struct.Struct(f"<Q16sQI{element_size}s4x"), struct.Struct(f"{stride}s")


def _decode_slots(raw: bytes, element_size: int, seqs: Sequence[int]
                  ) -> Iterator[tuple[int, tuple | None]]:
    """Iterate (index, record) over each non-blank slot of a run of slots
    whose leading slots should hold `seqs`, in order, and the rest nothing.

    record is the unpacked (seq, message_id, created_at_us, payload_len,
    padded payload) tuple, or None when the slot is not all zero yet has
    seq 0, or has a payload_len over the element size or a bad CRC; a short
    final slot counts as one that fails these checks. The whole run is
    checked first, with one crc32 per slot (it is _CRC_RESIDUE exactly when
    the stored CRC is right); only a run that differs is classified slot by
    slot."""
    record, slot = _record_structs(element_size)
    stride = record.size
    used = len(seqs) * stride
    if len(raw) >= used:
        view = memoryview(raw)[:used]
        records = list(record.iter_unpack(view))
        if (list(map(itemgetter(0), records)) == list(seqs)
                and max(map(itemgetter(3), records), default=0) <= element_size
                and raw.count(0, used) == len(raw) - used
                and list(map(zlib.crc32, map(itemgetter(0), slot.iter_unpack(view)))
                         ).count(_CRC_RESIDUE) == len(records)):
            return enumerate(records)

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
                     header_next: int) -> tuple[int, int, bool, list[tuple]]:
    """Reconstruct (next_seq, earliest_seq, torn_discarded, live) from the
    records, where live holds every retained record in seq order.

    The header's counters may be stale after a crash; records are the truth,
    and the header only proposes the layout they are checked against first.
    Exactly one invalid non-blank slot is tolerated, and only if it is where
    the next append would have landed (a torn final write).
    """
    live: list[tuple] = []   # valid records
    bad_slots: list[int] = []
    # slots before the one the header's next append lands in hold the newest
    wrap = (header_next - 1) % capacity
    layout = [*range(header_next - wrap, header_next),
              *range(max(header_next - capacity, 1), header_next - wrap)]
    for slot, rec in _decode_slots(area, element_size, layout):
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
        return nxt, nxt, bool(bad_slots), []
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
    return next_seq, earliest, bool(bad_slots), live


class LogRegistry:
    """Per-node namespace of logs rooted at one directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: dict[str, LogStore] = {}

    def path_for(self, name: str) -> Path:
        _check_name(name)
        return self.root / f"{name}.log"

    def create(self, name: str, element_size: int, capacity: int) -> LogStore:
        if name in self._open:
            raise NameCollision(f"log {name!r} already open on this node")
        store = LogStore.create(self.path_for(name), name, element_size, capacity)
        self._open[name] = store
        return store

    def exists(self, name: str) -> bool:
        return name in self._open or self.path_for(name).exists()

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
        on_disk = {p.stem for p in self.root.glob("*.log")}
        return sorted(on_disk | set(self._open))

    def close_all(self) -> None:
        for store in self._open.values():
            store.close()
        self._open.clear()
