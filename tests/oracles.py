"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's code paths: exact permutation tests
enumerate every split of the pooled sample, statistics are recomputed
from first principles, the detector's three tests go through `scipy.stats`,
log recovery re-reads the on-disk format one record at a time, and frame
decoding reads one field at a time.
"""

import collections
import itertools
import struct
import zlib

import numpy as np
from scipy import stats

from fabricsim import framing
from fabricsim.errors import FrameError


def welch_t_stat(x, y):
    nx, ny = len(x), len(y)
    vx, vy = np.var(x, ddof=1), np.var(y, ddof=1)
    denom = np.sqrt(vx / nx + vy / ny)
    if denom == 0:
        return 0.0 if np.mean(x) == np.mean(y) else np.inf
    return abs(np.mean(x) - np.mean(y)) / denom


def mwu_stat(x, y):
    """Distance of the rank-sum U from its null mean (two-sided)."""
    u = sum(1 for xi in x for yi in y if xi > yi)
    u += 0.5 * sum(1 for xi in x for yi in y if xi == yi)
    return abs(u - len(x) * len(y) / 2)


def ks_stat(x, y):
    pooled = np.sort(np.concatenate([x, y]))
    xs, ys = np.sort(x), np.sort(y)
    fx = np.searchsorted(xs, pooled, side="right") / len(x)
    fy = np.searchsorted(ys, pooled, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def permutation_pvalue(x, y, statistic):
    """Exact two-sample permutation p-value: enumerate all label splits."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    n = len(x)
    total_idx = set(range(len(pooled)))
    observed = statistic(x, y)
    hits = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        xs = pooled[list(combo)]
        ys = pooled[list(sorted(total_idx - set(combo)))]
        if statistic(xs, ys) >= observed - 1e-12:
            hits += 1
        total += 1
    return hits / total


ORACLE_STATISTICS = {
    "welch_t": welch_t_stat,
    "mann_whitney_u": mwu_stat,
    "ks_2samp": ks_stat,
}


def oracle_rejects(x, y, alpha=0.05):
    """Reject decisions per test from the permutation oracle."""
    return {name: permutation_pvalue(x, y, stat) < alpha
            for name, stat in ORACLE_STATISTICS.items()}


def reference_welch_t(x, y):
    """Welch's t-test through `scipy.stats`, with the detector's rule for
    two constant windows."""
    if np.var(x) == 0.0 and np.var(y) == 0.0:
        return (0.0, 1.0) if np.mean(x) == np.mean(y) else (np.inf, 0.0)
    res = stats.ttest_ind(x, y, equal_var=False)
    return float(res.statistic), float(res.pvalue)


def reference_mann_whitney_u(x, y):
    res = stats.mannwhitneyu(x, y, alternative="two-sided", method="auto")
    return float(res.statistic), float(res.pvalue)


def reference_ks_2samp(x, y):
    res = stats.ks_2samp(x, y, method="exact")
    return float(res.statistic), float(res.pvalue)


# -- log recovery ----------------------------------------------------------

_LOG_MAGIC = b"XGFLOG01"
_LOG_HEADER_SIZE = 64
_LOG_HEADER = struct.Struct("<8sIIIIQQ")
_RECORD_PREFIX = struct.Struct("<Q16sQI")
_JOURNAL_STRIDE = 28  # 16-byte id, u64 seq, u32 crc


def _reference_record(raw, element_size):
    """(seq, message_id) of one slot's record, or None if it fails a check."""
    stride = _RECORD_PREFIX.size + element_size + 4
    if len(raw) < stride:
        return None
    seq, message_id, _, payload_len = _RECORD_PREFIX.unpack(raw[:_RECORD_PREFIX.size])
    (crc,) = struct.unpack("<I", raw[stride - 4:stride])
    if seq == 0 or crc != zlib.crc32(raw[:stride - 4]) or payload_len > element_size:
        return None
    return seq, message_id


def reference_recover(log, journal, dedup_limit):
    """Reopen a log from its file and dedup-journal bytes, one slot and one
    journal entry at a time.

    Returns None where recovery must raise CorruptHeader, else a dict of
    next_seq, earliest_seq, torn_discarded, dedup (the (id, seq) pairs in
    LRU order), journal_entries and journal_bytes (the journal's length
    after its torn tail is cut).
    """
    if len(log) < _LOG_HEADER_SIZE:
        return None
    body = log[:_LOG_HEADER.size]
    (crc,) = struct.unpack_from("<I", log, _LOG_HEADER.size)
    magic, version, element_size, capacity, _, header_next, _ = _LOG_HEADER.unpack(body)
    if (crc != zlib.crc32(body) or magic != _LOG_MAGIC or version != 1
            or element_size < 1 or capacity < 1):
        return None
    stride = _RECORD_PREFIX.size + element_size + 4
    area = log[_LOG_HEADER_SIZE:_LOG_HEADER_SIZE + capacity * stride]
    live, bad = [], []
    for slot, off in enumerate(range(0, len(area), stride)):
        raw = area[off:off + stride]
        if raw.count(0) == len(raw):
            continue
        record = _reference_record(raw, element_size)
        if record is None or (record[0] - 1) % capacity != slot:
            bad.append(slot)
        else:
            live.append(record)
    live.sort()
    if not live:
        if len(bad) > 1 or (bad and bad[0] != 0):
            return None
        next_seq = earliest = max(header_next, 1)
    else:
        earliest, next_seq = live[0][0], live[-1][0] + 1
        if bad and (len(bad) > 1 or bad[0] != (next_seq - 1) % capacity):
            return None
        if next_seq - earliest != len(live):
            return None

    dedup = collections.OrderedDict()

    def remember(message_id, seq):
        if message_id in dedup:
            dedup.move_to_end(message_id)
            return
        dedup[message_id] = seq
        while len(dedup) > dedup_limit:
            dedup.popitem(last=False)

    count = 0
    for off in range(0, len(journal) - _JOURNAL_STRIDE + 1, _JOURNAL_STRIDE):
        message_id, seq, crc = struct.unpack("<16sQI", journal[off:off + _JOURNAL_STRIDE])
        if crc != zlib.crc32(journal[off:off + _JOURNAL_STRIDE - 4]):
            break
        remember(message_id, seq)
        count += 1
    for seq, message_id in live:
        remember(message_id, seq)
    return {"next_seq": next_seq, "earliest_seq": earliest, "torn_discarded": bool(bad),
            "dedup": list(dedup.items()), "journal_entries": count,
            "journal_bytes": count * _JOURNAL_STRIDE}


class _FieldReader:
    """Field-at-a-time cursor over a frame body."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise FrameError("truncated frame body")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def string(self):
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError("invalid UTF-8 in string field") from exc

    def blob(self):
        return self.take(self.u32())

    def done(self):
        if self.pos != len(self.buf):
            raise FrameError(f"{len(self.buf) - self.pos} trailing bytes in frame")


def reference_decode(frame):
    """Decode one wire frame by reading each field in turn; the same
    `FrameError` cases as `framing.decode`."""
    if len(frame) < 5:
        raise FrameError("frame shorter than header")
    (body_len,) = struct.unpack("<I", frame[:4])
    if body_len > framing.MAX_FRAME_BODY:
        raise FrameError(f"frame body {body_len} exceeds limit")
    if len(frame) != 4 + body_len:
        raise FrameError(f"frame length mismatch: header says {body_len}, "
                         f"got {len(frame) - 4}")
    r = _FieldReader(frame[4:])
    mtype = r.u8()
    if mtype == framing.TYPE_SIZE_REQUEST:
        msg = framing.SizeRequest(r.u64(), r.string())
    elif mtype == framing.TYPE_SIZE_REPLY:
        msg = framing.SizeReply(r.u64(), r.u8(), r.u32())
    elif mtype == framing.TYPE_APPEND_REQUEST:
        msg = framing.AppendRequest(r.u64(), r.string(), r.take(16), r.u32(), r.blob())
    elif mtype == framing.TYPE_APPEND_REPLY:
        msg = framing.AppendReply(r.u64(), r.u8(), r.u64())
    else:
        raise FrameError(f"unknown message type 0x{mtype:02x}")
    r.done()
    return msg
