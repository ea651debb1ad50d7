"""Windowed change detection: three two-sample tests plus majority voting.

Each duty cycle the most recent six telemetry values (30 minutes) are
compared against the previous six. Welch's t-test targets mean shifts,
Mann-Whitney U rank shifts, and the two-sample Kolmogorov-Smirnov test
distribution-shape changes; an alert is raised when at least two of the
three reject at the configured significance level. Each test is a direct
kernel on scipy.special that gives scipy.stats' statistic and p-value bit
for bit (the tests check this against scipy 1.17.1). Mann-Whitney is exact
without ties in the twelve values, else tie-corrected normal; KS is exact.
A NaN in either window gives (nan, nan) from all three tests.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidWindow
from .weather import CHANNELS, TelemetryRecord

WINDOW_LEN = 6
DUTY_CYCLE_S = 1800
DEFAULT_ALPHA = 0.05

TEST_NAMES = ("welch_t", "mann_whitney_u", "ks_2samp")

_ALERT_PREFIX = struct.Struct("<QBB")       # timestamp_us, vote, channel index
_ALERT_TEST = struct.Struct("<ddB")         # statistic, p_value, reject
ALERT_SIZE = _ALERT_PREFIX.size + 3 * _ALERT_TEST.size


@dataclass(frozen=True)
class StatTestResult:
    test_name: str
    statistic: float
    p_value: float
    reject: bool


@dataclass(frozen=True)
class Window:
    records: tuple[TelemetryRecord, ...]

    def __post_init__(self):
        if len(self.records) != WINDOW_LEN:
            raise InvalidWindow(f"window needs exactly {WINDOW_LEN} records, "
                                f"got {len(self.records)}")
        ts = [r.timestamp_us for r in self.records]
        gaps = {b - a for a, b in zip(ts, ts[1:])}
        if len(gaps) > 1 or (gaps and min(gaps) <= 0):
            raise InvalidWindow("window records are not evenly spaced")

    def start_us(self) -> int:
        return self.records[0].timestamp_us

    def end_us(self) -> int:
        return self.records[-1].timestamp_us

    def values(self, channel: str) -> np.ndarray:
        return np.array([r.value(channel) for r in self.records])


@dataclass(frozen=True)
class ChangeAlert:
    timestamp_us: int
    results: tuple[StatTestResult, StatTestResult, StatTestResult]
    vote: bool
    channel: str

    def pack(self) -> bytes:
        out = _ALERT_PREFIX.pack(self.timestamp_us, int(self.vote),
                                 CHANNELS.index(self.channel))
        for r in self.results:
            out += _ALERT_TEST.pack(r.statistic, r.p_value, int(r.reject))
        return out

    @classmethod
    def unpack(cls, raw: bytes) -> "ChangeAlert":
        ts, vote, channel_idx = _ALERT_PREFIX.unpack_from(raw)
        results = []
        for i, name in enumerate(TEST_NAMES):
            stat, p, reject = _ALERT_TEST.unpack_from(
                raw, _ALERT_PREFIX.size + i * _ALERT_TEST.size)
            results.append(StatTestResult(name, stat, p, bool(reject)))
        return cls(ts, tuple(results), bool(vote), CHANNELS[channel_idx])


def welch_t(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sided, in the order of operations of `ttest_ind(equal_var=False)`."""
    nx, ny = len(x), len(y)
    mx, my = np.mean(x), np.mean(y)
    vx = np.mean((x - mx) ** 2) * (nx / (nx - 1))
    vy = np.mean((y - my) ** 2) * (ny / (ny - 1))
    if vx == 0.0 and vy == 0.0:
        # degenerate: identical constants are indistinguishable, distinct
        # constants are maximally distinguishable
        return (0.0, 1.0) if mx == my else (np.inf, 0.0)
    vnx, vny = vx / nx, vy / ny
    df = (vnx + vny) ** 2 / (vnx ** 2 / (nx - 1) + vny ** 2 / (ny - 1))
    df = 1.0 if np.isnan(df) else df  # scipy's df when the squares overflow
    t = (mx - my) / np.sqrt(vnx + vny)
    return float(t), float(2 * special.stdtr(df, -np.abs(t)))


@functools.cache
def _mwu_exact_cdf(n1: int, n2: int) -> tuple[float, ...]:
    """Null CDF of U for n1 <= n2 without ties, as scipy builds it: the integer
    frequencies of U (the Gaussian binomial's coefficients) / binom, summed."""
    top = n1 * n2
    freq = [1] + [0] * top
    for i in range(1, n1 + 1):  # times (1 - q^(n2+i)) / (1 - q^i)
        for k in range(top, n2 + i - 1, -1):
            freq[k] -= freq[k - n2 - i]
        for k in range(i, top + 1):
            freq[k] += freq[k - i]
    return tuple(np.cumsum(np.divide(freq, special.binom(n1 + n2, n1))).tolist())


def mann_whitney_u(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """U of x, two-sided, as `mannwhitneyu(method="auto")`: exact without ties,
    else the tie-corrected normal with a 0.5 continuity correction."""
    xs, ys = x.tolist(), y.tolist()
    if any(v != v for v in xs + ys):  # NaN
        return math.nan, math.nan
    n1, n2, n = len(xs), len(ys), len(xs) + len(ys)
    u1 = sum((a > b) + 0.5 * (a == b) for a in xs for b in ys)  # R1 - n1(n1+1)/2
    u = max(u1, n1 * n2 - u1)
    ties = Counter(xs + ys).values()
    if len(ties) == n and min(n1, n2) <= 8:
        p = 2 * _mwu_exact_cdf(min(n1, n2), max(n1, n2))[n1 * n2 - int(u)]
    else:
        tie_term = sum(t ** 3 - t for t in ties)
        s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        z = (u - n1 * n2 / 2 - 0.5) / s if s else -math.inf  # s = 0: all tied
        p = 2 * special.ndtr(-z)
    return float(u1), float(min(p, 1.0))


def ks_2samp(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sided, as the exact `ks_2samp` for samples of one size n: the widest
    ECDF gap of h steps is reported as h/n, with scipy's Pr(D >= h/n)."""
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan, math.nan
    xs, ys, n = sorted(x.tolist()), sorted(y.tolist()), len(x)
    if len(ys) != n:
        raise InvalidWindow(f"ks_2samp needs equal sizes, got {n} and {len(ys)}")
    h = max(abs(bisect_right(xs, v) - bisect_right(ys, v)) for v in xs + ys)
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return h / n, min(2 * p, 1.0)


def majority_vote(rejects: tuple[bool, bool, bool]) -> bool:
    return sum(rejects) >= 2


def detect_change(current: Window, previous: Window, alpha: float = DEFAULT_ALPHA,
                  channel: str = "wind_speed") -> ChangeAlert:
    """Compare two non-overlapping windows on one channel; vote = majority."""
    if not (0.0 < alpha < 1.0):
        raise InvalidWindow(f"alpha must be in (0,1), got {alpha}")
    if previous.end_us() >= current.start_us():
        raise InvalidWindow("windows overlap or are out of order")
    x = current.values(channel)
    y = previous.values(channel)
    results = []
    for name, test in zip(TEST_NAMES, (welch_t, mann_whitney_u, ks_2samp)):
        statistic, p_value = test(x, y)
        results.append(StatTestResult(name, statistic, p_value, bool(p_value < alpha)))
    results = tuple(results)
    return ChangeAlert(current.end_us(), results,
                       majority_vote(tuple(r.reject for r in results)), channel)
