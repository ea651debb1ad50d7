import itertools
import math

import numpy as np
import pytest
from scipy import stats

from fabricsim.detect import (
    ChangeAlert,
    Window,
    detect_change,
    ks_2samp,
    majority_vote,
    mann_whitney_u,
    welch_t,
)
from fabricsim.errors import InvalidWindow
from fabricsim.weather import TelemetryRecord

from .oracles import (
    oracle_rejects,
    permutation_pvalue,
    reference_ks_2samp,
    reference_mann_whitney_u,
    reference_welch_t,
    welch_t_stat,
)

KERNELS = ((welch_t, reference_welch_t),
           (mann_whitney_u, reference_mann_whitney_u),
           (ks_2samp, reference_ks_2samp))


def make_window(values, start_s=300):
    records = tuple(
        TelemetryRecord((start_s + 300 * i) * 1_000_000, float(v), 180.0, 22.0,
                        50.0, "s1")
        for i, v in enumerate(values))
    return Window(records)


def window_pair(prev_values, cur_values):
    prev = make_window(prev_values, start_s=300)
    cur = make_window(cur_values, start_s=300 + 6 * 300)
    return cur, prev


# -- window validation --------------------------------------------------------

def test_window_requires_exactly_six_records():
    with pytest.raises(InvalidWindow):
        make_window([1, 2, 3])


def test_window_requires_even_spacing():
    records = list(make_window([1, 2, 3, 4, 5, 6]).records)
    bad = records[:5] + [TelemetryRecord(records[5].timestamp_us + 17,
                                         1.0, 180.0, 22.0, 50.0, "s1")]
    with pytest.raises(InvalidWindow):
        Window(tuple(bad))


def test_overlapping_windows_rejected():
    w = make_window([1, 2, 3, 4, 5, 6])
    with pytest.raises(InvalidWindow):
        detect_change(w, w)


# -- voting ----------------------------------------------------------------------

def test_vote_truth_table_majority():
    # exhaustive over all 8 combinations
    for combo in itertools.product((False, True), repeat=3):
        assert majority_vote(combo) == (sum(combo) >= 2)


# -- detect_change -----------------------------------------------------------------

def test_identical_windows_do_not_alert():
    values = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0]
    cur, prev = window_pair(values, values)
    alert = detect_change(cur, prev)
    assert alert.vote is False
    for result in alert.results:
        assert result.p_value == pytest.approx(1.0, abs=1e-9)
        assert not result.reject


def test_clearly_shifted_windows_alert():
    rng = np.random.default_rng(5)
    cur, prev = window_pair(rng.normal(2.0, 0.1, 6), rng.normal(6.0, 0.1, 6))
    alert = detect_change(cur, prev)
    assert alert.vote is True
    assert all(r.reject for r in alert.results)


def test_shifted_windows_p_values_match_permutation_oracle():
    rng = np.random.default_rng(6)
    prev_vals = rng.normal(2.0, 0.1, 6)
    cur_vals = rng.normal(6.0, 0.1, 6)
    cur, prev = window_pair(prev_vals, cur_vals)
    alert = detect_change(cur, prev)
    # complete separation: every test must sit at its permutation floor
    oracle_p = permutation_pvalue(cur.values("wind_speed"),
                                  prev.values("wind_speed"), welch_t_stat)
    assert oracle_p == pytest.approx(2 / 924, rel=1e-9)
    for result in alert.results:
        assert result.reject


def test_alert_timestamp_and_channel():
    cur, prev = window_pair([1] * 6, [5] * 6)
    alert = detect_change(cur, prev, channel="wind_speed")
    assert alert.timestamp_us == cur.end_us()
    assert alert.channel == "wind_speed"


def test_reject_flag_is_p_below_alpha():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cur, prev = window_pair(rng.normal(3, 1, 6), rng.normal(3.4, 1, 6))
        alert = detect_change(cur, prev, alpha=0.1)
        for result in alert.results:
            assert result.reject == (result.p_value < 0.1)


def test_alert_pack_round_trip():
    cur, prev = window_pair([1, 2, 1, 2, 1, 2], [5, 6, 5, 6, 5, 6])
    alert = detect_change(cur, prev)
    assert ChangeAlert.unpack(alert.pack()) == alert


def test_rank_tests_agree_with_permutation_oracle_on_random_pairs():
    # the two rank tests use exact small-sample distributions; on tie-free
    # data their decisions must match the permutation oracle exactly
    rng = np.random.default_rng(8)
    for _ in range(25):
        shift = rng.uniform(0.0, 2.0)
        prev_vals = rng.normal(2.0, 0.5, 6)
        cur_vals = rng.normal(2.0 + shift, 0.5, 6)
        cur, prev = window_pair(prev_vals, cur_vals)
        alert = detect_change(cur, prev)
        oracle = oracle_rejects(cur.values("wind_speed"), prev.values("wind_speed"))
        by_name = {r.test_name: r.reject for r in alert.results}
        assert by_name["mann_whitney_u"] == oracle["mann_whitney_u"]
        assert by_name["ks_2samp"] == oracle["ks_2samp"]


def test_false_alert_rate_under_null():
    # Monte Carlo size estimate: same distribution both windows
    rng = np.random.default_rng(123)
    alerts = 0
    trials = 1000
    for _ in range(trials):
        cur, prev = window_pair(rng.normal(2.0, 0.3, 6), rng.normal(2.0, 0.3, 6))
        alerts += detect_change(cur, prev, alpha=0.05).vote
    assert alerts / trials <= 0.07


# -- kernels against scipy.stats ------------------------------------------------------

def identical(got, want):
    """Equal as a report writes them: Python floats, bit for bit (0.0 is not
    -0.0), NaN matching NaN."""
    return [repr(v) for v in got] == [repr(v) for v in want]


def kernel_mismatches(pairs):
    return [(kernel.__name__, x.tolist(), y.tolist(), got, want)
            for x, y in pairs for kernel, reference in KERNELS
            if not identical(got := kernel(x, y), want := reference(x, y))]


def test_kernels_match_scipy_on_every_tie_free_labeling():
    ranks = range(1, 13)
    pairs = [(np.array(c, dtype=float), np.array([r for r in ranks if r not in c],
                                                 dtype=float))
             for c in itertools.combinations(ranks, 6)]
    assert len(pairs) == 924
    assert kernel_mismatches(pairs)[:3] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's precision-loss note
def test_kernels_match_scipy_on_random_windows():
    # continuous, rounded and near-constant windows at scales from 1e-3 to 1e6
    rng = np.random.default_rng(2026)
    pairs = []
    for i in range(5000):
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        x = rng.normal(0.0, scale, 6)
        y = rng.normal(rng.uniform(-2.0, 2.0) * scale, rng.uniform(0.2, 3.0) * scale, 6)
        if i % 3 == 1:
            # ties within and across windows: Mann-Whitney's normal branch
            step = scale * rng.choice([0.25, 0.5, 1.0, 2.0])
            x, y = np.round(x / step) * step, np.round(y / step) * step
        elif i % 3 == 2:
            centre = rng.normal(0.0, scale)
            x = centre * (1.0 + rng.normal(0.0, 1e-13, 6))
            y = centre * (1.0 + rng.normal(0.0, 1e-13, 6))
        pairs.append((x, y))
    assert sum(len(set(x) | set(y)) < 12 for x, y in pairs) > 1000
    assert kernel_mismatches(pairs)[:3] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and underflow notes
def test_kernels_match_scipy_at_extreme_scales():
    # squared variances overflow from about 1e77, and 1e-310 is subnormal
    rng = np.random.default_rng(77)
    pairs = [(rng.normal(0.0, scale, 6), rng.normal(scale, scale, 6))
             for scale in (1e100, 1e160, 1e200, 1e300, 1e-310) for _ in range(20)]
    assert kernel_mismatches(pairs)[:3] == []


NAN, INF = math.nan, math.inf
SEQ = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

# (x, y) -> (welch_t, mann_whitney_u, ks_2samp) results, taken from scipy
EDGE_CASES = [
    ([1.0, 2.0, 3.0, NAN, 5.0, 6.0], [7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
     ((NAN, NAN), (NAN, NAN), (NAN, NAN))),
    (SEQ, [7.0, 8.0, NAN, 10.0, 11.0, 12.0],
     ((NAN, NAN), (NAN, NAN), (NAN, NAN))),
    ([1.0, 2.0, 3.0, INF, 5.0, 6.0], [7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
     ((NAN, NAN), (6.0, 0.06493506493506493), (0.8333333333333334, 0.025974025974025972))),
    (SEQ, [7.0, 8.0, 9.0, 10.0, 11.0, INF],
     ((NAN, NAN), (0.0, 0.0021645021645021645), (1.0, 0.0021645021645021645))),
    ([2.0] * 6, [2.0] * 6,
     ((0.0, 1.0), (18.0, 1.0), (0.0, 1.0))),
    ([2.0] * 6, [3.0] * 6,
     ((INF, 0.0), (0.0, 0.0012619447673879731), (1.0, 0.0021645021645021645))),
    ([2.0] * 6, SEQ,
     ((-1.9639610121239317, 0.10674552235509224), (9.0, 0.12907260511214724),
      (0.6666666666666666, 0.14285714285714285))),
    (SEQ, [2.0] * 6,
     ((1.9639610121239317, 0.10674552235509224), (27.0, 0.12907260511214724),
      (0.6666666666666666, 0.14285714285714285))),
    ([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
     ((-0.5423261445466406, 0.599510635564107), (15.0, 0.6403735394530488),
      (0.16666666666666666, 0.9999999999999998))),
    ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0, 2.0, 1.0],
     ((0.0, 1.0), (18.0, 1.0), (0.0, 1.0))),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in a variance
@pytest.mark.parametrize("x, y, expected", EDGE_CASES)
def test_kernel_edge_cases_pinned(x, y, expected):
    # NaN anywhere gives (nan, nan) from all three; +inf, constant and
    # all-tied windows keep scipy's values
    x, y = np.array(x), np.array(y)
    for (kernel, _), want in zip(KERNELS, expected):
        assert identical(kernel(x, y), want), kernel.__name__


def test_detect_change_never_calls_scipy_stats(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.stats called")

    for name in ("ttest_ind", "mannwhitneyu", "ks_2samp"):
        monkeypatch.setattr(stats, name, forbidden)
    rng = np.random.default_rng(9)
    for _ in range(10):
        cur, prev = window_pair(np.round(rng.normal(3, 1, 6)), rng.normal(3, 1, 6))
        detect_change(cur, prev)
