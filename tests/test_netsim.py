import hashlib

import numpy as np
import pytest

from fabricsim.errors import RouteUnreachable
from fabricsim.netsim import LinkSpec, Network, slice_rate_mbps
from fabricsim.runner import run_scenario
from fabricsim.scenario import build_routes, load_scenario
from fabricsim.simcore import Simulator, s_to_us

# Reference calibration: mean uplink throughput (Mbps) measured per device at
# complementary PRB fractions on a 40 MHz TDD cell. The weaker device
# saturates at high fractions, so its proportional slope is fit on the
# low/mid points only.
LOW_UE_CALIBRATION = ((0.1, 4.95), (0.5, 23.91), (0.9, 34.73))
HIGH_UE_CALIBRATION = ((0.1, 5.14), (0.5, 25.22), (0.9, 43.47))


def fit_slope_through_origin(points) -> float:
    f = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    return float((f * y).sum() / (f * f).sum())


def calibrated_slice_params() -> tuple[float, dict[str, float]]:
    """(base_capacity_mbps, per-device efficiency) fit from the reference data."""
    base = fit_slope_through_origin(HIGH_UE_CALIBRATION)
    low = fit_slope_through_origin(LOW_UE_CALIBRATION[:2])
    return base, {"low": low / base, "high": 1.0}


def make_net(sim, **link_kwargs):
    defaults = dict(link_id="l0", a="a", b="b", latency_mean_ms=17.0,
                    latency_sd_ms=0.0, base_capacity_mbps=10_000.0)
    defaults.update(link_kwargs)
    return Network(sim, [LinkSpec(**defaults)])


def deliveries(network, sim):
    got = []
    network.register_endpoint("b", lambda frame, src: got.append((sim.now_us, frame, src)))
    return got


# -- delivery ------------------------------------------------------------------

def test_zero_loss_link_delivers_at_configured_latency():
    sim = Simulator(seed=1)
    net = make_net(sim)  # N(17, 0) ms, tiny frame
    got = deliveries(net, sim)
    net.send("a", "b", b"ping")
    sim.run()
    assert len(got) == 1
    arrival_us = got[0][0]
    assert arrival_us == pytest.approx(17_000, abs=50)


def test_frame_sent_during_partition_is_dropped():
    sim = Simulator(seed=1, trace=True)
    net = make_net(sim, partitions_us=((0, s_to_us(10)),))
    got = deliveries(net, sim)
    net.send("a", "b", b"lost")
    sim.run()
    assert got == []
    kinds = [k for _, k, _ in sim.trace]
    assert "drop" in kinds


def test_frame_after_partition_window_is_delivered():
    sim = Simulator(seed=1)
    net = make_net(sim, partitions_us=((0, s_to_us(10)),))
    got = deliveries(net, sim)
    sim.run(until_us=s_to_us(10))
    net.send("a", "b", b"late")
    sim.run()
    assert len(got) == 1


def test_serialization_delay_five_megabytes_at_base_rate():
    # closed form: 5 MB * 8 / 24 Mbps = 1.6667 s
    sim = Simulator(seed=1)
    net = make_net(sim, latency_mean_ms=0.0, base_capacity_mbps=24.0)
    got = deliveries(net, sim)
    net.send("a", "b", b"\x00" * 5_000_000)
    sim.run()
    expected_us = 5_000_000 * 8 / 24e6 * 1e6
    assert got[0][0] == pytest.approx(expected_us, rel=1e-6, abs=200)


def test_latency_samples_clamped_at_floor():
    sim = Simulator(seed=3)
    net = make_net(sim, latency_mean_ms=0.05, latency_sd_ms=0.2)
    got = deliveries(net, sim)
    for _ in range(50):
        net.send("a", "b", b"x")
    sim.run()
    assert len(got) > 0
    # every arrival is at least the 0.1 ms floor after its send time
    assert all(t >= 100 for t, _, _ in got)


def test_route_unreachable():
    sim = Simulator(seed=1)
    net = make_net(sim)
    with pytest.raises(RouteUnreachable):
        net.route("a", "nowhere")


def test_multi_hop_route_chains_latencies():
    sim = Simulator(seed=1)
    links = [
        LinkSpec("h1", "a", "m", 10.0, 0.0),
        LinkSpec("h2", "m", "b", 25.0, 0.0),
    ]
    net = Network(sim, links, routes={("a", "b"): ["h1", "h2"]})
    got = deliveries(net, sim)
    net.send("a", "b", b"x")
    sim.run()
    assert got[0][0] == pytest.approx(35_000, abs=100)
    # the same route, either way round, is a chain that a scenario may name
    raw = {"topology": {"links": [{"id": l.link_id, "a": l.a, "b": l.b} for l in links],
                        "routes": {"a->b": ["h1", "h2"], "b -> a": ["h2", "h1"]}}}
    assert build_routes(raw) == {("a", "b"): ["h1", "h2"], ("b", "a"): ["h2", "h1"]}


def test_duplicate_injection_delivers_twice():
    sim = Simulator(seed=5)
    net = make_net(sim, duplicate_prob=0.999)
    got = deliveries(net, sim)
    net.send("a", "b", b"dup")
    sim.run()
    assert len(got) == 2


# -- slicing model ---------------------------------------------------------------

def _bundled_slicing():
    """(base_capacity_mbps, {"low": efficiency, "high": efficiency}) of `slicing.json`."""
    config = load_scenario("slicing")
    spec = config["slicing"]
    (link,) = [l for l in config["topology"]["links"] if l["id"] == spec["link"]]
    return link["base_capacity_mbps"], {"low": spec["ue_low"]["efficiency"],
                                        "high": spec["ue_high"]["efficiency"]}


def test_nominal_capacity_low_fraction_near_reference():
    # the bundled scenario carries the calibration fit itself
    assert _bundled_slicing() == calibrated_slice_params()
    base, eff = _bundled_slicing()
    assert 0.1 * base * eff["low"] == pytest.approx(4.95, rel=0.05)  # reference measurement


def test_nominal_capacity_high_fraction_hits_anchor():
    base, eff = _bundled_slicing()
    assert 0.9 * base * eff["high"] == pytest.approx(43.47, rel=0.05)


def test_nominal_capacity_mid_fraction_two_ues():
    base, eff = _bundled_slicing()
    assert 0.5 * base * eff["low"] == pytest.approx(23.91, rel=0.05)
    assert 0.5 * base * eff["high"] == pytest.approx(25.22, rel=0.05)


def test_fit_slope_through_origin_exact_on_proportional_data():
    assert fit_slope_through_origin([(0.2, 2.0), (0.5, 5.0)]) == pytest.approx(10.0)


def test_effective_capacity_sampling_statistics():
    base, _ = calibrated_slice_params()
    rng = Simulator(seed=11).rng("slice:l0:ue")
    nominal = 0.5 * base
    samples = np.array([slice_rate_mbps(nominal, 4.0, rng) for _ in range(4000)])
    assert samples.mean() == pytest.approx(nominal, rel=0.02)
    assert 3.0 < samples.std(ddof=1) < 5.0


def test_trial_mean_within_two_standard_errors():
    base, _ = calibrated_slice_params()
    rng = Simulator(seed=22).rng("slice:tdd:high")
    samples = [slice_rate_mbps(0.5 * base, 4.0, rng) for _ in range(100)]
    se = 4.0 / np.sqrt(len(samples))
    assert abs(np.mean(samples) - 0.5 * base) <= 2 * se


def test_complementary_pair_ordering():
    base, eff = calibrated_slice_params()
    sim = Simulator(seed=31)
    low_rng, high_rng = sim.rng("slice:tdd:low"), sim.rng("slice:tdd:high")
    mean_low = np.mean([slice_rate_mbps(0.3 * base * eff["low"], 4.0, low_rng)
                        for _ in range(100)])
    mean_high = np.mean([slice_rate_mbps(0.7 * base * eff["high"], 4.0, high_rng)
                         for _ in range(100)])
    assert mean_low < mean_high


def test_transfer_records_are_internally_consistent(tmp_path):
    # every sample of the sweep is a whole number of bytes moved in duration_s
    config = load_scenario("slicing")
    config["slicing"].update(samples=20, duration_s=2.0)
    report, series, ok = run_scenario(config, tmp_path)
    consistency = [k for k in report["invariants"] if k.startswith("transfer_consistency[")]
    assert ok and len(consistency) == 18
    for row in series["slicing_samples"][1]:
        nbytes = row["mbps"] * 1e6 * 2.0 / 8
        assert nbytes == pytest.approx(round(nbytes), abs=1e-6)


# -- determinism --------------------------------------------------------------------

def _lossy_trace(seed):
    sim = Simulator(seed=seed, trace=True)
    net = make_net(sim, latency_sd_ms=3.0, loss_prob=0.2, duplicate_prob=0.1)
    net.register_endpoint("b", lambda frame, src: None)
    for i in range(200):
        net.send("a", "b", bytes([i % 256]) * 100)
        sim.run(until_us=sim.now_us + 1_000)
    sim.run()
    return hashlib.sha256("\n".join(sim.trace_lines()).encode()).hexdigest()


def test_identical_seed_identical_event_trace():
    assert _lossy_trace(42) == _lossy_trace(42)


def test_different_seed_different_trace():
    assert _lossy_trace(42) != _lossy_trace(43)


def test_lossy_trace_matches_pinned_history():
    # a literal, so it pins the per-link draw order (loss, then duplicate,
    # then one normal per copy) and the hop delays across code changes
    assert _lossy_trace(42) == \
        "abb77d7123ee38f278a1520d9bb849318edbdb7d01ad21820d50d1408abdd588"
