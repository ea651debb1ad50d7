import hashlib

import numpy as np
import pytest

from fabricsim.errors import InvalidSlice, NetError, RouteUnreachable
from fabricsim.netsim import (
    LinkSpec,
    Network,
    SliceConfig,
    calibrated_slice_params,
    fit_slope_through_origin,
)
from fabricsim.scenario import build_routes
from fabricsim.simcore import Simulator, s_to_us


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


def test_serialization_delay_five_megabytes_on_half_slice():
    # closed form: 5 MB * 8 / (0.5 * 48 Mbps) = 1.6667 s
    sim = Simulator(seed=1)
    link = LinkSpec("l0", "a", "b", latency_mean_ms=0.0, latency_sd_ms=0.0,
                    base_capacity_mbps=48.0)
    net = Network(sim, [link], ue_efficiency={"ue1": 1.0}, slice_sd_mbps=0.0)
    slc = SliceConfig(5, 0.5, "ue1")
    net.set_slices("l0", [slc])
    got = deliveries(net, sim)
    net.send("a", "b", b"\x00" * 5_000_000, slice_ue="ue1")
    sim.run()
    expected_us = 5_000_000 * 8 / (0.5 * 48e6) * 1e6
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

def test_nominal_capacity_low_fraction_near_reference():
    # 10% of a 48.3 Mbps cell at efficiency 1.0
    sim = Simulator(seed=1)
    link = LinkSpec("l0", "ue", "gnb", 10.0, 0.0, base_capacity_mbps=48.3)
    net = Network(sim, [link])
    value = net.nominal_capacity("l0", SliceConfig(1, 0.10, "ue"), 1.0)
    assert value == pytest.approx(4.83, abs=0.01)
    assert value == pytest.approx(4.95, rel=0.05)  # reference measurement


def test_nominal_capacity_high_fraction_hits_anchor():
    base, eff = calibrated_slice_params()
    sim = Simulator(seed=1)
    link = LinkSpec("l0", "ue", "gnb", 10.0, 0.0, base_capacity_mbps=base)
    net = Network(sim, [link])
    value = net.nominal_capacity("l0", SliceConfig(9, 0.90, "ue"), eff["high"])
    assert value == pytest.approx(43.47, rel=0.05)


def test_nominal_capacity_mid_fraction_two_ues():
    base, eff = calibrated_slice_params()
    sim = Simulator(seed=1)
    link = LinkSpec("l0", "ue", "gnb", 10.0, 0.0, base_capacity_mbps=base)
    net = Network(sim, [link])
    low = net.nominal_capacity("l0", SliceConfig(5, 0.5, "a"), eff["low"])
    high = net.nominal_capacity("l0", SliceConfig(5, 0.5, "b"), eff["high"])
    assert low == pytest.approx(23.91, rel=0.05)
    assert high == pytest.approx(25.22, rel=0.05)


def test_fit_slope_through_origin_exact_on_proportional_data():
    assert fit_slope_through_origin([(0.2, 2.0), (0.5, 5.0)]) == pytest.approx(10.0)


def test_effective_capacity_sampling_statistics():
    base, eff = calibrated_slice_params()
    sim = Simulator(seed=11)
    link = LinkSpec("l0", "ue", "gnb", 10.0, 0.0, base_capacity_mbps=base)
    net = Network(sim, [link], slice_sd_mbps=4.0)
    slc = SliceConfig(5, 0.5, "ue")
    samples = np.array([net.effective_capacity("l0", slc, 1.0) for _ in range(4000)])
    nominal = 0.5 * base
    assert samples.mean() == pytest.approx(nominal, rel=0.02)
    assert 3.0 < samples.std(ddof=1) < 5.0


def test_slice_fraction_sum_validation():
    sim = Simulator(seed=1)
    net = make_net(sim)
    with pytest.raises(InvalidSlice):
        net.set_slices("l0", [SliceConfig(1, 0.6, "u1"), SliceConfig(2, 0.6, "u2")])


def test_inactive_slice_rejected():
    sim = Simulator(seed=1)
    net = make_net(sim)
    net.set_slices("l0", [SliceConfig(1, 0.5, "u1")])
    with pytest.raises(InvalidSlice):
        net.effective_capacity("l0", SliceConfig(2, 0.4, "u2"), 1.0)


def test_slice_config_bounds():
    with pytest.raises(InvalidSlice):
        SliceConfig(0, 0.5, "x")
    with pytest.raises(InvalidSlice):
        SliceConfig(1, 0.0, "x")
    with pytest.raises(InvalidSlice):
        SliceConfig(1, 1.2, "x")


# -- throughput trials ---------------------------------------------------------------

def _trial_net(seed):
    sim = Simulator(seed=seed)
    base, eff = calibrated_slice_params()
    link = LinkSpec("tdd", "ue", "gnb", 10.0, 1.0, base_capacity_mbps=base)
    net = Network(sim, [link], ue_efficiency={"low": eff["low"], "high": 1.0},
                  slice_sd_mbps=4.0)
    return sim, net, base


def test_trial_mean_within_two_standard_errors():
    sim, net, base = _trial_net(22)
    slc = SliceConfig(5, 0.5, "high")
    net.set_slices("tdd", [slc])
    proc = sim.spawn(net.run_throughput_trial("high", "tdd", slc, 1.0, 100))
    sim.run()
    samples = [r.achieved_mbps for r in proc.result]
    se = 4.0 / np.sqrt(len(samples))
    assert abs(np.mean(samples) - 0.5 * base) <= 2 * se


def test_trial_duration_zero_rejected():
    sim, net, _ = _trial_net(1)
    slc = SliceConfig(5, 0.5, "high")
    net.set_slices("tdd", [slc])
    with pytest.raises(NetError):
        net.run_throughput_trial("high", "tdd", slc, 0.0, 10)


def test_complementary_pair_ordering():
    sim, net, _ = _trial_net(31)
    low_slice = SliceConfig(3, 0.3, "low")
    high_slice = SliceConfig(7, 0.7, "high")
    net.set_slices("tdd", [low_slice, high_slice])
    p_low = sim.spawn(net.run_throughput_trial("low", "tdd", low_slice, 1.0, 100))
    p_high = sim.spawn(net.run_throughput_trial("high", "tdd", high_slice, 1.0, 100))
    sim.run()
    mean_low = np.mean([r.achieved_mbps for r in p_low.result])
    mean_high = np.mean([r.achieved_mbps for r in p_high.result])
    assert mean_low < mean_high


def test_transfer_records_are_internally_consistent():
    sim, net, _ = _trial_net(9)
    slc = SliceConfig(4, 0.4, "high")
    net.set_slices("tdd", [slc])
    proc = sim.spawn(net.run_throughput_trial("high", "tdd", slc, 2.0, 20))
    sim.run()
    for rec in proc.result:
        derived = rec.nbytes * 8 / ((rec.end_us - rec.start_us) / 1e6) / 1e6
        assert rec.achieved_mbps == pytest.approx(derived, rel=1e-9)


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
