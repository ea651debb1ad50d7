import numpy as np
import pytest

from fabricsim.errors import ConfigError
from fabricsim.weather import (
    RECORD_SIZE,
    REPORT_CADENCE_S,
    ChannelModel,
    TelemetryRecord,
    WeatherModel,
)


def generate_telemetry(model: WeatherModel, seed: int, duration_s: float,
                       cadence_s: float = REPORT_CADENCE_S) -> list[TelemetryRecord]:
    """Records at exact cadence, covering (0, duration]. Needs at least one
    full interval pair to be useful downstream."""
    if duration_s < 2 * cadence_s:
        raise ConfigError(f"duration {duration_s}s is below one interval pair "
                          f"({2 * cadence_s}s)")
    rng = np.random.default_rng(seed)
    count = int(duration_s // cadence_s)
    return [model.record_at((i + 1) * cadence_s, rng) for i in range(count)]


def test_record_pack_round_trip():
    rec = TelemetryRecord(1_000_000, 3.5, 182.0, 21.5, 48.0, "station-7")
    assert TelemetryRecord.unpack(rec.pack()) == rec
    assert len(rec.pack()) == RECORD_SIZE <= 1024


def test_station_id_must_fit_the_record_field():
    assert WeatherModel(station_id="cups-station-123").station_id == "cups-station-123"
    for too_long in ("cups-station-1234", "cups-station-12\u00e9"):  # 17 UTF-8 bytes
        with pytest.raises(ConfigError, match="station_id"):
            WeatherModel(station_id=too_long)


def test_stationary_hour_yields_twelve_records():
    model = WeatherModel(channels={"wind_speed": ChannelModel(2.0, 0.3)})
    records = generate_telemetry(model, seed=1, duration_s=3600)
    assert len(records) == 12
    assert [r.timestamp_us for r in records] == [i * 300_000_000
                                                 for i in range(1, 13)]


def test_sample_sd_matches_configured_noise():
    model = WeatherModel(channels={"wind_speed": ChannelModel(5.0, 0.4)})
    records = generate_telemetry(model, seed=2, duration_s=3600 * 200)
    wind = np.array([r.wind_speed for r in records])
    assert wind.mean() == pytest.approx(5.0, abs=0.02)
    assert wind.std(ddof=1) == pytest.approx(0.4, rel=0.05)


def test_regime_shift_moves_window_mean():
    model = WeatherModel(channels={
        "wind_speed": ChannelModel(2.0, 0.1, changes=((1800.0, 6.0),))})
    records = generate_telemetry(model, seed=3, duration_s=3600)
    early = [r.wind_speed for r in records if r.timestamp_us < 1800_000_000]
    late = [r.wind_speed for r in records if r.timestamp_us >= 1800_000_000]
    assert np.mean(early) == pytest.approx(2.0, abs=0.2)
    assert np.mean(late) == pytest.approx(6.0, abs=0.2)


def test_duration_below_one_interval_pair_rejected():
    with pytest.raises(ConfigError):
        generate_telemetry(WeatherModel(), seed=1, duration_s=300)


def test_humidity_clamped_to_percent_range():
    model = WeatherModel(channels={"humidity": ChannelModel(99.5, 10.0)})
    records = generate_telemetry(model, seed=4, duration_s=3600 * 20)
    assert all(0.0 <= r.humidity <= 100.0 for r in records)


def test_same_seed_same_stream():
    model = WeatherModel()
    a = generate_telemetry(model, seed=9, duration_s=7200)
    b = generate_telemetry(model, seed=9, duration_s=7200)
    assert a == b


def test_unknown_channel_rejected():
    with pytest.raises(ConfigError):
        WeatherModel(channels={"barometric": ChannelModel(1.0, 0.1)})
