"""Synthetic weather telemetry: piecewise-stationary channel means plus
Gaussian sensor noise, reported on a fixed cadence (default 300 s).

Records serialize to a fixed 56-byte layout so they comfortably fit the
1 KB log elements used by the telemetry path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .simcore import s_to_us

REPORT_CADENCE_S = 300
MAX_CHANNEL_VALUE = 1e6  # bounds a channel's means and noise sd: detect's sums stay finite

_RECORD = struct.Struct("<Qdddd16s")
RECORD_SIZE = _RECORD.size  # 56 bytes

CHANNELS = ("wind_speed", "wind_direction", "temperature", "humidity")


@dataclass(frozen=True)
class TelemetryRecord:
    timestamp_us: int
    wind_speed: float
    wind_direction: float
    temperature: float
    humidity: float
    station_id: str

    def value(self, channel: str) -> float:
        if channel not in CHANNELS:
            raise ConfigError(f"unknown telemetry channel {channel!r}")
        return getattr(self, channel)

    def pack(self) -> bytes:
        return _RECORD.pack(self.timestamp_us, self.wind_speed, self.wind_direction,
                            self.temperature, self.humidity,
                            self.station_id.encode("utf-8")[:16])

    @classmethod
    def unpack(cls, raw: bytes) -> "TelemetryRecord":
        ts, ws, wd, tc, rh, sid = _RECORD.unpack(raw[:RECORD_SIZE])
        return cls(ts, ws, wd, tc, rh, sid.rstrip(b"\x00").decode("utf-8"))


@dataclass(frozen=True)
class ChannelModel:
    """Piecewise-constant mean with additive Gaussian noise."""

    base_mean: float
    noise_sd: float
    changes: tuple[tuple[float, float], ...] = ()  # (time_s, new_mean)

    def __post_init__(self):
        times = [t for t, _ in self.changes]  # `mean_at` applies them in this order
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"bad value for changes: times {times} do not increase strictly")

    def mean_at(self, t_s: float) -> float:
        mean = self.base_mean
        for change_t, new_mean in self.changes:
            if t_s >= change_t:
                mean = new_mean
        return mean


@dataclass
class WeatherModel:
    station_id: str = "cups-station-1"
    channels: dict[str, ChannelModel] = field(default_factory=dict)

    def __post_init__(self):
        defaults = {
            "wind_speed": ChannelModel(2.0, 0.3),
            "wind_direction": ChannelModel(180.0, 10.0),
            "temperature": ChannelModel(22.0, 0.5),
            "humidity": ChannelModel(55.0, 2.0),
        }
        for name, model in defaults.items():
            self.channels.setdefault(name, model)
        unknown = set(self.channels) - set(CHANNELS)
        if unknown:
            raise ConfigError(f"unknown telemetry channels: {sorted(unknown)}")
        if len(self.station_id.encode("utf-8")) > 16:  # the record's 16s field
            raise ConfigError(f"station_id {self.station_id!r} is longer than 16 UTF-8 bytes")

    def record_at(self, t_s: float, rng: np.random.Generator) -> TelemetryRecord:
        sample = {}
        for name in CHANNELS:
            ch = self.channels[name]
            sample[name] = ch.mean_at(t_s) + rng.normal(0.0, ch.noise_sd)
        sample["humidity"] = float(np.clip(sample["humidity"], 0.0, 100.0))
        return TelemetryRecord(s_to_us(t_s), sample["wind_speed"],
                               sample["wind_direction"], sample["temperature"],
                               sample["humidity"], self.station_id)
