"""Scenario configuration: JSON schema, strict validation, bundled examples.

Configs are plain JSON. Validation is strict: any key the schema does not
know is rejected, and the error names the offending key path. Bundled
scenarios (table1, slicing, e2e_cups, queue_sweep) ship with the package and
can be referenced by name instead of path.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

from .errors import ConfigError, NetError
from .framing import MAX_PAYLOAD
from .netsim import CAPACITY_FLOOR_MBPS, MAX_CAPACITY_MBPS, MAX_LATENCY_MS, LinkSpec
from .pilot import MAX_LOG_DELAY, MAX_NODE_PENALTY, CfdCostModel, QueueDelayModel, SystemSpec
from .simcore import US_PER_S, s_to_us
from .transport import MIN_LATENCY_COUNT
from .weather import MAX_CHANNEL_VALUE, ChannelModel, WeatherModel

BUNDLED = ("table1", "slicing", "e2e_cups", "queue_sweep")
HORIZON_S = 366 * 24 * 3600.0  # one simulated year bounds every time given in seconds

# scalar field types and how an error names them; a float field takes an int
_KINDS = {str: "string", int: "integer", float: "number", bool: "boolean"}


class Num:
    """A numeric row: its kind, a finite value, and the range from `lo` to
    `hi`, either end open. The bounds are data, so tests can walk the rows."""

    def __init__(self, lo=-math.inf, hi=math.inf, *, lo_open=False, hi_open=False, kind=float):
        self.lo, self.hi, self.kind = lo, hi, kind
        self.lo_open, self.hi_open = lo_open or lo == -math.inf, hi_open or hi == math.inf

    def __call__(self, value, where: str) -> None:
        types = (int, float) if self.kind is float else int
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"bad value for {where}: expected {_KINDS[self.kind]}")
        if isinstance(value, float) and not math.isfinite(value):  # `json` reads NaN
            raise ConfigError(f"bad value for {where}: {value} is not a finite number")
        if not ((value > self.lo if self.lo_open else value >= self.lo)
                and (value < self.hi if self.hi_open else value <= self.hi)):
            ends = "[("[self.lo_open] + f"{self.lo}, {self.hi}" + "])"[self.hi_open]
            raise ConfigError(f"bad value for {where}: {value} is outside {ends}")


_SECONDS = Num(0, HORIZON_S)
# a walltime of 0 us hosts no task, and `_acquire` would resubmit it forever at one instant
WALLTIME = Num(0.5 / US_PER_S, HORIZON_S, lo_open=True)  # s_to_us gives 0 at or below 0.5 us
_COUNT = Num(1, kind=int)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_mapping(raw, schema: dict, path: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'scenario'} must be a mapping")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key: {_join(path, key)}")
    for key, (required, kind) in schema.items():
        if key in raw:
            _check_value(raw[key], kind, _join(path, key))
        elif required:
            raise ConfigError(f"missing key: {_join(path, key)}")


def _check_value(value, kind, where: str) -> None:
    """`kind` is a mapping schema, `str`, `bool` or a checker such as a `Num`."""
    if isinstance(kind, dict):
        _check_mapping(value, kind, where)
    elif kind not in (str, bool):
        kind(value, where)
    elif not isinstance(value, kind):
        raise ConfigError(f"bad value for {where}: expected {_KINDS[kind]}")


def _list_of(kind):
    def check(value, where):
        if not isinstance(value, list):
            raise ConfigError(f"bad value for {where}: expected a list")
        for i, item in enumerate(value):
            _check_value(item, kind, f"{where}[{i}]")
    check.item = kind
    return check


def _mapping_of(kind, item_path):
    """A name -> item mapping; `item_path(where, name)` gives its path or rejects it."""
    def check(value, where):
        if not isinstance(value, dict):
            raise ConfigError(f"bad value for {where}: expected a mapping")
        for name, item in value.items():
            _check_value(item, kind, item_path(where, name))
    check.item = kind
    return check


def _pair_of(*kinds):
    def check(value, where):
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"bad value for {where}: expected [number, number]")
        for i, (item, kind) in enumerate(zip(value, kinds)):
            kind(item, f"{where}[{i}]")
    check.items = kinds
    return check


def _route_path(where, key):
    if "->" not in key:
        raise ConfigError(f"bad route key {key!r} in {where}: use 'src->dst'")
    return f"{where}[{key!r}]"


_LINK = {
    "id": (True, str),
    "a": (True, str),
    "b": (True, str),
    "latency_mean_ms": (True, Num(0, MAX_LATENCY_MS)),
    "latency_sd_ms": (True, Num(0, MAX_LATENCY_MS)),
    "loss_prob": (False, Num(0, 1, hi_open=True)),
    "base_capacity_mbps": (False, Num(CAPACITY_FLOOR_MBPS, MAX_CAPACITY_MBPS)),
    "duplicate_prob": (False, Num(0, 1, hi_open=True)),
    "partitions_s": (False, _list_of(_pair_of(_SECONDS, _SECONDS))),
}

_TOPOLOGY = {
    "links": (True, _list_of(_LINK)),
    "routes": (False, _mapping_of(_list_of(str), _route_path)),
}

_QUEUE_DELAY = {
    "kind": (True, str),
    "value_s": (False, _SECONDS),
    "mu": (False, Num(-MAX_LOG_DELAY, MAX_LOG_DELAY)),
    "sigma": (False, Num(0, MAX_LOG_DELAY)),
}

_SYSTEM = {
    "total_nodes": (False, _COUNT),
    "cores_per_node": (False, _COUNT),
    "max_runtime_s": (False, WALLTIME),
    "queue_delay": (False, _QUEUE_DELAY),
}

_COST_MODEL = {
    "mean_runtime_s": (False, Num(0, HORIZON_S, lo_open=True)),  # sample_runtime_s divides by it
    "runtime_sd_s": (False, _SECONDS),
    "multi_node_penalty": (False, Num(0, MAX_NODE_PENALTY)),
}

_MEAN = Num(-MAX_CHANNEL_VALUE, MAX_CHANNEL_VALUE)

_CHANNEL = {
    "mean": (True, _MEAN),
    "noise_sd": (True, Num(0, MAX_CHANNEL_VALUE)),
    "changes": (False, _list_of(_pair_of(_SECONDS, _MEAN))),
}


_WEATHER = {
    "station_id": (False, str),
    "channels": (True, _mapping_of(_CHANNEL, "{}.{}".format)),
}

_MEASUREMENT = {
    "label": (True, str),
    "client": (True, str),
    "server": (True, str),
    "log_name": (False, str),
    "element_size": (False, Num(1, MAX_PAYLOAD, kind=int)),
    "payload_bytes": (True, Num(1, MAX_PAYLOAD, kind=int)),
    "count": (True, Num(MIN_LATENCY_COUNT, kind=int)),
    "use_cache": (False, bool),
}

_LATENCY = {
    "measurements": (True, _list_of(_MEASUREMENT)),
}

_UE = {
    "name": (True, str),
    "efficiency": (True, Num(0, 1, lo_open=True)),  # a device's share of the link's rate
}

_SLICING = {
    "link": (True, str),
    "ue_low": (True, _UE),
    "ue_high": (True, _UE),
    "fractions": (True, _list_of(Num(0, 1, lo_open=True, hi_open=True))),
    "samples": (True, _COUNT),
    "duration_s": (True, Num(1 / US_PER_S, HORIZON_S)),
    "noise_sd_mbps": (False, Num(0, MAX_CAPACITY_MBPS)),
}

_PILOT = {
    "strategy": (False, str),
    "threshold_bytes": (False, _COUNT),
    "task_cores": (False, _COUNT),
    "estimated_runtime_s": (False, WALLTIME),
}

_CUPS = {
    "duration_s": (True, _SECONDS),
    "cadence_s": (False, Num(0, HORIZON_S, lo_open=True)),
    "duty_cycle_s": (False, _SECONDS),
    "alpha": (False, Num(0, 1, lo_open=True, hi_open=True)),
    "channels": (False, _list_of(str)),
    "eval_offset_s": (False, _SECONDS),
    "forward_offset_s": (False, _SECONDS),
    "weather": (True, _WEATHER),
    "pilot": (False, _PILOT),
    "system": (False, _SYSTEM),
    "cost_model": (False, _COST_MODEL),
    "sustained_check_tasks": (False, Num(0, kind=int)),
}

_QUEUE_SWEEP = {
    "alerts": (True, _COUNT),
    "alert_interval_s": (True, _SECONDS),
    "cores": (False, _COUNT),
    "estimated_runtime_s": (False, WALLTIME),
    "data_size_bytes": (False, Num(0, kind=int)),
    "threshold_bytes": (False, _COUNT),
    "system": (False, _SYSTEM),
    "delays": (True, _list_of(_QUEUE_DELAY)),
    "strategies": (False, _list_of(str)),
}

SEED = Num(0, kind=int)  # numpy's SeedSequence takes no negative seed

_TOP = {
    "name": (True, str),
    "kind": (True, str),
    "seed": (True, SEED),
    "topology": (False, _TOPOLOGY),
    "latency": (False, _LATENCY),
    "slicing": (False, _SLICING),
    "cups": (False, _CUPS),
    "queue_sweep": (False, _QUEUE_SWEEP),
}

_KIND_SECTION = {
    "latency_table": "latency",
    "slicing_sweep": "slicing",
    "cups": "cups",
    "queue_sweep": "queue_sweep",
}


def validate_scenario(raw: dict) -> None:
    _check_mapping(raw, _TOP, "")
    kind = raw["kind"]
    if kind not in _KIND_SECTION:
        raise ConfigError(f"unknown scenario kind {kind!r} "
                          f"(expected one of {sorted(_KIND_SECTION)})")
    section = _KIND_SECTION[kind]
    if section not in raw:
        raise ConfigError(f"missing key: {section} (required for kind {kind!r})")
    if kind in ("latency_table", "slicing_sweep", "cups") and "topology" not in raw:
        raise ConfigError(f"missing key: topology (required for kind {kind!r})")


def load_scenario(ref: str | Path) -> dict:
    """Load by path, or by bundled scenario name."""
    path = Path(ref)
    if path.exists():
        text = path.read_text()
    elif str(ref) in BUNDLED:
        text = resources.files("fabricsim").joinpath(
            f"scenarios/{ref}.json").read_text()
    else:
        raise ConfigError(f"scenario not found: {ref}")
    try:  # -0.0 reads as 0.0: numpy rejects a scale or a bound of -0.0
        raw = json.loads(text, parse_float=lambda s: float(s) + 0.0)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    validate_scenario(raw)
    return raw


# -- object builders ---------------------------------------------------------
# Each builder passes on only the keys a scenario sets, renamed where a field
# is, so the dataclasses hold the one copy of every default.

def build_links(raw: dict) -> list[LinkSpec]:
    links = []
    for i, spec in enumerate(raw["topology"]["links"]):
        if any(link.link_id == spec["id"] for link in links):
            raise ConfigError(f"bad value for topology.links[{i}]: duplicate link id {spec['id']!r}")
        fields = dict(spec)
        fields["link_id"] = fields.pop("id")
        if "partitions_s" in fields:
            fields["partitions_us"] = tuple((s_to_us(a), s_to_us(b))
                                            for a, b in fields.pop("partitions_s"))
        try:
            links.append(LinkSpec(**fields))
        except NetError as exc:
            raise ConfigError(f"bad value for topology.links[{i}]: {exc}") from exc
    return links


def build_routes(raw: dict) -> dict[tuple[str, str], list[str]]:
    """Each route is a non-empty chain of links from its source to its destination."""
    topology = raw.get("topology", {})
    ends = {link["id"]: (link["a"], link["b"]) for link in topology.get("links", ())}
    routes = {}
    for key, link_ids in topology.get("routes", {}).items():
        where = f"topology.routes[{key!r}]"
        if unknown := set(link_ids) - ends.keys():
            raise ConfigError(f"bad value for {where}: no link {min(unknown)!r}")
        src, dst = (name.strip() for name in key.split("->", 1))
        if (src, dst) in routes:
            raise ConfigError(f"bad value for {where}: an earlier key routes {src} -> {dst}")
        at = src
        for link_id in link_ids:
            a, b = ends[link_id]
            at = b if at == a else a if at == b else None
        if not link_ids or at != dst:
            raise ConfigError(f"bad value for {where}: {link_ids} is not a chain of links "
                              f"from {src} to {dst}")
        routes[(src, dst)] = list(link_ids)
    return routes


def build_weather(spec: dict) -> WeatherModel:
    channels = {}
    for name, ch in spec["channels"].items():
        fields = dict(ch)
        fields["base_mean"] = fields.pop("mean")
        if "changes" in fields:
            fields["changes"] = tuple((t, m) for t, m in fields["changes"])
        channels[name] = ChannelModel(**fields)
    return WeatherModel(**dict(spec, channels=channels))


def build_system(spec: dict | None) -> SystemSpec:
    fields = dict(spec or {})
    if "queue_delay" in fields:
        fields["queue_delay"] = QueueDelayModel(**fields["queue_delay"])
    return SystemSpec(**fields)


def build_cost_model(spec: dict | None) -> CfdCostModel:
    return CfdCostModel(**(spec or {}))
