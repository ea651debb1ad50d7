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
from .netsim import LinkSpec
from .pilot import CfdCostModel, QueueDelayModel, SystemSpec
from .simcore import s_to_us
from .weather import ChannelModel, WeatherModel

BUNDLED = ("table1", "slicing", "e2e_cups", "queue_sweep")

_NUM = (int, float)
# scalar field types and how an error names them; a float field takes an int
_KINDS = {str: "string", int: "integer", float: "number", bool: "boolean"}


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
    """`kind` is a mapping schema, a scalar type or a checker function."""
    if isinstance(kind, dict):
        _check_mapping(value, kind, where)
    elif kind in _KINDS:
        types = _NUM if kind is float else kind
        if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
            raise ConfigError(f"bad value for {where}: expected {_KINDS[kind]}")
        _check_finite(value, where)
    else:
        kind(value, where)


def _check_finite(value, where: str) -> None:
    """Python's `json` reads NaN and Infinity, and `NaN < 0` is false."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"bad value for {where}: {value} is not a finite number")


def _list_of(kind):
    def check(value, where):
        if not isinstance(value, list):
            raise ConfigError(f"bad value for {where}: expected a list")
        for i, item in enumerate(value):
            _check_value(item, kind, f"{where}[{i}]")
    return check


def _mapping_of(kind, item_path):
    """A name -> item mapping; `item_path(where, name)` gives its path or rejects it."""
    def check(value, where):
        if not isinstance(value, dict):
            raise ConfigError(f"bad value for {where}: expected a mapping")
        for name, item in value.items():
            _check_value(item, kind, item_path(where, name))
    return check


def _pair_item(value, where):
    if (not isinstance(value, list) or len(value) != 2
            or any(not isinstance(v, _NUM) or isinstance(v, bool) for v in value)):
        raise ConfigError(f"bad value for {where}: expected [number, number]")
    for v in value:
        _check_finite(v, where)


def _route_path(where, key):
    if "->" not in key:
        raise ConfigError(f"bad route key {key!r} in {where}: use 'src->dst'")
    return f"{where}[{key!r}]"


_LINK = {
    "id": (True, str),
    "a": (True, str),
    "b": (True, str),
    "latency_mean_ms": (True, float),
    "latency_sd_ms": (True, float),
    "loss_prob": (False, float),
    "base_capacity_mbps": (False, float),
    "duplicate_prob": (False, float),
    "partitions_s": (False, _list_of(_pair_item)),
}

_TOPOLOGY = {
    "links": (True, _list_of(_LINK)),
    "routes": (False, _mapping_of(_list_of(str), _route_path)),
}

_QUEUE_DELAY = {
    "kind": (True, str),
    "value_s": (False, float),
    "mu": (False, float),
    "sigma": (False, float),
}

_SYSTEM = {
    "total_nodes": (False, int),
    "cores_per_node": (False, int),
    "max_runtime_s": (False, float),
    "queue_delay": (False, _QUEUE_DELAY),
}

_COST_MODEL = {
    "mean_runtime_s": (False, float),
    "runtime_sd_s": (False, float),
    "multi_node_penalty": (False, float),
}

_CHANNEL = {
    "mean": (True, float),
    "noise_sd": (True, float),
    "changes": (False, _list_of(_pair_item)),
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
    "element_size": (False, int),
    "payload_bytes": (True, int),
    "count": (True, int),
    "use_cache": (False, bool),
}

_LATENCY = {
    "measurements": (True, _list_of(_MEASUREMENT)),
}

_UE = {
    "name": (True, str),
    "efficiency": (True, float),
}

_SLICING = {
    "link": (True, str),
    "ue_low": (True, _UE),
    "ue_high": (True, _UE),
    "fractions": (True, _list_of(float)),
    "samples": (True, int),
    "duration_s": (True, float),
    "noise_sd_mbps": (False, float),
}

_PILOT = {
    "strategy": (False, str),
    "threshold_bytes": (False, int),
    "task_cores": (False, int),
    "estimated_runtime_s": (False, float),
}

_CUPS = {
    "duration_s": (True, float),
    "cadence_s": (False, float),
    "duty_cycle_s": (False, float),
    "alpha": (False, float),
    "channels": (False, _list_of(str)),
    "eval_offset_s": (False, float),
    "forward_offset_s": (False, float),
    "weather": (True, _WEATHER),
    "pilot": (False, _PILOT),
    "system": (False, _SYSTEM),
    "cost_model": (False, _COST_MODEL),
    "sustained_check_tasks": (False, int),
}

_QUEUE_SWEEP = {
    "alerts": (True, int),
    "alert_interval_s": (True, float),
    "cores": (False, int),
    "estimated_runtime_s": (False, float),
    "data_size_bytes": (False, int),
    "threshold_bytes": (False, int),
    "system": (False, _SYSTEM),
    "delays": (True, _list_of(_QUEUE_DELAY)),
    "strategies": (False, _list_of(str)),
}

_TOP = {
    "name": (True, str),
    "kind": (True, str),
    "seed": (True, int),
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
        except (NetError, ConfigError) as exc:
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
