"""Mutation runs of the bundled scenarios: each case sets one numeric leaf to a
value that Python's `json` reads but a scenario may not hold (NaN, Infinity,
-0.0, 0, 1e-9, 1e15 or +-1e308), and `fabric run` must end in exit 0, 1 or 2,
with no traceback, before a per-case alarm; a value the leaf's schema row
rejects exits 2 naming the key. The bound walk takes each finite bound of each
leaf's row: the first value past it exits 2 naming the key, and the last value
within it passes the schema. Every bound case and a fixed, seeded sample of the
mutation cases run here; every mutation case can be listed with
`mutation_cases()`."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import signal

import pytest

from fabricsim.cli import main
from fabricsim.errors import ConfigError
from fabricsim.scenario import _TOP, BUNDLED, load_scenario, validate_scenario

VALUES = (math.nan, math.inf, -0.0, 0, 1e-9, 1e15, 1e308, -1e308)
SAMPLE, SAMPLE_SEED = 96, 25
ALARM_S = 5
SHORT_CUPS_S = 3 * 3600.0  # e2e_cups runs 4 h; three keep the sample near 5 s


def numeric_leaves(node, path=()):
    """Key paths of every int or float (not bool) under `node`."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_leaves(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def schema_row(path: tuple):
    """The schema row of the leaf at `path`: a mapping's field, a list's or a
    name mapping's item, or one element of a pair."""
    kind = _TOP
    for key in path:
        if isinstance(kind, dict):
            kind = kind[key][1]
        elif hasattr(kind, "items"):
            kind = kind.items[key]
        else:
            kind = kind.item
    return kind


def key_name(path: tuple) -> str:
    """`path` as a config error names it: `topology.links[0].loss_prob`."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def mutation_cases() -> list[tuple[str, tuple, float]]:
    return [(name, path, value) for name in BUNDLED
            for path in numeric_leaves(load_scenario(name)) for value in VALUES]


def _step(value, direction: int, kind: type):
    """The next integer, or float, after `value` in `direction` (-1 or 1)."""
    return value + direction if kind is int else math.nextafter(value, direction * math.inf)


def bound_cases() -> list[tuple[str, tuple, float, bool]]:
    """(scenario, path, value, within) for the last value within and the first
    value past each finite bound of each leaf's row."""
    cases = []
    for name in BUNDLED:
        for path in numeric_leaves(load_scenario(name)):
            row = schema_row(path)
            for bound, is_open, out in ((row.lo, row.lo_open, -1), (row.hi, row.hi_open, 1)):
                if math.isfinite(bound):
                    within = _step(bound, -out, row.kind) if is_open else bound
                    past = bound if is_open else _step(bound, out, row.kind)
                    cases += [(name, path, within, True), (name, path, past, False)]
    return cases


def _case_id(case) -> str:
    name, path, value = case[:3]
    return f"{name}:{'.'.join(map(str, path))}={value!r}"


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` swallows it."""


def _on_alarm(signum, frame):
    raise Hang()


def run_within_alarm(tmp_path, config: dict, seconds: int = ALARM_S) -> tuple[int, str]:
    """`fabric run` on `config` in this process; returns (exit status, stderr).
    A run still going after `seconds` raises Hang."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(config))
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def mutated(name: str, path: tuple, value) -> dict:
    """Bundled `name`, with e2e_cups shortened, and the leaf at `path` set to `value`."""
    config = load_scenario(name)
    if name == "e2e_cups":
        config["cups"]["duration_s"] = SHORT_CUPS_S
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def run_mutated(tmp_path, name: str, path: tuple, value) -> tuple[int, str]:
    """`run_within_alarm` on bundled `name` with the leaf at `path` set to `value`."""
    return run_within_alarm(tmp_path, mutated(name, path, value))


_SAMPLE = random.Random(SAMPLE_SEED).sample(mutation_cases(), SAMPLE)


@pytest.mark.parametrize("case", _SAMPLE, ids=[_case_id(c) for c in _SAMPLE])
def test_mutated_bundled_scenario_ends_in_an_exit_status(tmp_path, case):
    try:
        code, err = run_mutated(tmp_path, *case)
    except Hang:
        pytest.fail(f"still running after {ALARM_S} s")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error: ")
    name, path, value = case
    try:
        schema_row(path)(value, key_name(path))
    except ConfigError:  # the row rejects it
        assert code == 2 and key_name(path) in err


_BOUNDS = bound_cases()


@pytest.mark.parametrize("case", _BOUNDS, ids=[
    f"{_case_id(c)}-{'within' if c[3] else 'past'}" for c in _BOUNDS])
def test_value_at_a_schema_bound(tmp_path, case):
    """Past the bound, `fabric run` exits 2 naming the key. Within it, the schema
    takes the value; it is not run, as a value at an upper bound can run for long."""
    name, path, value, within = case
    config = mutated(name, path, value)
    if within:
        try:
            validate_scenario(config)
        except ConfigError as exc:
            assert key_name(path) not in str(exc)
    else:
        code, err = run_within_alarm(tmp_path, config)
        assert code == 2
        assert err.startswith(f"config error: bad value for {key_name(path)}: ")
