"""Mutation runs of the bundled scenarios: each case sets one numeric leaf to a
value that Python's `json` reads but a scenario may not hold (NaN, Infinity,
-0.0, 0 or 1e-9), and `fabric run` must end in exit 0, 1 or 2, with no
traceback, before a per-case alarm. A fixed, seeded sample runs here; every
case can be listed with `mutation_cases()`."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import signal

import pytest

from fabricsim.cli import main
from fabricsim.scenario import BUNDLED, load_scenario

VALUES = (math.nan, math.inf, -0.0, 0, 1e-9)
SAMPLE, SAMPLE_SEED = 60, 25
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


def mutation_cases() -> list[tuple[str, tuple, float]]:
    return [(name, path, value) for name in BUNDLED
            for path in numeric_leaves(load_scenario(name)) for value in VALUES]


def _case_id(case) -> str:
    name, path, value = case
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


def run_mutated(tmp_path, name: str, path: tuple, value) -> tuple[int, str]:
    """`run_within_alarm` on bundled `name` with the leaf at `path` set to `value`."""
    config = load_scenario(name)
    if name == "e2e_cups":
        config["cups"]["duration_s"] = SHORT_CUPS_S
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return run_within_alarm(tmp_path, config)


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
