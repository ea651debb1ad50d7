"""Reduced-size self-test of the benchmark harness.

The file name does not match pytest's `test_*.py` pattern, so the repository's
test suite does not collect it. Run it with either of

    python3 -m pytest -q perfbench/selftest.py
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from fabricsim import framing, logstore, transport  # noqa: E402
from workloads import C1Lossy, CupsWeek, ReplayChain  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = (lambda: C1Lossy(n=300), lambda: CupsWeek(hours=8),
         lambda: ReplayChain(values=90, crash_stride=30))


def test_untraced_runs_report_every_end_to_end_metric():
    for make in SMALL:
        r = run.measure(make(), seed=5, seconds=1, trace=False)
        line = json.loads(run.final_line(r))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(line["metrics"])
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert all(m["value"] > 0 for m in line["metrics"].values()), line


def test_traced_counts_repeat_exactly_at_one_seed():
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for make in SMALL:
        first = run.measure(make(), seed=7, seconds=1, trace=True)
        second = run.measure(make(), seed=7, seconds=1, trace=True)
        assert list(json.loads(run.final_line(first))["metrics"]) == names
        for name, unit in run.PER_LAYER_UNITS.items():
            if unit == "count":
                assert first["per_layer"][name] == second["per_layer"][name], name
        assert first["sim_digest"] == second["sim_digest"]


def test_c1_wire_path_decodes_each_frame_twice():
    r = run.measure(C1Lossy(n=300), seed=3, seconds=1, trace=True)
    assert r["per_layer"]["framing.decodes_per_frame"] == 2.0
    assert r["per_layer"]["netsim.drops"] > 0
    assert r["per_layer"]["logstore.recovers"] == 0


def test_hooks_are_removed_after_a_run():
    before = (transport.TransportClient.remote_append, framing.decode,
              vars(logstore.LogStore)["recover"])
    run.measure(ReplayChain(values=60, crash_stride=30), seed=2, seconds=1, trace=True)
    after = (transport.TransportClient.remote_append, framing.decode,
             vars(logstore.LogStore)["recover"])
    assert before == after


def _checked(wl, seed, tamper):
    """Build, run and check one iteration, letting `tamper` edit the state
    between the run and the check."""
    root = run.WORK / f"selftest-{wl.name}"
    run.shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        state = wl.build(root, seed, False, wl.inputs(seed))
        try:
            wl.execute(state, ticker=False)
            tamper(state)
            return wl.check(state)
        finally:
            wl.close(state)
    finally:
        run.shutil.rmtree(root, ignore_errors=True)


def test_checks_count_wrong_and_missing_outputs():
    def swap_payload(state):
        state["payloads"][0] = bytes(16)

    c1 = _checked(C1Lossy(n=100), 4, swap_payload)
    assert (c1.failed, c1.wrong) == (1, 1)

    def expect_one_more(state):
        state["values"] = state["values"] + [1]

    chain = _checked(ReplayChain(values=40, crash_stride=30), 4, expect_one_more)
    assert (chain.failed, chain.wrong, chain.attempted) == (1, 0, 41)


def test_cups_counts_evaluations_lost_past_retention():
    # 132 h holds 263 evaluations; the detector's output log keeps 256
    outcome = _checked(CupsWeek(hours=132), 16, lambda state: None)
    assert outcome.attempted == 263
    assert outcome.failed >= 7
    assert outcome.details["evaluations"] == 256


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
