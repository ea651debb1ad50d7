"""The benchmark's measurement hooks against the simulator as it is now.

`perfbench/tracing.py` wraps simulator names in place (`Patcher.replace`
reads `vars(owner)[attr]`), so a rename or move of a wrapped name fails here
and not only when the benchmark runs. The workloads are cut down to a few
hundred operations.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_small_workloads_run_clean_under_the_bench_hooks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    seed = 16
    with tracing.Tracer() as tracer, tracing.AppendProbe() as probe:
        for wl in (workloads.C1Lossy(n=200), workloads.CupsWeek(hours=8),
                   workloads.ReplayChain(values=90, crash_stride=30)):
            root = tmp_path / wl.name
            root.mkdir()
            state = wl.build(root, seed, True, wl.inputs(seed))
            wl.execute(state, False)
            outcome = wl.check(state)
            wl.close(state)
            assert outcome.attempted > 0, wl.name
            assert (outcome.failed, outcome.wrong) == (0, 0), wl.name
    spans = tracer.self_times()
    assert tracer.counts["simcore.spawns"] > 0 and probe.latencies_us
    assert any(name.startswith("event:") for name in spans)
