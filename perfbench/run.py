"""fabricsim benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload c1_lossy --seed 16 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 16
    python3 perfbench/run.py --workload cups_week --seed 16 --profile

A run sets up its workload several times (timed as `setup_s`), runs one
untimed warm-up iteration that is also the determinism reference, then runs
timed iterations until `--seconds` have passed. Every iteration uses the
same seed, so its simulated outputs must equal the reference's byte for
byte. Host time is this process's CPU time (see `workloads.host_clock`).
Host-time metrics are medians over the timed iterations; `setup_s` also
takes in the extra set-ups.

With `--trace 1` the timed iterations run with span tracing installed and
the run reports per-layer metrics instead; the tracing overhead is traced
host time minus the warm-up's untraced host time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it give
every metric with its unit and clock, and the run's provenance.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fabricsim  # noqa: E402

if Path(fabricsim.__file__).resolve().parent != ROOT / "src" / "fabricsim":
    raise SystemExit(f"fabricsim imported from {fabricsim.__file__}, "
                     f"not from this checkout's src/")

import scipy  # noqa: E402
from fabricsim.metrics import write_report  # noqa: E402
from fabricsim.runner import run_scenario  # noqa: E402
from fabricsim.scenario import BUNDLED, load_scenario  # noqa: E402

from tracing import AppendProbe, Tracer, perf  # noqa: E402
from workloads import WORKLOADS, Outcome, host_clock, sha256_json  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15


@dataclass
class Iteration:
    setup_s: float
    host_s: float
    outcome: Outcome
    latencies_us: list[int]
    digest: str
    layers: dict = field(default_factory=dict)


def time_setup(wl, inputs, root: Path, seed: int) -> float:
    """Seconds to build the workload, which is then closed without running."""
    root.mkdir(parents=True)
    gc.collect()
    try:
        with AppendProbe():
            t0 = host_clock()
            state = wl.build(root, seed, False, inputs)
            t1 = host_clock()
        wl.close(state)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return t1 - t0


def run_iteration(wl, inputs, root: Path, seed: int, *, ticker: bool,
                  tracer: Tracer | None = None) -> Iteration:
    """One build + execute + check in a fresh directory."""
    root.mkdir(parents=True)
    probe = AppendProbe()
    gc.collect()
    try:
        with probe, (tracer if tracer is not None else nullcontext()):
            t0 = host_clock()
            state = wl.build(root, seed, tracer is not None, inputs)
            t1 = host_clock()
            wl.execute(state, ticker)
            t2 = host_clock()
        outcome = wl.check(state)
        wl.close(state)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    digest = sha256_json([outcome.digest, probe.latencies_us])
    return Iteration(t1 - t0, t2 - t1, outcome, probe.latencies_us, digest)


# -- per-layer metrics --------------------------------------------------------

PER_LAYER_UNITS = {
    "simcore.events": "count", "simcore.spawns": "count", "simcore.self_s": "s",
    "framing.encodes": "count", "framing.decodes": "count",
    "framing.encode_s": "s", "framing.decode_s": "s",
    "framing.decodes_per_frame": "ratio",
    "netsim.sends": "count", "netsim.send_s": "s", "netsim.deliveries": "count",
    "netsim.deliver_s": "s", "netsim.drops": "count", "netsim.duplicates": "count",
    "transport.remote_appends": "count", "transport.size_requests": "count",
    "transport.attempts_per_append": "ratio", "transport.late_replies": "count",
    "transport.server_s": "s",
    "logstore.scans": "count", "logstore.scan_s": "s",
    "logstore.scan_entries.telemetry": "count", "logstore.scan_entries.df": "count",
    "logstore.scan_entries.cursor": "count", "logstore.scan_entries.other": "count",
    "logstore.recovers": "count", "logstore.recover_s": "s",
    "logstore.appends": "count", "logstore.append_s": "s",
    "logstore.dedup_hits": "count", "logstore.reads": "count",
    "logstore.creates": "count",
    "events.firings": "count", "events.handler_s": "s",
    "events.cursor_commits": "count", "events.handler_failures": "count",
    "dataflow.injects": "count", "dataflow.firings": "count",
    "dataflow.strict_nonfires": "count", "dataflow.compile_s": "s",
    "detect.evaluations": "count", "detect.eval_s": "s",
    "weather.unpacks": "count",
    "pilot.tasks": "count", "pilot.submits": "count", "pilot.queue_wait_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}

SIMCORE_SPANS = ("simcore.run", "simcore.schedule", "simcore.spawn",
                 "event:_WaitSlot.expire")


def layer_metrics(tracer: Tracer, it: Iteration) -> dict[str, float]:
    spans = tracer.self_times()
    counts = tracer.counts
    records = Counter(kind for sim in it.outcome.sims for _, kind, _ in sim.trace)

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def own(name):
        return spans.get(name, (0, 0.0))[1]

    deliveries = calls("transport.endpoint")
    acked = len(it.latencies_us)
    m = {
        "simcore.events": sum(n for k, (n, _) in spans.items() if k.startswith("event:")),
        "simcore.spawns": counts["simcore.spawns"],
        "simcore.self_s": sum(own(k) for k in SIMCORE_SPANS),
        "framing.encodes": calls("framing.encode"),
        "framing.decodes": calls("framing.decode"),
        "framing.encode_s": own("framing.encode"),
        "framing.decode_s": own("framing.decode"),
        "framing.decodes_per_frame": calls("framing.decode") / deliveries if deliveries else 0.0,
        "netsim.sends": calls("netsim.send"),
        "netsim.send_s": own("netsim.send"),
        "netsim.deliveries": deliveries,
        "netsim.deliver_s": own("event:Network._traverse"),
        "netsim.drops": records["drop"],
        "netsim.duplicates": records["duplicate"],
        "transport.remote_appends": counts["transport.remote_appends"],
        "transport.size_requests": counts["transport.size_requests"],
        "transport.attempts_per_append":
            counts["framing.encode:AppendRequest"] / acked if acked else 0.0,
        "transport.late_replies": records["late-reply"],
        "transport.server_s": own("transport.server"),
        "logstore.scans": calls("logstore.scan"),
        "logstore.scan_s": own("logstore.scan"),
        "logstore.recovers": calls("logstore.recover"),
        "logstore.recover_s": own("logstore.recover"),
        "logstore.appends": calls("logstore.append"),
        "logstore.append_s": own("logstore.append"),
        "logstore.dedup_hits": counts["logstore.dedup_hits"],
        "logstore.reads": counts["logstore.reads"],
        "logstore.creates": counts["logstore.creates"],
        "events.firings": counts["events.firings"],
        "events.handler_s": own("events.handler"),
        "events.cursor_commits": counts["events.cursor_commits"],
        "events.handler_failures": counts["events.handler_failures"],
        "dataflow.injects": counts["dataflow.injects"],
        "dataflow.firings": counts["dataflow.firings"],
        "dataflow.strict_nonfires": counts["dataflow.strict_nonfires"],
        "dataflow.compile_s": own("dataflow.compile"),
        "detect.evaluations": calls("detect.eval"),
        "detect.eval_s": own("detect.eval"),
        "weather.unpacks": counts["weather.unpacks"],
        "pilot.tasks": counts["pilot.tasks"],
        "pilot.submits": counts["pilot.submits"],
        "pilot.queue_wait_s": tracer.queue_wait_us / 1e6,
        "trace.spans": len(tracer.names),
    }
    for family in ("telemetry", "df", "cursor", "other"):
        m[f"logstore.scan_entries.{family}"] = counts[f"logstore.scan_entries.{family}"]
    return m


# -- one workload ----------------------------------------------------------------

END_TO_END = {
    # name: (unit, clock)
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "appends_per_s": ("1/s", "host"),
    "values_per_s": ("1/s", "host"),
    "sim_append_ms.p50": ("ms", "simulated"),
    "sim_append_ms.p90": ("ms", "simulated"),
}


def _pct(samples, q: float) -> float | None:
    return float(np.percentile(samples, q)) if len(samples) else None


def measure(wl, seed: int, seconds: int, trace: bool) -> dict:
    name = wl.name
    inputs = wl.inputs(seed)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [time_setup(wl, inputs, work / f"setup-{k}", seed)
                  for k in range(SETUP_REPEATS)]
        reference = run_iteration(wl, inputs, work / "reference", seed, ticker=False)
        timed: list[Iteration] = []
        tracer = None
        deadline = perf() + seconds
        while not timed or perf() < deadline:
            tracer = Tracer() if trace else None
            it = run_iteration(wl, inputs, work / f"iter-{len(timed)}", seed,
                               ticker=True, tracer=tracer)
            if tracer is not None:
                it.layers = layer_metrics(tracer, it)
                it.layers["trace.overhead_s"] = it.host_s - reference.host_s
            it.outcome.sims = []  # frees the simulators and their trace records
            timed.append(it)
        if tracer is not None:
            tracer.write_spans(WORK / "spans" / f"{name}-seed{seed}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def med(values):
        return float(statistics.median(values))

    lat_ms = np.asarray(reference.latencies_us, dtype=float) / 1e3
    e2e = {
        "setup_s": med(setups + [it.setup_s for it in timed]),
        "peak_rss_mb": peak_rss_mb,
        "appends_per_s": med([len(it.latencies_us) / it.host_s for it in timed]),
        "values_per_s": med([it.outcome.ok_ops / it.host_s for it in timed]),
        "sim_append_ms.p50": _pct(lat_ms, 50),
        "sim_append_ms.p90": _pct(lat_ms, 90),
    }
    cycle = [c for it in timed for c in it.outcome.cycle_ms]
    recovery = [r for it in timed for r in it.outcome.recovery_ms]
    attempted = sum(it.outcome.attempted for it in timed)
    failed = sum(it.outcome.failed for it in timed)
    deterministic = all(it.digest == reference.digest for it in timed)
    wrong = sum(it.outcome.wrong for it in [reference] + timed)
    layers = {}
    if trace:
        layers = {k: med([it.layers[k] for it in timed]) for k in PER_LAYER_UNITS}
    return {
        "workload": name, "seed": seed, "trace": trace,
        "timed_iterations": len(timed), "setup_samples": len(setups) + len(timed),
        "correct": deterministic and wrong == 0,
        "deterministic": deterministic, "wrong_outputs": wrong,
        "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": layers,
        "append_samples": len(lat_ms),
        "error_rate": failed / attempted,
        "sim_s_per_wall_s": med([it.outcome.sim_s / it.host_s for it in timed]),
        "sim_append_ms.p99": _pct(lat_ms, 99),
        "cycle_ms": {"p50": _pct(cycle, 50), "p95": _pct(cycle, 95), "n": len(cycle)},
        "recovery_ms": {"p50": _pct(recovery, 50), "p90": _pct(recovery, 90),
                        "n": len(recovery)},
        "host_s": [it.host_s for it in timed],
        "reference_host_s": reference.host_s,
        "sim_digest": reference.digest,
        "details": reference.outcome.details,
    }


# -- provenance --------------------------------------------------------------------

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def bundled_report_hashes() -> dict[str, str]:
    """sha256 of each bundled scenario's report.json at its default seed."""
    out = {}
    base = WORK / f"scenarios-{os.getpid()}"
    try:
        for scenario in BUNDLED:
            report, series, _ = run_scenario(load_scenario(scenario), base / scenario)
            path = write_report(base / scenario, report, series)
            out[scenario] = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return out


def provenance(seed: int, runs: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "run_count": runs,
        "bundled_report_sha256": bundled_report_hashes(),
    }


# -- output ------------------------------------------------------------------------

def print_report(r: dict) -> None:
    print(f"== {r['workload']}  seed={r['seed']}  timed iterations={r['timed_iterations']}"
          f"  (+1 warm-up)  correct={r['correct']}  deterministic={r['deterministic']}")
    print(f"   details: {json.dumps(r['details'], sort_keys=True)}")
    if not r["trace"]:
        for name, value in r["end_to_end"].items():
            unit, clock = END_TO_END[name]
            print(f"   {name:<22} {value:>14.6g} {unit:<5} {clock}")
        print(f"   {'error_rate':<22} {r['error_rate']:>14.6g} {'':<5} "
              f"{r['failed']} failed / {r['attempted']} attempted")
        print(f"   {'sim_s_per_wall_s':<22} {r['sim_s_per_wall_s']:>14.6g} {'s/s':<5} "
              f"simulated per host")
        print(f"   {'sim_append_ms.p99':<22} {r['sim_append_ms.p99']:>14.6g} {'ms':<5} "
              f"simulated")
        for key, pcts, what in (("cycle_ms", ("p50", "p95"), "host per simulated 30-min duty cycle"),
                                ("recovery_ms", ("p50", "p90"), "host, reopen after crash")):
            stats = r[key]
            for p in pcts:
                shown = f"{stats[p]:>14.6g}" if stats["n"] else f"{'n/a':>14}"
                print(f"   {key + '.' + p:<22} {shown} {'ms':<5} {what}, n={stats['n']}")
    else:
        for name, value in r["per_layer"].items():
            print(f"   {name:<34} {value:>14.6g} {PER_LAYER_UNITS[name]}")


def final_line(r: dict) -> str:
    if r["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in r["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in r["end_to_end"].items()}
    return json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": metrics})


def profile(name: str, seed: int) -> None:
    """One iteration under cProfile; tottime summed per fabricsim module."""
    wl = WORKLOADS[name]()
    inputs = wl.inputs(seed)
    prof = cProfile.Profile()
    prof.enable()
    run_iteration(wl, inputs, WORK / f"profile-{os.getpid()}", seed, ticker=False)
    prof.disable()
    src = str(ROOT / "src" / "fabricsim") + os.sep
    per_module: Counter = Counter()
    for (filename, _, _), row in pstats.Stats(prof).stats.items():
        tottime = row[2]
        if filename.startswith(src):
            module = "fabricsim." + filename[len(src):].removesuffix(".py").replace(os.sep, ".")
        elif "site-packages" in filename:
            module = filename.split("site-packages" + os.sep, 1)[1].split(os.sep, 1)[0]
        elif filename.startswith(str(ROOT / "perfbench")):
            module = "perfbench"
        elif filename == "~":
            module = "builtins (C)"
        elif filename.startswith("<"):
            module = "generated code"
        else:
            module = "stdlib"
        per_module[module] += tottime
    total = sum(per_module.values())
    print(f"== {name} seed={seed}: tottime per module under cProfile (total {total:.3f} s)")
    for module, t in per_module.most_common():
        print(f"   {module:<28} {t:>9.3f} s  {100 * t / total:5.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true",
                    help="run one iteration under cProfile instead of measuring")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.profile:
        for name in names:
            profile(name, args.seed)
        return 0
    results = [measure(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
               for name in names]
    for r in results:
        print_report(r)
    runs = sum(r["timed_iterations"] + 1 for r in results)
    print(json.dumps({"provenance": provenance(args.seed, runs),
                      "results": {r["workload"]: {k: r[k] for k in (
                          "sim_digest", "host_s", "reference_host_s", "setup_samples",
                          "append_samples", "error_rate", "sim_s_per_wall_s",
                          "sim_append_ms.p99",
                          "cycle_ms", "recovery_ms")}
                          for r in results}}, sort_keys=True))
    for r in results:
        print(final_line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
