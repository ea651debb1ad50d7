"""fabric: scenario runner and log inspector.

    fabric run --scenario <path|name> [--seed N] [--out DIR]
    fabric sweep --scenario <path|name> --seeds A..B [--out DIR]
    fabric log inspect <path>
    fabric scenarios

Exit status 0 means the scenario completed and every invariant held; 1 means
an invariant failed or the run errored; 2 means the configuration was
rejected.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from .errors import ConfigError, CorruptHeader, FabricError
from .logstore import LogStore
from .metrics import write_csv, write_report
from .runner import run_scenario
from .scenario import BUNDLED, SEED, load_scenario


def _cmd_run(args) -> int:
    try:
        config = load_scenario(args.scenario)
        if args.seed is not None:
            SEED(args.seed, "--seed")
        out_dir = Path(args.out or f"out-{config['name']}")
        report, series, ok = run_scenario(config, out_dir, seed=args.seed)
    except ConfigError as exc:  # rejected on load, or while the run is built
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FabricError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    path = write_report(out_dir, report, series)
    failed = [k for k, v in report.get("invariants", {}).items() if not v]
    print(f"report: {path}")
    if failed:
        print("invariants FAILED: " + ", ".join(failed), file=sys.stderr)
        return 1
    print("invariants: all held")
    return 0


def _parse_seed_range(text: str) -> range:
    try:
        lo, hi = text.split("..", 1)
        seeds = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ConfigError(f"bad seed range {text!r}; expected A..B") from exc
    SEED(seeds.start, "--seeds")
    if not seeds:
        raise ConfigError(f"bad value for --seeds: {text} is an empty range")
    return seeds


def _cmd_sweep(args) -> int:
    try:
        config = load_scenario(args.scenario)
        seeds = _parse_seed_range(args.seeds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_root = Path(args.out or f"out-{config['name']}-sweep")
    rows = []
    worst = 0
    for seed in seeds:
        out_dir = out_root / f"seed-{seed}"
        try:
            report, series, ok = run_scenario(config, out_dir, seed=seed)
        except FabricError as exc:
            print(f"seed {seed} failed: {exc}", file=sys.stderr)
            ok = False
        else:
            write_report(out_dir, report, series)
            print(f"seed {seed}: {'ok' if ok else 'INVARIANT FAILURE'}")
        rows.append({"seed": seed, "ok": ok})
        if not ok:
            worst = 1
    write_csv(out_root / "sweep_summary.csv", ["seed", "ok"], rows)
    return worst


def _cmd_log_inspect(args) -> int:
    path = Path(args.path)
    with tempfile.TemporaryDirectory() as scratch:
        return _inspect_copy(path, Path(scratch) / path.name)


def _inspect_copy(path: Path, copy: Path) -> int:
    """Recovery creates the `.dedup` sidecar, removes `.tmp` leftovers and, on
    close, rewrites a lagging header, so it reads a copy: the log stays as it was."""
    try:
        for suffix in ("", ".dedup"):
            if Path(f"{path}{suffix}").is_file():
                shutil.copyfile(f"{path}{suffix}", f"{copy}{suffix}")
        store = LogStore.recover(copy)
    except (FabricError, OSError) as exc:
        kind = "corrupt-header" if isinstance(exc, CorruptHeader) else type(exc).__name__
        print(json.dumps({"error": kind, "detail": str(exc).replace(str(copy), str(path))}))
        return 1
    dump = {
        "header": {
            "name": store.name,
            "element_size": store.element_size,
            "capacity": store.capacity,
            "next_seq": store.next_seq,
            "earliest_seq": store.earliest_seq,
        },
        "torn_entry_discarded": store.torn_discarded,
        "entries": [],
    }
    result = store.scan(store.earliest_seq, store.next_seq - 1)
    for entry in result.entries:
        dump["entries"].append({
            "seq": entry.seq,
            "message_id": entry.message_id.hex(),
            "created_at_us": entry.created_at_us,
            "payload_len": len(entry.payload),
            "payload_hex": entry.payload[:64].hex(),
        })
    store.close()
    print(json.dumps(dump, indent=2, sort_keys=True))
    return 0


def _cmd_scenarios(_args) -> int:
    for name in BUNDLED:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fabric",
                                     description="fabric simulator CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("--scenario", required=True,
                       help="path to a scenario file, or a bundled name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one scenario across seeds")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--seeds", required=True, help="range A..B, inclusive")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_log = sub.add_parser("log", help="log file tools")
    log_sub = p_log.add_subparsers(dest="log_command", required=True)
    p_inspect = log_sub.add_parser("inspect", help="dump a log file as JSON")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(fn=_cmd_log_inspect)

    p_list = sub.add_parser("scenarios", help="list bundled scenarios")
    p_list.set_defaults(fn=_cmd_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
