"""Metrics report assembly: one JSON report plus raw-series CSVs.

Every summary statistic in the report is computed from a raw series that is
itself emitted, so any figure can be recomputed offline from the CSVs. CSV
floats use shortest round-trip formatting; reports are key-sorted so a fixed
scenario and seed produce byte-identical output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REPORT_SCHEMA_VERSION = 1


def summarize(samples) -> dict:
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return {"n": 0, "mean": None, "sd": None}
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    }


def _csv_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_value(row.get(k)) for k in fieldnames})


def write_report(out_dir: str | Path, report: dict,
                 csv_series: dict[str, tuple[list[str], list[dict]]]) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = dict(report)
    report["schema_version"] = REPORT_SCHEMA_VERSION
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for name, (fieldnames, rows) in csv_series.items():
        write_csv(out_dir / f"{name}.csv", fieldnames, rows)
    return report_path
