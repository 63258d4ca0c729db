"""Median and quartile spread of recorded runs, per workload and metric.

Usage (from the repository root): python3 perfbench/summarize.py [RUN_JSON ...]

Reads the raw records that run.py leaves in .perfbench/runs/ (or the files
given).  Prints one JSON object: for each workload and trace mode, the seeds
and source hashes of the runs, and for every metric the number of runs, its
median, its first and third quartile as statistics.quantiles(values, n=4)
gives them, and the quartile spread as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main(paths) -> int:
    paths = paths or sorted(Path(".perfbench/runs").glob("*.json"))
    groups: dict[str, dict[str, list[float]]] = {}
    runs: dict[str, dict[str, list]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        meta = record["meta"]
        key = f"{meta['workload']}/trace{meta['trace']}"
        for field in ("seed", "src_sha256", "git_sha"):
            runs.setdefault(key, {}).setdefault(field, []).append(meta[field])
        for name, metric in record["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    out = {}
    for key, metrics in sorted(groups.items()):
        out[key] = {"seeds": sorted(runs[key]["seed"]),
                    "src_sha256": sorted(set(runs[key]["src_sha256"])),
                    "git_sha": sorted(set(filter(None, runs[key]["git_sha"])))}
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            out[key][name] = {"runs": len(values), "median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median if median else None}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
