#!/usr/bin/env python3
"""Render the per-layer table of README.md from traced-run captures.

    python3 e2ebench/layer_table.py .bench_runs/*-trace1-*/metrics.json

Each argument is the metrics.json of one --trace 1 run; the last capture of
each workload wins. Prints one markdown row per per-layer metric.
"""

import json
import sys

WORKLOADS = ("analyze_bin", "confidence", "collect_store")


def main(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            capture = json.load(f)
        if capture.get("trace") and "per_layer" in capture:
            runs[capture["workload"]] = capture
    if not runs:
        print("layer_table: no traced captures given", file=sys.stderr)
        return 1
    layer_map = next(iter(runs.values()))["layer_map"]
    for entry in layer_map:
        name = entry["name"]
        unit = next(iter(runs.values()))["per_layer"][name]["unit"]
        cells = []
        for workload in WORKLOADS:
            run = runs.get(workload)
            cells.append("—" if run is None else f"{run['per_layer'][name]['value']:.4g}")
        print(f"| `{name}` | {unit} | {entry['moves']} | {entry['where']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
