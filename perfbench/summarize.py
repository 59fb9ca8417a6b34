"""Median and quartiles of each metric over saved benchmark runs.

    python3 perfbench/summarize.py RUN_OUTPUT...

Each argument is the standard output of one ``run.py`` run. Runs are grouped
by workload (taken from the output's ``workload`` line). The metrics are
those of the JSON line plus the printed-only ``<name> median <value>`` lines.
For each metric the script prints, as JSON, the median over runs, the
quartiles from ``statistics.quantiles(n=4)``, the number of runs, and the
spread (q3 - q1) / median.
"""

from __future__ import annotations

import json
import re
import sys
from statistics import median, quantiles


def summarize(paths: list[str]) -> dict:
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        name = next(line.split()[1] for line in lines if line.startswith("workload "))
        found = {metric: entry["value"] for metric, entry in json.loads(lines[-1])["metrics"].items()}
        for line in lines:
            printed = re.match(r"(\w+)\s+median ([0-9.]+) ", line)
            if printed and printed[1] not in found:
                found[printed[1]] = float(printed[2])
        for metric, value in found.items():
            values.setdefault(name, {}).setdefault(metric, []).append(value)
    out: dict[str, dict] = {}
    for name, metrics in sorted(values.items()):
        out[name] = {}
        for metric, vals in metrics.items():
            q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            med = median(vals)
            out[name][metric] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "n": len(vals),
                "spread": (q3 - q1) / med if med else None,
            }
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
