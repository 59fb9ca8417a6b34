"""girthforge benchmark: one command, every metric by name, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in one fresh
single-threaded child process (workload.py) for S seconds; between its
iterations the child times fresh interpreters importing ``girthforge.cli``
(setup_s).  Each metric is the median of its samples in the run.  --trace 0
reports the end-to-end metrics of BENCHMARK.json; --trace 1 reports its
per-layer metrics from a traced run and prints each layer's self time against
the end-to-end metric it feeds.  The last line of standard output is one JSON
object; the exit code is nonzero when any operation failed its correctness
check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
# Every run must end within 180 s; the child gets what is left of this.
RUN_LIMIT_S = 170


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}  max {max(values):.4f}  n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "girthforge" / "cli.py").is_file():
        print(f"error: no girthforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    began = perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workdir = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    out_file = workdir / "result.json"
    out_file.unlink(missing_ok=True)
    child = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out_file),
    ]
    try:
        proc = subprocess.run(child, env=env, timeout=RUN_LIMIT_S - (perf_counter() - began))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out_file.is_file():
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out_file.read_text())
    attempted, failed = res["attempted"], len(res["failures"])
    for failure in res["failures"]:
        print(f"FAILED: {failure}")
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{res['iterations']} iterations in {res['elapsed_s']:.1f} s, one child process"
    )

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {}
    if args.trace:
        for line in res["trace"]["summary"]:
            print("  " + line)
        print(f"  spans written to {Path(res['trace']['spans_file']).relative_to(ROOT)}")
        values = res["trace"]["metrics"]
        for name in (m["name"] for m in bench["per_layer"]):
            metrics[name] = {"value": values[name], "unit": units[name]}
            shown = f"{values[name]:.6g}" if isinstance(values[name], float) else values[name]
            print(f"{name:<32} {shown} {units[name]}")
    else:
        gated = {m["name"] for m in bench["end_to_end"]}
        for name, values in res["samples"].items():
            value = median(values)
            note = "" if name in gated else "  (printed only: see perfbench/README.md)"
            print(f"{name:<12} median {value:.4f} s  {spread(values)}{note}")
            if name in gated:
                metrics[name] = {"value": value, "unit": units[name]}
        value = res["peak_rss_mb"]
        print(f"{'peak_rss_mb':<12} {value:.1f} MB (peak resident set size of the workload process)")
        metrics["peak_rss_mb"] = {"value": value, "unit": units["peak_rss_mb"]}
    print(f"{'failed_ops':<12} {failed / attempted:.4f} share ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
