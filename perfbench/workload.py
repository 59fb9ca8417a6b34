"""One workload run in a fresh single-threaded process; started by run.py.

Repeats the workload until the time budget is spent: the CLI chain
construct -> verify -> project -> export -> stats through ``cli.run``, and
after it, while they have used at most a third of the run, the workload's
field-graph checks through the library.  Between iterations it times fresh
interpreters importing ``girthforge.cli`` (setup_s).  Every operation is
checked against spec.json.  With --trace 1 each iteration also runs the same
chain and checks again with the program's functions probed by traced.py.
The raw samples, counts and failures go to the JSON file named by --out.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from girthforge import algebraic, cli, graphs  # noqa: E402
from girthforge.truncation import LUTruncationSpec, WengerTruncationSpec, build_truncated  # noqa: E402

import gate  # noqa: E402
import traced  # noqa: E402

SPEC_FILE = HERE / "spec.json"
CALLS = ("construct", "verify", "project", "export svg", "export edges", "stats")
# The chain calls behind each stage metric, by index into CALLS.
STAGES = {"construct_s": (0,), "verify_s": (1,), "project_s": (2,), "export_s": (3, 4), "stats_s": (5,)}
# A stage faster than this is run again after the chain until it has used
# this much time, so that cheap stages get enough samples for a steady median.
CHEAP_S = 0.25
MAX_REPEATS = 20
CHECK_SHARE = 1 / 3
# setup_s samples: SETUP_EACH after every iteration, and at least SETUP_MIN
# in a run, so that they are spread over the run like the other samples.
SETUP_EACH = 3
SETUP_MIN = 20


def time_setup() -> float:
    """Wall time of one fresh interpreter importing the CLI."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import girthforge.cli"], check=True)
    return perf_counter() - start


def file_set(workdir: Path, tag: str) -> dict[str, Path]:
    return {key: workdir / f"{tag}.{key}" for key in ("arr", "planar", "svg", "edges")}


def chain_argv(wl: dict, paths: dict, seed: int) -> list[list[str]]:
    """The CLI invocations of one chain, in order."""
    c = wl["construct"]
    verify = []
    for key, value in wl["verify"].items():
        verify += ["--" + key.replace("_", "-"), str(value)]
    arr, planar = str(paths["arr"]), str(paths["planar"])
    return [
        ["construct", "--family", c["family"], "--k", str(c["k"]), "--n", str(c["n"]), "--out", arr],
        ["verify", "--in", arr, *verify],
        ["project", "--in", arr, "--out", planar, "--seed", str(seed)],
        ["export", "--in", planar, "--out", str(paths["svg"]), "--format", "svg"],
        ["export", "--in", arr, "--out", str(paths["edges"]), "--format", "edges"],
        ["stats", "--in", arr],
    ]


def cli_call(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        rc = cli.run(argv)
        elapsed = perf_counter() - start
    return rc, out.getvalue() + err.getvalue(), elapsed


def build_field_graph(fg: dict):
    if fg["family"] == "lu":
        return algebraic.build_lu_graph(algebraic.LUParams(fg["k"], fg["q"]))
    return algebraic.build_wenger_graph(algebraic.WengerParams(fg["k"], fg["q"]))


def truncation_spec(construct: dict):
    cls = LUTruncationSpec if construct["family"] == "lu" else WengerTruncationSpec
    return cls(construct["k"], construct["n"])


class Run:
    """Samples, operation counts and failures of one workload run."""

    def __init__(self, wl: dict, workdir: Path, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.paths = file_set(workdir, "cli")
        # Insertion order is the order run.py prints the metrics in.
        self.samples: dict[str, list[float]] = {
            m: [] for m in ("setup_s", *STAGES, "pipeline_s", "check_s")
        }
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = traced.Tracer()
        self.layer_samples: dict[str, list[float]] = {}
        self.traced_pipeline: list[float] = []
        self.share_samples: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[str, float] | None = None

    def sample(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)

    def op(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)

    def chain(self) -> None:
        argvs = chain_argv(self.wl, self.paths, self.seed)
        start = perf_counter()
        results = [cli_call(argv) for argv in argvs]
        self.sample("pipeline_s", perf_counter() - start)
        for i, (rc, out, _) in enumerate(results):
            self.gate_call(i, rc, out)
        for metric, calls in STAGES.items():
            secs = sum(results[i][2] for i in calls)
            self.sample(metric, secs)
            spent, repeats = secs, 0
            while spent < CHEAP_S and repeats < MAX_REPEATS:
                secs = 0.0
                for i in calls:
                    rc, out, elapsed = cli_call(argvs[i])
                    self.gate_call(i, rc, out)
                    secs += elapsed
                self.sample(metric, secs)
                spent += secs
                repeats += 1

    def traced_chain(self) -> None:
        """The chain once more, each call under a cli.<command> span, with probes on."""
        tr = self.tracer
        results = []
        with traced.probes(tr):
            for argv in chain_argv(self.wl, self.paths, self.seed):
                with tr.span("cli." + argv[0]):
                    results.append(cli_call(argv))
        for i, (rc, out, _) in enumerate(results):
            self.gate_call(i, rc, out)
        # build_truncated without its brute-force cross-check, for cross_check_s.
        with tr.span("truncation.substitution"):
            build_truncated(truncation_spec(self.wl["construct"]), cross_check_limit=0)

    def gate_call(self, i: int, rc: int, out: str) -> None:
        """Count call i of the chain as one operation, failed unless its output is right."""
        wl, paths = self.wl, self.paths
        checks = (
            lambda: gate.check_digest(paths["arr"], wl["arr_sha256"]),
            lambda: gate.check_stdout("verify", out, wl["verify_stdout"]),
            lambda: gate.check_planar(paths["planar"], paths["arr"]),
            lambda: gate.check_svg(paths["svg"], **wl["sizes"]),
            lambda: gate.check_digest(paths["edges"], wl["edges_sha256"]),
            lambda: gate.check_stdout("stats", out, wl["stats_stdout"]),
        )
        self.op(f"{CALLS[i]}: exit code {rc}: {out.strip()}" if rc else checks[i]())

    def field_checks(self, tr: traced.Tracer | None = None) -> None:
        """Build each field graph, take its girth and search its forbidden cycle length."""
        found = []
        start = perf_counter()
        with traced.probes(tr) if tr else nullcontext():
            for fg in self.wl["field_graphs"]:
                with tr.span(f"check.{fg['name']}") if tr else nullcontext():
                    graph = build_field_graph(fg)
                    report = graphs.girth(graph)
                    witness = graphs.has_cycle_of_length(graph, fg["no_cycle_length"])
                found.append((fg, graph, report, witness))
        if tr is None:
            self.sample("check_s", perf_counter() - start)
        for fg, graph, report, witness in found:
            failure = None
            if report.girth != fg["girth"]:
                failure = f"{fg['name']}: girth {report.girth} != {fg['girth']}"
            self.op(failure or gate.check_cycle(graph, report.witness, fg["girth"]))
            self.op(None if witness is None else f"{fg['name']}: found a {fg['no_cycle_length']}-cycle {witness}")

    def traced_iteration(self, run_id: str) -> None:
        tr = self.tracer
        tr.begin_run(run_id)
        self.traced_chain()
        self.field_checks(tr)

        sums = tr.span_sums(run_id)
        for span, secs in sums.items():
            self.layer_samples.setdefault(f"{span}_s", []).append(secs)
        self.layer_samples.setdefault("truncation.cross_check_s", []).append(
            sums["truncation.build"] - sums["truncation.substitution"]
        )
        self.traced_pipeline.append(sum(sums[name] for name in traced.TOP_METRIC))
        selfs = tr.self_times(run_id)
        for layer in traced.LAYERS:
            total = sum(v for (_, lay), v in selfs.items() if lay == layer)
            self.layer_samples.setdefault(f"{layer}.self_s", []).append(total)
        for key, value in selfs.items():
            self.share_samples.setdefault(key, []).append(value)

        # spec.json pins the counts that do not depend on the seed; all counts,
        # project attempts and planar/svg sizes too, must repeat within a run.
        counts = tr.counts[run_id]
        if self.counts is None:
            self.counts = counts
            for key, pinned in self.wl["counts"].items():
                self.op(None if counts.get(key) == pinned else f"count {key} = {counts.get(key)}, pinned {pinned}")
        else:
            self.op(None if counts == self.counts else f"counts moved between iterations: {counts} != {self.counts}")

    def trace_report(self) -> dict:
        """Per-layer medians; the untraced stage medians also appear as cli.<metric>."""
        metrics = {name: median(values) for name, values in self.layer_samples.items()}
        metrics["trace.overhead_s"] = median(self.traced_pipeline) - median(self.samples["pipeline_s"])
        metrics.update(self.counts or {})
        for metric in STAGES:
            metrics[f"cli.{metric}"] = median(self.samples[metric])
        summary = []
        for metric in (*STAGES, "check_s"):
            base = median(self.samples[metric])
            for layer in traced.LAYERS:
                values = self.share_samples.get((metric, layer))
                if values:
                    secs = median(values)
                    summary.append(
                        f"{layer:<10} {secs:9.4f} s of {base:9.4f} s {metric:<12} "
                        f"({100 * secs / base:5.1f}%, n={len(values)})"
                    )
        return {"metrics": metrics, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    wl = json.loads(SPEC_FILE.read_text())["workloads"][args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, args.workdir, args.seed)
    time_setup()  # writes the bytecode cache, as the first use after install does

    start = perf_counter()
    deadline = start + args.seconds
    iterations, check_total, last_checks = 0, 0.0, 0.0

    def checks_due(at: float) -> bool:
        # At most one round of field-graph checks per chain, and at most
        # CHECK_SHARE of the run, so that long checks leave time for chains.
        return bool(args.trace) or check_total <= CHECK_SHARE * (at - start)

    while True:
        began = perf_counter()
        run.chain()
        last_chain = perf_counter() - began
        if checks_due(perf_counter()):
            checks_began = perf_counter()
            run.field_checks()
            last_checks = perf_counter() - checks_began
            check_total += last_checks
        if args.trace:
            run.traced_iteration(f"{args.workload}/seed{args.seed}/{iterations}")
        setup_began = perf_counter()
        for _ in range(SETUP_EACH):
            run.sample("setup_s", time_setup())
        last_setup = perf_counter() - setup_began
        iterations += 1
        now = perf_counter()
        # Stop before an iteration that would overrun the budget.
        if args.trace:
            upcoming = now - began
        else:
            upcoming = last_chain + last_setup + (last_checks if checks_due(now + last_chain) else 0.0)
        if now + upcoming > deadline:
            break
    while len(run.samples["setup_s"]) < SETUP_MIN:
        run.sample("setup_s", time_setup())

    result = {
        "samples": run.samples,
        "attempted": run.attempted,
        "failures": run.failures,
        "iterations": iterations,
        "elapsed_s": perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        spans_file = args.workdir / "spans.json"
        run.tracer.write(spans_file)
        result["trace"] = run.trace_report()
        result["trace"]["spans_file"] = str(spans_file)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
