"""Tests of the benchmark itself, on the small n=64 layered reference.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They show that the traced run writes the same files as the untraced one,
that the probes are removed afterwards, that exact counts repeat, and that
the correctness gate counts tampered outputs as failed operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import traced  # noqa: E402
import workload  # noqa: E402
from girthforge import cli, geometry  # noqa: E402
from girthforge.graphs import BipartiteGraph  # noqa: E402

SEED = 7
SMALL = {
    "construct": {"family": "lu", "k": 3, "n": 64},
    "sizes": {"points": 135, "lines": 2145, "incidences": 675},
    "verify": {"girth_at_least": 8, "no_cycle_length": 6, "min_point_degree": 4, "subgraph_prime": "minimal"},
    "field_graphs": [{"name": "D(3,3)", "family": "lu", "k": 3, "q": 3, "girth": 8, "no_cycle_length": 6}],
    "counts": {},
}


@pytest.fixture
def pinned(tmp_path):
    """SMALL with digests and expected output pinned from one clean CLI chain."""
    wl = dict(SMALL)
    paths = workload.file_set(tmp_path / "pin", "cli")
    paths["arr"].parent.mkdir()
    out = [workload.cli_call(argv)[:2] for argv in workload.chain_argv(wl, paths, SEED)]
    assert [rc for rc, _ in out] == [0] * 6
    wl["arr_sha256"] = gate.sha256_of(paths["arr"])
    wl["edges_sha256"] = gate.sha256_of(paths["edges"])
    wl["verify_stdout"] = out[1][1].splitlines()
    wl["stats_stdout"] = out[5][1].splitlines()
    return wl


def test_traced_chain_matches_untraced_bytes(tmp_path, pinned):
    """Probed calls return what the program returns: same files, same verify output."""
    run = workload.Run(pinned, tmp_path, SEED)
    run.chain()
    untraced = {key: path.read_bytes() for key, path in run.paths.items()}
    run.tracer.begin_run("r0")
    run.traced_chain()
    assert run.failures == []
    assert {key: path.read_bytes() for key, path in run.paths.items()} == untraced
    # verify passed the gate under probes, so the traced incidence_set_kd result
    # equalled the constructed file's edges; project wrote the CLI's bytes.
    spans = run.tracer.spans
    parent_of = {s[0]: spans[s[3]][0] for s in spans if s[3] is not None}
    assert parent_of["geometry.project"] == "geometry.project_generic"
    assert {spans[s[3]][0] for s in spans if s[0] == "geometry.incidence"} == {"cli.verify", "geometry.project_generic"}


def test_probes_put_the_originals_back():
    before = cli.incidence_set_kd, geometry.incidence_set_kd, cli.girth, cli._lines_of
    tr = traced.Tracer()
    tr.begin_run("r0")
    with traced.probes(tr):
        assert cli.incidence_set_kd is geometry.incidence_set_kd is not before[0]
    assert (cli.incidence_set_kd, geometry.incidence_set_kd, cli.girth, cli._lines_of) == before


def test_clean_run_has_no_failures_and_counts_repeat(tmp_path, pinned):
    run = workload.Run(pinned, tmp_path, SEED)
    for i in range(2):
        run.chain()
        run.field_checks()
        run.traced_iteration(f"r{i}")
    assert run.failures == []
    cli_calls = sum(len(run.samples[m]) * len(calls) for m, calls in workload.STAGES.items())
    # per iteration: 2 field-check ops untraced, 6 traced chain calls and 2 traced
    # field-check ops; then one op for the repeated counts
    assert run.attempted == cli_calls + 2 * (2 + 6 + 2) + 1
    assert run.tracer.counts["r0"] == run.tracer.counts["r1"]
    report = run.trace_report()["metrics"]
    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert names <= set(report)


def _gate_clean_output(run, wl):
    """Gate the files on disk as if every call of the chain had exited 0 with the pinned output."""
    verify = "\n".join(wl["verify_stdout"]) + "\n"
    stats = "\n".join(wl["stats_stdout"]) + "\n"
    for i, out in enumerate(("", verify, "", "", "", stats)):
        run.gate_call(i, 0, out)


def _tamper_last_incidence(path: Path, lines: int) -> None:
    rows = path.read_text().splitlines()
    pi, lj = rows[-1].split()
    rows[-1] = f"{pi} {(int(lj) + 1) % lines}"
    path.write_text("\n".join(rows) + "\n")


def test_gate_counts_tampered_arrangement(tmp_path, pinned):
    run = workload.Run(pinned, tmp_path, SEED)
    run.chain()
    assert run.failures == []
    _tamper_last_incidence(run.paths["arr"], 2145)
    _gate_clean_output(run, pinned)
    assert len(run.failures) == 2
    assert "sha256" in run.failures[0] and "cli.planar" in run.failures[1]


def test_gate_counts_tampered_planar(tmp_path, pinned):
    run = workload.Run(pinned, tmp_path, SEED)
    run.chain()
    _tamper_last_incidence(run.paths["planar"], 2145)
    _gate_clean_output(run, pinned)
    assert len(run.failures) == 1
    assert "cli.planar" in run.failures[0]


def test_moved_count_is_a_failed_operation(tmp_path, pinned):
    wl = dict(pinned, counts={"geometry.directions": 64})
    run = workload.Run(wl, tmp_path, SEED)
    run.chain()
    run.traced_iteration("r0")
    assert len(run.failures) == 1 and "geometry.directions" in run.failures[0]


def test_gate_rejects_wrong_girth_witness():
    square = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert gate.check_cycle(square, (0, 2, 1, 3), 4) is None
    assert gate.check_cycle(square, (0, 1, 2, 3), 4) is not None
