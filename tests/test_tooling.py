"""The sources stay readable by the oldest Python the package admits, and CI runs tier-1 on it and on newer ones."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = (ROOT / "pyproject.toml").read_text()
OLDEST = tuple(int(x) for x in re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT).groups())
MODULES = sorted([*(ROOT / "src" / "girthforge").glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_workflow_runs_the_tier1_command_on_the_oldest_and_current_python():
    yaml = pytest.importorskip("yaml")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    job = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())["jobs"]["tier1"]
    assert job["strategy"]["matrix"]["python-version"] == ["%d.%d" % OLDEST, "3.11", "3.12"]
    assert tier1 in [step.get("run") for step in job["steps"]]


def test_workflow_smoke_runs_the_traced_benchmark_after_tier1():
    # a traced run checks the probes and the pinned counts of every workload
    yaml = pytest.importorskip("yaml")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    job = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())["jobs"]["tier1"]
    runs = [step.get("run") for step in job["steps"]]
    smoke = [
        f"python3 perfbench/run.py --workload {name} --seed 1 --seconds 5 --trace 1"
        for name in ("lu3-n400-pipeline", "wenger2-n200-pipeline")
    ]
    assert runs[runs.index(tier1) + 1:] == smoke


def test_workflow_installs_exactly_the_test_extra():
    # a regex, not tomllib, which the oldest Python lacks; a package missing
    # from the extra would skip a test locally without a word
    extra = re.search(r"^test = \[(.*)\]$", PYPROJECT, re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    install = re.findall(r"^\s+run: python -m pip install (.+)$", workflow, re.M)
    assert len(install) == 1
    assert sorted(install[0].split()) == sorted(re.findall(r'"([^"]+)"', extra))
