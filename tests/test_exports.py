"""Every exported name resolves, so removing a name cannot leave it in an ``__all__``;
the names the benchmark harness reaches for resolve; and the command-line
entry point imports no heavier module than it needs."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import girthforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(girthforge.__path__))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_names():
    """The (module, name) pairs the benchmark harness's source reaches for.

    Every ``from girthforge.X import name``, and every ``m.name`` where m is
    bound by ``from girthforge import m``, in each file of the harness.
    """
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        modules = {}  # local name -> girthforge submodule
        for node in nodes:
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            package, _, module = node.module.partition(".")
            if package == "girthforge" and module:
                names.update((module, alias.name) for alias in node.names)
            elif package == "girthforge":
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        for node in nodes:
            owner = getattr(node, "value", None)
            if isinstance(node, ast.Attribute) and isinstance(owner, ast.Name) and owner.id in modules:
                names.add((modules[owner.id], node.attr))
    return sorted(names)


BENCHMARK_NAMES = benchmark_names()
# Test-only code that lives in tests/helpers.py, not in the package.
MOVED_TO_HELPERS = [
    ("truncation", "lu_edge_free"),
    ("truncation", "wenger_edge_free"),
    ("geometry", "point_on_line"),
    ("geometry", "line_from_params"),
    ("graphs", "root_orbits"),
]


def test_module_discovery_finds_the_package():
    assert {"families", "graphs", "truncation"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from girthforge.{module} import *", namespace)
    exported = importlib.import_module(f"girthforge.{module}").__all__
    assert exported and set(exported) <= set(namespace)


def test_package_names_resolve():
    namespace = {}
    exec("from girthforge import *", namespace)
    for name in ("build_truncated", "LUTruncationSpec", "WengerTruncationSpec"):
        assert namespace[name] is getattr(girthforge, name)


def test_the_benchmark_names_are_read_off_its_source():
    # both import forms are found: names imported from a submodule and attributes of an imported module
    assert {("truncation", "build_truncated"), ("cli", "run"), ("cli", "_lines_of")} <= set(BENCHMARK_NAMES)


def test_names_the_benchmark_uses_resolve(monkeypatch):
    for module, name in BENCHMARK_NAMES:
        assert hasattr(importlib.import_module(f"girthforge.{module}"), name), (module, name)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    # the probes replace vars(owner)[attr], so each must be the owner's own attribute
    for owner, attr, _, _ in traced.PROBES:
        assert attr in vars(owner), (owner, attr)
    for module, name in MOVED_TO_HELPERS:
        module = importlib.import_module(f"girthforge.{module}")
        assert name not in module.__all__ and not hasattr(module, name), name


def test_test_only_line_helpers_and_is_forest_are_gone():
    # line_through and point_at live in tests/helpers.py; a forest is a girth report without a witness
    from girthforge.geometry import AffineLineKD
    from girthforge import graphs

    assert not hasattr(AffineLineKD, "through") and not hasattr(AffineLineKD, "point_at")
    assert "is_forest" not in graphs.__all__ and not hasattr(graphs, "is_forest")


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # -S keeps the site hooks' own imports out of the check
    src = str(Path(girthforge.__file__).parents[1])
    code = "import sys, girthforge.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
