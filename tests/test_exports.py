"""Every exported name resolves, so removing a name cannot leave it in an ``__all__``;
and the command-line entry point imports no heavier module than it needs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import girthforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(girthforge.__path__))


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
    for name in ("build_truncated", "line_from_params", "LUTruncationSpec", "WengerTruncationSpec"):
        assert namespace[name] is getattr(girthforge, name)


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
