"""Every exported name resolves, so removing a name cannot leave it in an ``__all__``."""

import importlib
import pkgutil

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
