"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import tcrtomo

MODULES = sorted(m.name for m in pkgutil.iter_modules(tcrtomo.__path__)
                 if m.name != "__main__")


def test_package_exports_resolve():
    for name in tcrtomo.__all__:
        getattr(tcrtomo, name)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"tcrtomo.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"tcrtomo.{module}.{name}"
