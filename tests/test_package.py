"""The public surface: every exported name resolves, the README's
module map lists every module, and its Configuration section names
every config key."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tcrtomo
from tcrtomo.config import SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_readme_module_map_lists_every_module():
    readme = README.read_text()
    table = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    listed = [name for row in table.splitlines() if row.startswith("| `")
              for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == MODULES


def _leaves(tree):
    for key, sub in tree.items():
        yield from _leaves(sub) if isinstance(sub, dict) else (key,)


def test_readme_configuration_names_every_key():
    section = README.read_text().split("### Configuration", 1)[1]
    section = section.split("\n### ", 1)[0]
    missing = sorted({key for key in _leaves(SCHEMA)
                      if not re.search(rf"\b{key}\b", section)})
    assert missing == []
