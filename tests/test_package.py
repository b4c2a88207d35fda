"""The public surface: every exported name resolves, the README's
module map lists every module, its Configuration section names every
config key, and its quick start calls the API as it is."""

import ast
import importlib
import inspect
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


def test_readme_quick_start_fits_the_api():
    """Every name the quick start imports from tcrtomo resolves, and every
    call of an imported callable binds to its signature (placeholder
    arguments; nothing runs)."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    imported = {alias.asname or alias.name: getattr(tcrtomo, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "tcrtomo" for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in imported]
    assert imported and calls
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        try:
            inspect.signature(imported[call.func.id]).bind(
                *call.args, **{kw.arg: None for kw in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"quick start line {call.lineno}: "
                                 f"{ast.unparse(call)}: {exc}") from exc
