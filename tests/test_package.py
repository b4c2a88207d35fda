"""The public surface: every exported name resolves and has a caller in
the package or the benchmark, the README's module map lists every
module, its Configuration section names every config key, and its quick
start calls the API as it is."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import tcrtomo
from tcrtomo.autodiff import Tensor
from tcrtomo.config import SCHEMA

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


# public names of src/tcrtomo that no code in src/ or bench/ references,
# each kept for the reason given
UNREFERENCED = {
    "gradcheck": "acceptance 3's finite-difference gradient checks",
    "select_alphas": "acceptance 6 picks its solver weights with it",
    "write_sinogram_set": "writes the sets that reconstruct --input reads",
    "disc_image": "the test object of acceptance 1 and 2 and of demos 1-2",
}


def _defines(stmt):
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                        ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _references(stmt):
    """Names a statement reads, as a Name, an Attribute or an import."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_has_a_caller():
    """Each public top-level name of the package is read by some other
    top-level statement in src/ or bench/, unless UNREFERENCED lists it:
    what only tests reach belongs to the tests."""
    src = ROOT / "src" / "tcrtomo"
    stmts = [(path.parent == src, stmt)
             for path in sorted(src.glob("*.py")) + sorted(
                 (ROOT / "bench").glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    refs = [(stmt, _references(stmt)) for _, stmt in stmts]
    unreferenced = sorted(
        name for in_src, stmt in stmts if in_src for name in _defines(stmt)
        if not any(name in names for other, names in refs
                   if other is not stmt))
    assert unreferenced == sorted(UNREFERENCED)


OPERATORS = ({f"__{side}{op}__" for side in ("", "r", "i")
              for op in ("add", "sub", "mul", "matmul", "truediv",
                         "floordiv", "mod", "divmod", "pow", "lshift",
                         "rshift", "and", "xor", "or")}
             | {"__neg__", "__pos__", "__abs__", "__invert__",
                "__getitem__", "__setitem__", "__delitem__"})


def test_tensor_has_only_the_operators_in_use():
    """training.py and bench/layers.py write a - b and a * b on Tensors;
    every other op is called by name."""
    assert sorted(OPERATORS & set(vars(Tensor))) == ["__mul__", "__sub__"]


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
