"""Every name a package module or script imports is used in that file,
no package module keeps process-wide state it was not meant to, and
the learned model is imported only by the command line.

There is no linter in the toolchain, so this walks the syntax tree of
each module instead: a name bound by an import statement must appear
as a name somewhere else in the module, or in its ``__all__``. A
module-level empty mutable container is a cache or registry shared by
every caller in the process; only the caches named in
``ALLOWED_MODULE_STATE`` may exist, each with a comment stating the
measured traffic that keeps it. The surrogate module builds on the
physics modules, never the other way round, so inside the package only
the modules in ``SURROGATE_IMPORTERS`` may import it.
"""

import ast
from pathlib import Path

import pytest

import wecfarm

ROOT = Path(__file__).resolve().parents[1]
# the package, then the stand-alone scripts that no test imports
PACKAGE = sorted(Path(wecfarm.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted([*(ROOT / "scripts").glob("*.py"), ROOT / "data" / "make_records.py"])
ALLOWED_MODULE_STATE = {("hydro.py", "_dispersion_cache")}
SURROGATE_IMPORTERS = {"cli.py"}


def imported_names(tree):
    """(bound name, line) for every import in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((alias.asname or alias.name, node.lineno))
    return bound


def empty_containers(tree):
    """(bound name, line) for every module-level name bound to {}, [],
    dict(), list() or set()."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
                and not value.args
                and not value.keywords
            )
        )
        if empty:
            bound += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return bound


def package_imports(tree):
    """(package module, line) for every import of a wecfarm module, relative
    (``from . import x``, ``from .x import y``) or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (alias.name.split(".")[1], node.lineno)
                for alias in node.names
                if alias.name.startswith("wecfarm.")
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "wecfarm" and not module.startswith("wecfarm."):
                    continue
                module = module.removeprefix("wecfarm").removeprefix(".")
            if module:
                found.append((module.split(".")[0], node.lineno))
            else:
                found += [(alias.name, node.lineno) for alias in node.names]
    return found


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os", "dumps"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_keeps_no_unlisted_state(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{name} (line {line})"
        for name, line in empty_containers(tree)
        if (path.name, name) not in ALLOWED_MODULE_STATE
    ]
    assert not found, f"{path.name} binds module-level mutable state: {', '.join(found)}"


def test_checker_flags_module_level_containers():
    tree = ast.parse(
        "_a = {}\n_b: list = []\n_c = _d = dict()\n_e = set()\n_f = list()\n"
        "_g = {1: 2}\n_h = [0]\n_i = dict(a=1)\n_j = ()\n"
        "def f():\n    k = {}\n"
        "class C:\n    m = []\n"
    )
    assert [name for name, _ in empty_containers(tree)] == ["_a", "_b", "_c", "_d", "_e", "_f"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_command_line_imports_the_surrogate(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [line for module, line in package_imports(tree) if module == "surrogate"]
    if path.name not in SURROGATE_IMPORTERS:
        assert not lines, f"{path.name} imports the surrogate module (line {lines[0]})"


def test_checker_flags_every_form_of_a_package_import():
    tree = ast.parse(
        "from . import hydro, surrogate as s\nfrom .surrogate import ALL_TARGET_IDS\n"
        "import wecfarm.surrogate\nfrom wecfarm import nn\nfrom wecfarm.mbe import Layout\n"
        "import numpy\nfrom numpy import linalg\nimport wecfarmer\n"
        "def f():\n    from . import kernels\n"
    )
    assert package_imports(tree) == [
        ("hydro", 1), ("surrogate", 1), ("surrogate", 2), ("surrogate", 3), ("nn", 4),
        ("mbe", 5), ("kernels", 10),
    ]
