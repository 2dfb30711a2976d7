"""Every name a package module or script imports is used in that file.

There is no linter in the toolchain, so this walks the syntax tree of
each module instead: a name bound by an import statement must appear
as a name somewhere else in the module, or in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import wecfarm

ROOT = Path(__file__).resolve().parents[1]
# the package, then the stand-alone scripts that no test imports
MODULES = sorted(Path(wecfarm.__file__).parent.glob("*.py")) + sorted(
    [*(ROOT / "scripts").glob("*.py"), ROOT / "data" / "make_records.py"]
)


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
