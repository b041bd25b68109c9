"""Modules of the package reach each other only through public names."""

import ast
from pathlib import Path

import schedleak as sl

PACKAGE = Path(sl.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: Path) -> list[str]:
    """Another module's _private names that ``path`` imports or reads."""
    tree = ast.parse(path.read_text())
    modules = set()    # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("schedleak")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module in (None, "schedleak"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in private_uses(path)]
    assert found == []


def test_checker_sees_both_forms(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .policy import _helper\nfrom . import simulate\n"
                   "x = simulate._cell_config\n")
    assert private_uses(src) == ["m.py:1 imports _helper",
                                 "m.py:3 reads simulate._cell_config"]
