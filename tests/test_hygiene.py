"""Source hygiene: no stale import, export or module-tour entry survives a
deletion.  Read with the standard library's `ast` from the source files."""
import ast
import re
from pathlib import Path

import pytest

import ricker_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ricker_lab"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_sources_are_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_exported_name_resolves():
    assert ricker_lab.__all__
    missing = [name for name in ricker_lab.__all__ if not hasattr(ricker_lab, name)]
    assert not missing


def _module_tour() -> list[tuple[str, list[str]]]:
    """(module file, backticked names) for each row of the README's module
    tour table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Module tour"))
    rows = []
    for line in lines[start + 1:]:
        if rows and not line.startswith("|"):
            break
        match = re.match(r"\| `(\w+\.py)` \| (.*) \|$", line)
        if match:
            rows.append((match[1], re.findall(r"`([A-Za-z_]\w*)`", match[2])))
    return rows


def test_module_tour_names_exist_in_their_modules():
    rows = _module_tour()
    assert len(rows) >= 7 and sum(len(names) for _, names in rows) >= 10
    missing = [
        (module, name)
        for module, names in rows
        for name in names
        if name not in _top_level_names(_tree(PACKAGE / module))
    ]
    assert not missing
