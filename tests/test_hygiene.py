"""Source hygiene: no module of the package imports a name it never uses,
and no private module-level function or class is left unreferenced.

Stdlib `ast` only.  A name counts as used when it is read anywhere in
the module; names listed in the module's `__all__` are re-exports and
exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rft"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in referenced)


def test_no_unreferenced_private_definitions():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert unreferenced_privates(trees) == []


def assumed_literals(trees: dict[str, ast.Module]) -> list[str]:
    """Where the status literal "assumed" is written, as module.top-level name."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            found += [f"{module}.{where}" for node in ast.walk(top)
                      if isinstance(node, ast.Constant) and node.value == "assumed"]
    return sorted(found)


def test_one_function_assumes_obligations():
    # the obligation policy lives in tower.require alone
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert assumed_literals(trees) == ["tower.require"]
