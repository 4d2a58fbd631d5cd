"""Source hygiene: no module of the package imports a name it never uses,
no private module-level function, class or assignment is left
unreferenced, only `rft.tower` reads whether a tower's base is free,
uses its map to a free group, looks a word up among its relator cores
or asks whether a word is a proper power, only the listed entry points
reduce a word they were given, only `intlinalg._column_hermite` runs an
integer elimination, and importing the CLI loads no `hashlib`,
`dataclasses` or `inspect`.

Stdlib `ast` only.  A name counts as used when it is read anywhere in
the module; names listed in the module's `__all__` are re-exports and
exempt.
"""

import ast
import subprocess
import sys
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
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for n in names:
                if n.startswith("_") and not n.startswith("__"):
                    defined[n] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def test_an_unread_private_assignment_is_caught():
    # assigning a name is not reading it
    tree = ast.parse("_UNREAD = (1, 2)\n_READ: int = 3\nx = _READ\n")
    assert unreferenced_privates({"m": tree}) == ["m._UNREAD"]


def write_only_fields(src: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The attributes that an `__init__` of `src` assigns on `self` and
    that no tree of `src` or `readers` ever loads, as module.Class.name.
    Name-based: a load of `x.name` on any object counts."""
    assigned: dict[str, str] = {}
    for module, tree in src.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not (isinstance(func, ast.FunctionDef) and func.name == "__init__"):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"):
                        assigned.setdefault(node.attr, f"{module}.{cls.name}.{node.attr}")
    loaded = {node.attr for tree in [*src.values(), *readers] for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(where for attr, where in assigned.items() if attr not in loaded)


def test_no_write_only_fields():
    # a record field that nothing reads is dead weight that every
    # construction still pays for
    root = SRC.parent.parent
    readers = [ast.parse(p.read_text(encoding="utf-8"))
               for d in ("tests", "bench") for p in sorted((root / d).glob("*.py"))]
    assert write_only_fields(_trees(), readers) == []


def test_a_write_only_field_is_caught():
    tree = ast.parse("class R:\n    def __init__(self, a, b):\n"
                     "        self.a = a\n        self.b = b\n\nprint(R(1, 2).a)\n")
    assert write_only_fields({"m": tree}, []) == ["m.R.b"]


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


def referrers(trees: dict[str, ast.Module], name: str) -> list[str]:
    """Modules that mention `name`: as a variable, as an attribute of some
    object, or as a name they import."""
    def mentions(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names))
    return sorted(module for module, tree in trees.items()
                  if any(mentions(node) for node in ast.walk(tree)))


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def test_only_the_tower_reads_free_base():
    # `Tower.element_key` is the one rule that groups elements by their
    # base images, so no second rule can grow beside it
    assert referrers(_trees(), "free_base") == ["tower"]


@pytest.mark.parametrize("name", ["free_map", "_WitnessFamily"])
def test_only_the_tower_uses_its_map_to_a_free_group(name):
    # `Tower._wp_at`, the one chain behind every tower word problem, is the
    # one place a word is proved nontrivial by a family member, so no
    # second rule can grow beside it
    assert referrers(_trees(), name) == ["tower"]


@pytest.mark.parametrize("name", ["relator_cores", "_relator_conjugate"])
def test_only_the_tower_reads_its_relator_cores(name):
    # the relator step of `Tower._wp_at` is the one place a word is proved
    # trivial as a conjugate of a defining relator, so no module grows a
    # shortcut beside the one chain
    assert referrers(_trees(), name) == ["tower"]


def test_only_the_tower_asks_whether_a_word_is_a_proper_power():
    # `Tower.root` and `Tower.non_power_map` are the one proper-power
    # answer, and `Tower.maximal_abelian` the one centralizing-lattice
    # answer; the CLI's selftest alone calls the period test besides
    trees = _trees()
    assert referrers(trees, "is_proper_power") == ["cli", "tower"]
    defined = {name.rsplit(".", 1)[-1] for tree in trees.values() for name, _ in _functions(tree)}
    for gone in ("centralizing_lattice", "_non_power_map"):
        assert gone not in defined and referrers(trees, gone) == []
    for module in ("embed", "flats"):
        imported = {alias.name for node in ast.walk(trees[module])
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & {"is_proper_power", "cyclic_reduce"}


def while_loops(tree: ast.Module) -> list[str]:
    """The functions of a module whose own body has a `while` loop."""
    return sorted(name for name, func in _functions(tree)
                  if any(isinstance(node, ast.While) for node in _own_nodes(func)))


def test_one_integer_elimination():
    # `_column_hermite` is the one elimination loop: solving, rank,
    # relations and unimodular completion all read its result, so no
    # second Euclid loop grows beside it, inside `rft.intlinalg` or out
    trees = _trees()
    assert while_loops(trees["intlinalg"]) == ["_column_hermite"]
    assert referrers(trees, "_column_hermite") == ["intlinalg"]


@pytest.mark.parametrize("module", ["hashlib", "dataclasses", "inspect"])
def test_importing_the_cli_loads_no_hashlib(module):
    # hashlib loads OpenSSL, a few MB of resident memory that only a
    # rendered report's digest needs; dataclasses (which pulls in inspect,
    # ast, dis and tokenize) and its generated methods took most of the
    # import time, so records are plain classes.  A fresh interpreter shows
    # whether an import pulled one in
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import rft.cli; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


# Where a word enters the engine, or the normal form that reduces the
# words the engine builds: the only functions that may reduce a word they
# were given.  Everything else takes its words as given.
REDUCING_ENTRY_POINTS = {
    "words.cyclic_reduce",
    "words.dehn_reduce",
    "words.GroupHom.__init__",
    "folding.walk",
    "folding.SubgroupGraph.__init__",
    "folding.SubgroupGraph.express",
    "graphgroups.VertexGroup.normalize",
    "graphgroups.normal_form",
    "tower.Tower.word_problem",
    "tower.attach_block",
    "tower.find_rf_witness",
    "core.CoverGraph.__init__",
    "embed.maximal_abelian_containing",
}


def _root_name(node: ast.AST):
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _own_nodes(func: ast.AST):
    """The nodes of a function body, not descending into nested functions."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, methods as Class.method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def _calls_reduce_word(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and bool(node.args)
            and "reduce_word" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def parameter_reductions(trees: dict[str, ast.Module]) -> list[str]:
    """Functions that pass one of their own parameters to `reduce_word`,
    directly or as the variable of a loop or comprehension over it (or
    over an attribute or item of it).  `self` and `cls` do not count."""
    found = set()
    for module, tree in trees.items():
        for name, func in _functions(tree):
            args = func.args
            given = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            given -= {"self", "cls"}
            loops = [n for n in _own_nodes(func) if isinstance(n, (ast.For, ast.comprehension))]
            grown = True
            while grown:
                grown = False
                for loop in loops:
                    if _root_name(loop.iter) in given:
                        for target in ast.walk(loop.target):
                            if isinstance(target, ast.Name) and target.id not in given:
                                given.add(target.id)
                                grown = True
            if any(_calls_reduce_word(node) and _root_name(node.args[0]) in given
                   for node in _own_nodes(func)):
                found.add(f"{module}.{name}")
    return sorted(found)


def test_words_are_reduced_once_at_the_entry_points():
    # the entry points reduce, and nothing else reduces a word it was given
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert parameter_reductions(trees) == sorted(REDUCING_ENTRY_POINTS)


def test_a_reduction_of_a_parameter_seen_through_a_call_is_caught():
    # a loop over `images.items()` reads the parameter `images`
    tree = ast.parse("def f(images):\n    for g, v in images.items():\n"
                     "        reduce_word(v)\n")
    assert parameter_reductions({"m": tree}) == ["m.f"]
