"""Every function, class and method in src/entroute is reached from src/.

A definition counts as reached when some code in src/entroute outside its
own body names it: as a Name, as the attribute of an Attribute, or as an
imported name.  A name is matched by its text alone, so this finds code
that nothing names, not code that nothing calls.  Only dunder methods,
which Python calls, and cli.main, the console entry point, are exempt.
Code that only tests call belongs in tests/ (oracles in tests/oracles.py).
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "entroute"
EXEMPT = {("cli", "main")}


def _names(node) -> collections.Counter:
    found = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and
    of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def unreached(src: pathlib.Path = SRC) -> list:
    """module.name of every definition in src that nothing there names
    outside its own body."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    total = sum((_names(t) for t in trees.values()), collections.Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or (module, qualname) in EXEMPT:
                continue
            if total[name] - _names(node)[name] == 0:
                out.append(f"{module}.{qualname}")
    return out


def test_src_holds_only_reached_code():
    assert unreached() == []


def test_guard_sees_a_test_only_definition(tmp_path):
    """A helper that only its own recursion names, or that only tests
    call, is reported; one named from another module is not."""
    (tmp_path / "a.py").write_text(
        "def walk(x):\n    return walk(x - 1) if x else 0\n\n"
        "def used():\n    pass\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n    def m(self):\n        pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import used\n\nC().x = used\n", encoding="utf-8")
    assert unreached(tmp_path) == ["a.walk", "a.C.m"]
