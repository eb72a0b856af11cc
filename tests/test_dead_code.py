"""Every function, class and method of the package is used elsewhere in it."""

import ast
from collections import Counter
from pathlib import Path

import nice_einstein

PACKAGE = Path(nice_einstein.__file__).parent


def _references(tree: ast.AST) -> Counter:
    """Identifier uses: plain names, attribute names and imported names."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def unreferenced_definitions(package: Path) -> list[str]:
    """module.name of each non-dunder def or class no other code refers to.

    A name counts as used when it occurs anywhere in the package (the
    package's __init__ included) outside its own definition, so recursion
    alone does not keep a function alive.
    """
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(package.glob("*.py"))}
    total = sum((_references(t) for t in modules.values()), Counter())
    out = []
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - _references(node)[name] == 0:
                out.append(f"{stem}.{name}")
    return out


def test_no_dead_definitions():
    assert unreferenced_definitions(PACKAGE) == []
