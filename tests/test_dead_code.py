"""Every function, class and method of the package is used elsewhere in it."""

import ast
from collections import Counter
from pathlib import Path

import nice_einstein

PACKAGE = Path(nice_einstein.__file__).parent

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _attributes(tree: ast.AST) -> Counter:
    """Attribute names only: obj.name."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def unreferenced_definitions(package: Path) -> list[str]:
    """module.name, or module.Class.name for a method, of each unused non-dunder def or class.

    A function or class counts as used when its name occurs anywhere in the
    package (the package's __init__ included) outside its own definition,
    so recursion alone does not keep a function alive.  A method counts as
    used only when code outside it names it as an attribute, so a local
    variable of the same name does not keep it alive.
    """
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(package.glob("*.py"))}
    total = sum((_references(t) for t in modules.values()), Counter())
    attributes = sum((_attributes(t) for t in modules.values()), Counter())
    out = []
    for stem, tree in modules.items():
        methods = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, DEFS)}
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if id(node) in methods:
                if attributes[name] - _attributes(node)[name] == 0:
                    out.append(f"{stem}.{methods[id(node)]}.{name}")
            elif total[name] - _references(node)[name] == 0:
                out.append(f"{stem}.{name}")
    return out


def test_no_dead_definitions():
    assert unreferenced_definitions(PACKAGE) == []


def test_a_method_is_used_only_through_an_attribute(tmp_path):
    # the local name `row` and the method's own `self.row` do not keep it alive
    (tmp_path / "m.py").write_text(
        "class M:\n"
        "    def row(self):\n"
        "        return self.row\n\n"
        "    def col(self):\n"
        "        return 0\n\n\n"
        "def use(m):\n"
        "    row = 1\n"
        "    return m.col(), row\n\n\n"
        "use(M())\n")
    assert unreferenced_definitions(tmp_path) == ["m.M.row"]
