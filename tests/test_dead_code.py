"""Every function, class and method of the package is used elsewhere in it,
every name it exports is documented in README.md or used by its modules, and
every command-line option is named in README.md."""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

import nice_einstein
from nice_einstein.cli import build_parser

PACKAGE = Path(nice_einstein.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

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


def _uses(tree: ast.AST) -> Counter:
    """Plain names and attribute names; an import alone is not a use."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def undocumented_exports(package: Path, readme: str) -> list[str]:
    """Each name of the package's `__all__` that the README text never names
    and that no module but `__init__` uses outside the name's own definition."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(package.glob("*.py"))}
    exported = next(ast.literal_eval(node.value) for node in ast.walk(modules.pop("__init__"))
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    uses = sum((_uses(t) for t in modules.values()), Counter())
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and node.name in exported:
                uses[node.name] -= _uses(node)[node.name]
    documented = set(re.findall(r"\w+", readme))
    return [name for name in exported if name not in documented and uses[name] <= 0]


def test_every_export_is_documented_or_used():
    assert undocumented_exports(PACKAGE, README.read_text(encoding="utf-8")) == []


def test_an_export_needs_the_readme_or_a_caller(tmp_path):
    # `dead` is exported and calls itself, but nothing else uses it and the
    # README does not name it; `used` has a caller, `documented` a README line
    (tmp_path / "__init__.py").write_text(
        "from .m import dead, documented, used\n\n"
        "__all__ = [\"dead\", \"documented\", \"used\"]\n")
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def documented():\n    return 2\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else used()\n")
    readme = "`documented(x)` returns 2; `deadline` is another word.\n"
    assert undocumented_exports(tmp_path, readme) == ["dead"]


def undocumented_options(parser: argparse.ArgumentParser, readme: str) -> list[str]:
    """`command --option` for each option of each subcommand, nested ones
    included, that the README never names."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for command, p in sub.choices.items():
        for action in p._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                out += [f"{command} {x}" for x in undocumented_options(p, readme)]
            for opt in action.option_strings:
                if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme):
                    out.append(f"{command} {opt}")
    return out


def test_every_option_is_documented():
    assert undocumented_options(build_parser(), README.read_text(encoding="utf-8")) == []


def test_an_option_needs_its_own_readme_mention():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers()
    p = sub.add_parser("run")
    p.add_argument("--out")
    p.add_argument("--outdir")
    p.add_argument("--k")
    nested = sub.add_parser("catalog").add_subparsers().add_parser("list")
    nested.add_argument("--filter")
    # `--outdir` does not name `--out`, nor does `--kx` name `--k`
    assert undocumented_options(ap, "use `--outdir` or `--kx`") == [
        "run --out", "run --k", "catalog list --filter"]
