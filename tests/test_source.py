"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regcat"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    # __init__.py imports names in order to re-export them
    found = {
        p.name: unused_imports(p.read_text())
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert "cli.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def defined_names(source: str) -> list[str]:
    """Functions, classes and constants a module defines at its top level, and
    the methods and properties of its classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [
                m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [name for name in names if not name.startswith("__")]


def references(source: str) -> set[str]:
    """Names a module reads, attributes it reads and names it imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name for a in node.names)
    return found


def unreferenced(src: Path, tests: Path) -> list[str]:
    """Top-level names, methods and properties of the package that neither it
    nor the tests refer to.

    An import counts, so a name ``__init__.py`` re-exports is referenced.
    """
    sources = [p.read_text() for p in [*sorted(src.glob("*.py")), *sorted(tests.glob("*.py"))]]
    used = set().union(*map(references, sources))
    return sorted(
        name
        for p in sorted(src.glob("*.py"))
        for name in defined_names(p.read_text())
        if name not in used
    )


def test_no_dead_code():
    members = (
        "class A:\n    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return 2\n"
    )
    assert defined_names(members) == ["A", "used", "size"]
    assert unreferenced(SRC, TESTS) == []


def self_calls(source: str) -> list[str]:
    """Functions, nested ones and methods included, that call themselves by name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                called = [n.func for n in ast.walk(child) if isinstance(n, ast.Call)]
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(f, ast.Name) and f.id == child.name for f in called
                ):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_no_recursion():
    # every search keeps its own stack, so no input depth meets the recursion limit
    found = {p.name: self_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    nested = "def f(n):\n    def g():\n        return g()\n    return f(n)\n"
    assert self_calls(nested) == ["f", "f.g"]
    assert {name: calls for name, calls in found.items() if calls} == {}


def indented_dumps(source: str) -> list[int]:
    """Lines that call ``dumps`` (``json.dumps`` or a bare import) with an ``indent``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(k.arg == "indent" for k in node.keywords)
    ]


def test_every_report_goes_through_the_one_writer():
    # json.dumps runs its pure-Python encoder whenever indent is set
    assert indented_dumps("import json\nx = 1\njson.dumps(x, indent=2)\ndumps(x, indent=None)\n"
                          "json.dumps(x)\n") == [3, 4]
    found = {p.name: indented_dumps(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
