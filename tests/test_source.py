"""Static checks on the package source."""

import ast
import inspect
from pathlib import Path

import regcat
from regcat import cli

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


def defined_names(source: str) -> tuple[list[str], list[str]]:
    """The functions, classes and constants a module defines at its top level,
    and the methods and properties of its classes."""
    top, members = [], []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            top += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            members += [
                m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return tuple([n for n in names if not n.startswith("__")] for names in (top, members))


def references(source: str) -> tuple[set[str], set[str]]:
    """The names a module reads or imports, and the attributes it reads."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    return names, attributes


def unreferenced(src: Path, tests: Path) -> list[str]:
    """Top-level names of the package that neither it nor the tests refer to,
    and methods and properties that neither reads as an attribute.

    An import counts, so a name ``__init__.py`` re-exports is referenced.
    """
    paths = [*sorted(src.glob("*.py")), *sorted(tests.glob("*.py"))]
    found = [references(p.read_text()) for p in paths]
    names = set().union(*(n for n, _ in found))
    attributes = set().union(*(a for _, a in found))
    unused = []
    for p in sorted(src.glob("*.py")):
        top, members = defined_names(p.read_text())
        unused += [n for n in top if n not in names | attributes]
        unused += [n for n in members if n not in attributes]
    return sorted(unused)


def test_no_dead_code():
    members = (
        "class A:\n    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return 2\n"
    )
    assert defined_names(members) == (["A"], ["used", "size"])
    # a local variable named like a method does not read the method
    assert references("size = 1\nprint(size, a.used)\n") == ({"print", "size", "a"}, {"used"})
    assert unreferenced(SRC, TESTS) == []


def names_read(source: str) -> set[str]:
    """The names a module reads: bare, or as an attribute of a sibling module
    it imports, such as ``diagrams.cycles_at``."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for a in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            read.add(node.attr)
    return read


# top-level names in src/ that no module there reads and regcat does not export
KEPT_UNREAD = {
    "_consistent": "bench/tracing.py counts braiding.nodes by wrapping it",
    "cycles_at": "bench/tracing.py counts diagrams.cycles_walked by wrapping it",
}


def test_every_unread_name_in_the_package_has_a_reason():
    # a method of the same name read on an object does not read the function
    source = "from . import diagrams as d\nwalk.cycles_at(d.path_compose)\n"
    assert names_read(source) == {"walk", "d", "path_compose"}
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    read = set().union(*map(names_read, sources)) | set(regcat.__all__)
    unread = [name for source in sources for name in defined_names(source)[0] if name not in read]
    assert sorted(unread) == sorted(KEPT_UNREAD)


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


def namespace_reads(function) -> set[str]:
    """The attributes a function reads of the parsed arguments, ``ns``."""
    tree = ast.parse(inspect.getsource(function))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ns"}


def unread_arguments(subcommands: dict) -> dict[str, list[str]]:
    """Per subcommand row, the arguments that neither its handler nor ``main`` reads."""
    by_main = namespace_reads(cli.main)
    found = {}
    for name, (_, handler, arguments) in subcommands.items():
        read = namespace_reads(handler) | by_main
        dests = [kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
                 for flag, kwargs in arguments]
        if unread := [dest for dest in dests if dest not in read]:
            found[name] = unread
    return found


def test_every_argument_a_subcommand_declares_is_read():
    ignored = {"check-map": ("", cli._cmd_check_map, [cli._FILE, cli._MAP, cli._MAX_SPACE])}
    assert unread_arguments(ignored) == {"check-map": ["max_space"]}
    assert unread_arguments(cli.SUBCOMMANDS) == {}
