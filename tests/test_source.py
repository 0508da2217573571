"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regcat"


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
