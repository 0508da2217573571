"""Which modules a fresh interpreter loads for ``import regcat`` and for each subcommand."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regcat

ROOT = Path(__file__).resolve().parent.parent
MAPS = str(ROOT / "fixtures" / "maps.rcw")
TRIANGLE = str(ROOT / "fixtures" / "triangle.rcw")
SEARCH_MODULES = {"regcat.braiding", "regcat.chains", "regcat.diagrams"}
# importing dataclasses (which imports inspect) or decimal costs more than most
# commands' work; no command needs them, a refusal included
COSTLY_MODULES = {"dataclasses", "inspect", "decimal"}


def loaded(code: str) -> set[str]:
    """The regcat, multiprocessing, dataclasses, inspect and decimal modules
    loaded after running ``code`` in a fresh interpreter."""
    report = (
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0]"
        " in ('regcat', 'multiprocessing', 'dataclasses', 'inspect', 'decimal'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True, timeout=60).stdout
    return set(json.loads(out.splitlines()[-1]))


def after_cli(*argv: str, code: int = 0) -> set[str]:
    return loaded(
        "import contextlib, io\n"
        "from regcat.cli import main\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    assert main({list(argv)!r}) == {code}\n"
    )


def test_import_regcat_loads_no_submodule():
    assert loaded("import regcat") == {"regcat"}


def test_import_cli_loads_no_search_module():
    found = loaded("import regcat.cli")
    assert "regcat.cli" in found
    assert found & (SEARCH_MODULES | {"multiprocessing"} | COSTLY_MODULES) == set()


@pytest.mark.parametrize("argv", [
    ("inverses", MAPS, "--map", "f", "--kind", "inner"),
    ("check-map", MAPS, "--map", "f"),
])
def test_map_commands_load_no_search_module(argv):
    found = after_cli(*argv)
    assert "regcat.inverses" in found
    assert found & (SEARCH_MODULES | {"multiprocessing"} | COSTLY_MODULES) == set()


def test_chain_search_loads_chains_but_no_other_search_module():
    found = after_cli("chain", MAPS, "--map", "f", "--n", "2", "--search")
    assert "regcat.chains" in found
    unused = {"regcat.braiding", "regcat.diagrams", "multiprocessing"}
    assert found & (unused | COSTLY_MODULES) == set()


def test_a_refused_search_loads_no_costly_module():
    found = after_cli("chain", MAPS, "--map", "f", "--n", "20000", "--search", code=3)
    assert "regcat.chains" in found
    assert found & COSTLY_MODULES == set()


def test_diagram_loads_diagrams_but_not_braiding():
    found = after_cli("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative",
                      "--max-len", "2")
    assert "regcat.diagrams" in found
    assert found & ({"regcat.braiding", "multiprocessing"} | COSTLY_MODULES) == set()


def test_ybe_loads_neither_dataclasses_nor_inspect():
    found = after_cli("ybe", "--size", "2", "--mode", "regular", "--count-only", "--jobs", "1")
    assert "regcat.braiding" in found
    assert found & ({"multiprocessing"} | COSTLY_MODULES) == set()


def test_only_a_forking_solve_loads_multiprocessing():
    # a solve with --jobs 2 forks on 3 elements
    assert "multiprocessing" in after_cli(
        "ybe", "--size", "3", "--mode", "regular", "--count-only", "--jobs", "2")
    # and never on 2
    found = after_cli("ybe", "--size", "2", "--mode", "regular", "--count-only", "--jobs", "2")
    assert "regcat.braiding" in found and "multiprocessing" not in found
    found = after_cli("braid-check", str(ROOT / "fixtures" / "braid.rcw"), "--braiding", "swap",
                      "--e", "e0")
    assert "regcat.braiding" in found and "multiprocessing" not in found


def test_lazy_names_are_the_submodules_own():
    for name, module in regcat._SUBMODULE_OF.items():
        assert getattr(regcat, name) is getattr(importlib.import_module(f"regcat.{module}"), name)
    for module in regcat._SUBMODULES:
        assert getattr(regcat, module) is importlib.import_module(f"regcat.{module}")
    assert set(regcat.__all__) <= set(dir(regcat))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        regcat.no_such_name  # noqa: B018
