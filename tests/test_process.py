"""The CLI as a process: ``python -m regcat.cli`` in a fresh interpreter.

It ends through ``cli.run``, which skips interpreter teardown, so these tests
check what the process leaves behind: its output and exit code match ``main``
in-process, a large report arrives whole, no pool worker outlives it, and a
report that cannot be written ends without a traceback.
"""

import ast
import io
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from regcat.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regcat"
MAPS = str(ROOT / "fixtures" / "maps.rcw")
TRIANGLE = str(ROOT / "fixtures" / "triangle.rcw")
# argparse wraps help to the terminal width, which COLUMNS fixes
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]),
    "PYTHONIOENCODING": "utf-8",
    "COLUMNS": "80",
}
POOL_SOLVE = ("ybe", "--size", "3", "--mode", "regular", "--e", "identity", "--jobs", "2",
              "--count-only")


def command(*argv: str) -> list[str]:
    return [sys.executable, "-m", "regcat.cli", *argv]


def in_process(monkeypatch, *argv: str) -> tuple[int, bytes, bytes]:
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def as_process(*argv: str) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(command(*argv), env=ENV, cwd=ROOT, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def wide_inverses(tmp_path) -> list[str]:
    """A call whose ``--json`` report is about 2 MB: the 8,192 inner inverses
    of a constant map from 2 points to 13."""
    ys = [f"y{i}" for i in range(13)]
    text = (f"set X = {{ a, b }}\nset Y = {{ {', '.join(ys)} }}\n"
            f"map f : X -> Y {{ a -> y0, b -> y0 }}\n")
    path = tmp_path / "wide.rcw"
    path.write_text(text)
    return ["inverses", str(path), "--map", "f", "--kind", "inner", "--json"]


@pytest.mark.parametrize("argv, code", [
    (("check-map", MAPS, "--map", "f"), 0),
    (("inverses", MAPS, "--map", "f", "--kind", "outer", "--json"), 0),
    (("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len", "3"), 1),
    (("check-map", MAPS, "--map", "f", "--bogus"), 2),
    (("check-map", str(ROOT / "fixtures" / "missing.rcw"), "--map", "f"), 2),
    (("inverses", MAPS, "--map", "f", "--kind", "inner", "--max-space", "2"), 3),
    (("--help",), 0),
    (("ybe", "--help"), 0),
], ids=["holds", "json", "fails", "bad-flag", "unreadable", "refused", "help", "sub-help"])
def test_a_process_prints_what_main_prints(monkeypatch, argv, code):
    got = as_process(*argv)
    assert got[0] == code
    assert got == in_process(monkeypatch, *argv)


def test_a_large_report_arrives_whole_through_a_pipe(monkeypatch, wide_inverses):
    code, out, err = as_process(*wide_inverses)
    assert (code, err) == (0, b"")
    assert len(out) > 2_000_000
    assert (code, out, err) == in_process(monkeypatch, *wide_inverses)


@pytest.mark.parametrize("extra, code", [((), 0), (("--max-space", "3000"), 3)],
                         ids=["solved", "refused"])
def test_a_pool_leaves_no_process_behind(extra, code):
    # identity at size 3 outgrows the parent's 2,000 tables, so the solve forks
    # a pool; the refusal comes while both workers are busy
    proc = subprocess.Popen(command(*POOL_SOLVE, *extra), env=ENV, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == code, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
    assert (b"solutions = 5707" in out) == (code == 0)


@pytest.mark.parametrize("stderr", ["open", "closed"])
def test_a_reader_that_stops_early_gets_no_traceback(wide_inverses, stderr):
    # with descriptor 2 closed at start-up sys.stderr is None, and the error line is dropped
    closed = stderr == "closed"
    proc = subprocess.Popen(command(*wide_inverses), env=ENV, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL if closed else subprocess.PIPE,
                            preexec_fn=(lambda: os.close(2)) if closed else None)
    try:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = b"" if closed else proc.stderr.read()
        assert proc.wait(timeout=60) == 3
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert head.startswith(b'{\n  "command": "inverses"')
    assert err == (b"" if closed else b"error: cannot write the report: [Errno 32] Broken pipe\n")


def test_a_process_started_without_stdout_ends_as_main_returns():
    # with descriptor 1 closed at start-up sys.stdout is None and print writes nothing
    proc = subprocess.run(command("check-map", MAPS, "--map", "f"), env=ENV, cwd=ROOT,
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def exit_calls(source: str) -> list[str]:
    """The top-level functions (or ``<module>``) that call ``os._exit`` or a bare ``_exit``."""
    found = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        found += [where for call in ast.walk(node) if isinstance(call, ast.Call)
                  and getattr(call.func, "attr", getattr(call.func, "id", None)) == "_exit"]
    return found


def test_only_run_ends_the_process_without_teardown():
    assert exit_calls("import os\ndef f():\n    os._exit(0)\n_exit(1)\nos.exit(2)\n") == [
        "f", "<module>"]
    found = {p.name: exit_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {"cli.py": ["run"]}
