"""regcat benchmark: seeded workloads through real CLI calls, every output checked.

Usage (from the repository root)::

    python3 bench/run.py --workload ybe --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke            # every workload, small inputs, both modes

``--trace 0`` runs the workload's call sequence as ``python -m regcat.cli``
subprocesses, round-robin for ``--seconds``, and reports the end-to-end
metrics: ``wall_ref`` and ``cpu_ref``, ``peak_rss_mb``, ``setup_s`` (median
of trivial calls on the workspace) and ``ok_frac``, the share of calls whose
exit code and output were right.  ``wall_s`` and ``cpu_s`` are the sum over
the calls of each call's median wall and CPU seconds (children reaped with
``wait4``, so pool workers count); ``wall_ref`` and ``cpu_ref`` are the same
sums with each sample divided by the mean time of a fixed pure-Python loop
that ``hostclock.py`` ran while the call ran, so that they do not follow the
shared host's clock, whose speed changes by up to 40% from one minute to the
next.  ``wall_s``, ``cpu_s`` and
``failed_frac`` (one minus ``ok_frac``) are printed but left out of the
result, because a bound on them would judge the host, not the program.

``--trace 1`` runs the same calls in-process through ``regcat.cli.main``,
alternating an untraced and a traced pass, and reports the per-layer metrics
from the wrappers in ``tracing.py``; calls run with ``--jobs 1`` there, and
calls that ask for more workers run once more as written to time the pool.
Spans go to ``bench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import ELAPSED_RE, LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 7
DEADLINE_S = 170  # every run must end within 180 s

HOSTCLOCK_WINDOW_S = 0.25  # sampler passes this close to a call count for it
E2E_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "1"}
LAYER_UNITS = {
    "core.compose.calls": "count", "core.compose.self_s": "s",
    "core.finmap.constructed": "count", "core.all_maps.yielded": "count",
    "inverses.enumerate.busy_s": "s", "inverses.candidates": "count",
    "inverses.hits": "count", "inverses.hit_ratio": "1",
    "chains.find.busy_s": "s", "chains.candidates": "count",
    "chains.found": "count", "chains.hit_ratio": "1",
    "diagrams.semicommutative.busy_s": "s", "diagrams.commutative.busy_s": "s",
    "diagrams.obstruction.busy_s": "s", "diagrams.cycles3.busy_s": "s",
    "diagrams.edges_from.calls": "count", "diagrams.paths_composed": "count",
    "diagrams.cycles_walked": "count", "diagrams.map_compares": "count",
    "braiding.solve.busy_s": "s", "braiding.nodes": "count", "braiding.triples": "count",
    "braiding.solutions": "count", "braiding.node_yield": "1",
    "braiding.branch_max_s": "s", "braiding.branch_max_share": "1",
    "braiding.pool.created": "count", "braiding.pool.setup_s": "s",
    "dsl.parse.busy_s": "s", "dsl.parse.bytes": "B",
    "cli.import_s": "s", "cli.handler.busy_s": "s", "cli.render.busy_s": "s",
    "cli.render.bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}
# per-layer metrics that count work; they must repeat exactly between passes
COUNTERS = [k for k, u in LAYER_UNITS.items() if u in ("count", "B") and "pool" not in k]


def cli_env():
    """The caller's environment with ``src/`` as the only extra import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Checker:
    """Exit code, the call's own check, and byte-identity per ``same_as`` key."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._seen = {}

    def __call__(self, call, code, stdout):
        self.attempted += 1
        error = None
        if code != call.exit_code:
            error = f"exit code {code}, want {call.exit_code}"
        else:
            try:
                error = call.check(json.loads(stdout))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                error = f"unreadable report: {exc!r}"
        if error is None:
            normal = ELAPSED_RE.sub("0", stdout)
            if self._seen.setdefault(call.same_as, normal) != normal:
                error = f"output differs from an earlier call keyed {call.same_as!r}"
        if error is not None:
            self.failures.append(f"{' '.join(call.argv)}: {error}")
        return error is None


# --- end to end ---------------------------------------------------------------


def run_cli(argv, env, deadline, err_path):
    """One CLI subprocess: (exit code, stdout, wall s, cpu s, max rss MB)."""
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        # a session of its own, so the CLI and its pool workers die together
        proc = subprocess.Popen([sys.executable, "-m", "regcat.cli", *argv], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def host_reference(ticks, t0, t1):
    """Mean sampler pass time over a call that ran from t0 to t1 (monotonic)."""
    near = [d for t, d in ticks if t0 - HOSTCLOCK_WINDOW_S <= t <= t1 + HOSTCLOCK_WINDOW_S]
    if not near:
        near = [min(ticks, key=lambda tick: abs(tick[0] - (t0 + t1) / 2))[1]]
    return statistics.fmean(near)


def run_e2e(workload, seconds, workdir, checker, deadline):
    env = cli_env()
    err_path = workdir / "stderr.txt"
    rss = []

    def call(c):
        t0 = time.monotonic()
        code, out, wall, cpu, peak = run_cli(c.argv, env, deadline, err_path)
        t1 = time.monotonic()
        rss.append(peak)
        if not checker(c, code, out):
            checker.failures[-1] += " | stderr: " + err_path.read_text(errors="replace")[-300:]
        return wall, cpu, t0, t1

    call(workload.setup)  # warm-up: compiles bytecode, fills the page cache
    setup = [call(workload.setup)[0] for _ in range(SETUP_SAMPLES)]
    # Calls run round-robin; a call is not started once its last duration
    # would carry the run past ``seconds``, so runs end on time.
    clock_path = workdir / "hostclock.txt"
    sampler = subprocess.Popen([sys.executable, str(Path(__file__).with_name("hostclock.py")),
                                str(clock_path)], cwd=ROOT)
    calls = [[] for _ in workload.calls]  # (wall s, cpu s, start, end)
    try:
        while not (clock_path.exists() and clock_path.stat().st_size):  # its first pass
            if sampler.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the host-speed sampler made no pass")
            time.sleep(0.01)
        start = time.monotonic()
        for k in itertools.count():
            i = k % len(workload.calls)
            if k >= len(workload.calls):
                left = min(start + seconds, deadline) - time.monotonic()
                if calls[i][-1][0] > left:
                    break
            if i == 0:
                setup.append(call(workload.setup)[0])  # one more sample per iteration
            calls[i].append(call(workload.calls[i]))
    finally:
        sampler.terminate()
        sampler.wait()
    ticks = [tuple(map(float, line.split())) for line in clock_path.read_text().splitlines()
             if len(line.split()) == 2]
    # (wall s, cpu s, sampler pass s) per call sample
    samples = [[(w, c, host_reference(ticks, t0, t1)) for w, c, t0, t1 in s] for s in calls]
    print(f"# {len(ticks)} sampler passes; "
          f"{len(samples[0])} to {len(samples[-1])} samples of each of {len(samples)} calls; "
          f"wall s per call {[[round(w, 3) for w, _, _ in s] for s in samples]}; "
          f"sampler pass ms {[[round(r * 1000, 2) for _, _, r in s] for s in samples]}; "
          f"setup_s samples {[round(s, 4) for s in setup]}")
    return {
        "wall_s": sum(statistics.median(w for w, _, _ in s) for s in samples),
        "cpu_s": sum(statistics.median(c for _, c, _ in s) for s in samples),
        "wall_ref": sum(statistics.median(w / r for w, _, r in s) for s in samples),
        "cpu_ref": sum(statistics.median(c / r for _, c, r in s) for s in samples),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
    }


# --- traced, in process --------------------------------------------------------


def _jobs_one(argv):
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return tuple(argv)


def _pooled(call):
    return "--jobs" in call.argv and call.argv[call.argv.index("--jobs") + 1] != "1"


def run_in_process(argv, tracer=None):
    from regcat import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            code = cli.main(list(argv))
        else:
            tracer.open("cli.call")
            try:
                code = cli.main(list(argv))
            finally:
                tracer.close()
    return code, out.getvalue()


def import_seconds():
    """Median wall time of ``import regcat.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import regcat.cli; print(time.perf_counter() - t)"
    runs = [float(subprocess.run([sys.executable, "-c", code], env=cli_env(), cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(3)]
    return statistics.median(runs)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (timings in seconds)."""
    c = tracer.counts
    m = {k: c[k] for k in COUNTERS}
    m["core.compose.self_s"] = tracer.leaf_s["core"]
    m["inverses.hit_ratio"] = c["inverses.hits"] / c["inverses.candidates"] if c["inverses.candidates"] else 0.0
    m["chains.hit_ratio"] = c["chains.found"] / c["chains.candidates"] if c["chains.candidates"] else 0.0
    m["braiding.node_yield"] = c["braiding.solutions"] / c["braiding.nodes"] if c["braiding.nodes"] else 0.0
    for name in ("inverses.enumerate", "chains.find", "diagrams.semicommutative",
                 "diagrams.commutative", "diagrams.obstruction", "diagrams.cycles3",
                 "braiding.solve", "dsl.parse", "cli.handler", "cli.render"):
        m[f"{name}.busy_s"] = tracer.busy_s(name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.self_s(layer)
    spans = {s[1]: s for s in tracer.spans}
    branches = [s for s in tracer.spans if s[3] == "braiding.branch"]
    slowest = max(branches, key=lambda s: s[5] - s[4], default=None)
    m["braiding.branch_max_s"] = slowest[5] - slowest[4] if slowest else 0.0
    if slowest:
        solve = spans[slowest[2]]
        m["braiding.branch_max_share"] = m["braiding.branch_max_s"] / (solve[5] - solve[4])
    else:
        m["braiding.branch_max_share"] = 0.0
    return m


def run_traced(workload, seconds, checker, deadline, spans_path, run_id):
    sys.path.insert(0, str(SRC))
    import regcat.cli  # noqa: F401  (imported before the clock starts)

    calls = [(c, _jobs_one(c.argv)) for c in workload.calls]
    plain, traced, passes = [], [], []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        t = time.perf_counter()
        for c, argv in calls:
            checker(c, *run_in_process(argv))
        plain.append(time.perf_counter() - t)

        tracer = Tracer()
        tracer.install()
        t = time.perf_counter()
        try:
            for k, (c, argv) in enumerate(calls):
                tracer.call_id = f"{run_id}.{len(passes)}.{k}"
                before = dict(tracer.counts)
                checker(c, *run_in_process(argv, tracer))
                if not passes:
                    work = {key: n - before.get(key, 0) for key, n in tracer.counts.items()
                            if key in COUNTERS and n != before.get(key, 0)}
                    print(f"# call {k} ({' '.join(a for a in argv if '/' not in a)}): {work}")
        finally:
            tracer.restore()
        traced.append(time.perf_counter() - t)
        tracer.write(spans_path, f"{run_id}.{len(passes)}")
        passes.append(layer_metrics(tracer))

    for k in COUNTERS:
        if len({p[k] for p in passes}) > 1:
            checker.attempted += 1
            checker.failures.append(f"counter {k} differs between traced passes: "
                                    f"{[p[k] for p in passes]}")
    metrics = {k: (passes[0][k] if k in COUNTERS else statistics.median(p[k] for p in passes))
               for k in passes[0]}

    probe = Tracer()
    probe.install_pool_probe()
    try:
        for c in filter(_pooled, workload.calls):
            checker(c, *run_in_process(c.argv))
    finally:
        probe.restore()
    metrics["braiding.pool.created"] = probe.counts["braiding.pool.created"]
    metrics["braiding.pool.setup_s"] = probe.leaf_s["pool"]
    metrics["cli.import_s"] = import_seconds()
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"# {len(passes)} traced passes; untraced pass s {[round(p, 3) for p in plain]}; "
          f"traced pass s {[round(t, 3) for t in traced]}; spans in {spans_path.relative_to(ROOT)}")
    return metrics


# --- command line ---------------------------------------------------------------


def run(name, seed, seconds, trace, fault=False, smoke=False):
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, workdir, smoke=smoke, fault=fault)
        for path, text in workload.files.items():
            Path(path).write_text(text, encoding="utf-8")
        checker = Checker()
        if trace:
            spans_path = OUT / f"spans-{name}-{seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            metrics = run_traced(workload, seconds, checker, deadline, spans_path, f"{name}-{seed}")
            units = LAYER_UNITS
        else:
            # On SIGTERM, unwind so that the running CLI call is killed and
            # reaped.  Only here: a forked pool worker of an in-process call
            # would inherit the handler and could then ignore Pool.terminate.
            previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
            try:
                metrics = run_e2e(workload, seconds, workdir, checker, deadline)
            finally:
                signal.signal(signal.SIGTERM, previous)
            metrics["ok_frac"] = 1 - len(checker.failures) / checker.attempted
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in checker.failures:
        print(f"# FAILED {failure}")
    for key, unit in units.items():
        value = metrics[key]
        print(f"{key} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    if not trace:  # printed, not in the result: see the module docstring
        print(f"failed_frac {1 - metrics['ok_frac']:.6g} 1")
        print(f"wall_s {metrics['wall_s']:.6g} s")
        print(f"cpu_s {metrics['cpu_s']:.6g} s")
    return {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs; without --workload, every workload in both modes")
    parser.add_argument("--fault", action="store_true",
                        help="expect a wrong count, to show that the checker fails")
    args = parser.parse_args(argv)
    if not (SRC / "regcat" / "cli.py").is_file():
        print(f"error: no regcat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is not None:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.fault, args.smoke)
    elif args.smoke:
        results = [run(name, args.seed, 0, trace, args.fault, smoke=True)
                   for name in WORKLOADS for trace in (0, 1)]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {k: v for r in results for k, v in r["metrics"].items()},
        }
    else:
        parser.error("--workload is required without --smoke")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
