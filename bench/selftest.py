"""Self-test of the benchmark, on small inputs (about half a minute on two cores).

    python3 bench/selftest.py

Checks that
- the smoke mode prints every metric of BENCHMARK.json with its unit and
  finds every output correct;
- a wrong expected count (``--fault``) shows up as failed calls and
  ``ok_frac < 1``;
- two traced runs of each workload report identical counters;
- without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import COUNTERS, OUT, ROOT
from workloads import WORKLOADS

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def result_of(*args, cwd=ROOT):
    proc = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []

    code, smoke = result_of("--smoke")
    if code != 0 or not smoke or not smoke["correct"]:
        problems.append(f"smoke run failed: exit {code}, result {smoke and smoke['failed']} failed")
    else:
        got = {k: v["unit"] for k, v in smoke["metrics"].items()}
        if got != wanted:
            problems.append(f"smoke metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(wanted.items()))}")

    for name in WORKLOADS:
        _, faulty = result_of("--workload", name, "--smoke", "--fault", "--seconds", "0")
        if not faulty or faulty["correct"] or faulty["metrics"]["ok_frac"]["value"] >= 1:
            problems.append(f"{name}: an injected wrong expectation was not reported as a failure")
        runs = [result_of("--workload", name, "--smoke", "--trace", "1", "--seconds", "0")[1]
                for _ in range(2)]
        first, second = ({k: r["metrics"][k]["value"] for k in COUNTERS} for r in runs)
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            problems.append(f"{name}: counters differ between traced runs: {diff}")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ybe", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("without src/ the benchmark still printed a result or exited 0")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
