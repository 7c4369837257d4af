"""Fast self-test of the benchmark itself (not of mlcalib).

    python3 perfbench/selftest.py

Run it from the repository root.  It runs every workload of BENCHMARK.json
at tiny size with ``--trace 0`` and ``--trace 1`` and checks that each run
ends with the result line, that ``correct`` holds, and that every declared
metric is printed by name and with its unit.  It then changes one digit of
``calibrated.csv`` (apply-40k) and of ``report.json`` (sites-heldout) after
each command and checks that every such command is counted as failed.
Last, it checks that a directory holding only BENCHMARK.json and the
benchmark exits non-zero without a result line.  Exit status 0 means all
checks passed.
"""

import json
import os
import shutil
import subprocess
import sys

from run import SETUPS, WORK_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd="."):
    argv = [sys.executable, os.path.join(HERE, "run.py"), *args,
            "--size", "tiny", "--seconds", "1", "--seed", "5"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result if isinstance(result, dict) else None


def check_run(declared, workload, trace):
    done = bench("--workload", workload, "--trace", str(trace))
    result = result_of(done)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0 or result is None:
        return [f"{where}: exit {done.returncode}, no result line\n{done.stderr[-2000:]}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {result}\n{done.stderr[-2000:]}")
    metrics = result.get("metrics", {})
    declared_metrics = declared["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared_metrics}:
        problems.append(f"{where}: metrics {sorted(metrics)} differ from BENCHMARK.json")
    for m in declared_metrics:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} printed as {got}")
        printed = [line.split() for line in done.stdout.splitlines()[:-1]]
        if not any(p[:1] == [m["name"]] and m["unit"] in p for p in printed):
            problems.append(f"{where}: no line names {m['name']} with unit {m['unit']}")
    return problems


def check_corrupted(workload, name):
    done = bench("--workload", workload, "--trace", "0", "--corrupt", name)
    result = result_of(done)
    where = f"{workload} with {name} corrupted"
    if done.returncode != 0 or result is None:
        return [f"{where}: exit {done.returncode}, no result line\n{done.stderr[-2000:]}"]
    commands = result["attempted"] - SETUPS
    if result["correct"] is not False or commands < 1 or result["failed"] != commands:
        return [f"{where}: expected every command to fail, got {result}"]
    return []


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark: must fail without a result."""
    bare = os.path.join(WORK_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "fit-10k",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result_of(done) is not None:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}"]
    return []


def main():
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            found = check_run(declared, workload, trace)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            problems += found
    for workload, name in (("apply-40k", "calibrated.csv"), ("sites-heldout", "report.json")):
        found = check_corrupted(workload, name)
        print(f"{'FAIL' if found else 'ok  '} {workload}: corrupted {name} counted as failed")
        problems += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} bare directory exits non-zero without a result")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
