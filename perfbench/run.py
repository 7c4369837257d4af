"""mlcalib benchmark: CLI wall time, throughput, peak RSS and set-up time,
plus a traced run for per-layer times and counts.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports the program from ``src/``.
Every CLI command runs in a fresh interpreter started by this process, one
at a time.  With ``--trace 0`` the run builds the workload's fixture
SETUPS times with ``mlcalib synth`` (``setup_s`` is the median), then
repeats the workload's command until ``--seconds`` of command wall time are
spent and reports the end-to-end metrics.  With ``--trace 1`` it builds the
fixture once, traced, and alternates untraced and traced runs of the
command; the traced runs give the per-layer metrics, and their wall time
against the untraced median gives ``trace.overhead_frac``.

Every output is checked (see checks.py); a command fails if it exits
non-zero or an output check fails.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record, with the environment and fixture fingerprints, goes to
``.perfbench/BENCH_<workload>[.trace].json``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy

import checks
import fixtures
import layers
import procs
from fixtures import FixtureSpec, Site

SETUPS = 3
MIN_SAMPLES = 3
MIN_TRACED = 2
# stop starting samples past this much command time, whatever MIN_SAMPLES says
MAX_MEASURE_S = 120.0
WORK_DIR = ".perfbench"
BINS = 15  # mlcalib's default --bins, which no workload overrides


def ramp(lo, hi, c):
    return ",".join(f"{lo + (hi - lo) * i / max(c - 1, 1):.4g}" for i in range(c))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fit | apply
    default_seed: int
    fixture: object  # seed -> FixtureSpec
    flags: tuple = ()
    split: tuple | None = None  # as checks.Reference.eval_rows takes it
    label: str | None = None  # report method label of the fitted rows

    def args(self, fixture_dir, out_dir):
        if self.command == "apply":
            inputs = ["--predictions", os.path.join(fixture_dir, "predictions.csv"),
                      "--params", os.path.join(fixture_dir, fixtures.PARAMS)]
        else:
            inputs = [f"--{key}={os.path.join(fixture_dir, name)}"
                      for key, name in zip(("predictions", "labels", "manifest"), fixtures.TRIPLE)]
        return [self.command, *inputs, *self.flags, "--out", out_dir]


def workloads(tiny=False):
    """The workloads by name; ``tiny`` shrinks every fixture for the self-test."""

    def size(full, small):
        return small if tiny else full

    c_fit = size(20, 4)
    minutes = size(200, 20)
    return {
        w.name: w
        for w in (
            Workload(
                "fit-10k", "fit", 2,
                lambda seed: FixtureSpec(
                    sites=(Site("synth", size(10000, 600), seed),),
                    classes=c_fit, true_t=ramp(0.6, 4.0, c_fit), true_b=ramp(-1.0, 1.0, c_fit)),
                ("--method", "ps", "--scope", "per-class", "--first-minutes", str(minutes)),
                split=("first-minutes", minutes), label="ps/per-class"),
            Workload(
                "apply-40k", "apply", 2,
                lambda seed: FixtureSpec(
                    sites=(Site("synth", size(40000, 400), seed),),
                    classes=c_fit, true_t=ramp(0.6, 4.0, c_fit), true_b=ramp(-1.0, 1.0, c_fit),
                    truth_params=True)),
            Workload(
                "sites-heldout", "fit", 1,
                lambda seed: FixtureSpec(
                    sites=tuple(
                        Site(f"site{k:02d}", size(250, 100) if k == 0 else size(1000, 200), 100 * seed + k)
                        for k in range(size(12, 3))),
                    classes=size(64, 6), true_t="2", true_b="0.5", stddev=3.0),
                ("--method", "ts", "--scope", "global", "--calib-dataset", "site00",
                 "--per-class", "--svg"),
                split=("held-out-dataset", "site00"), label="ts/global"),
        )
    }


class SetupError(RuntimeError):
    pass


def check_outputs(wl, out_dir, ref):
    """Problems in one command's outputs (empty list: correct)."""
    if wl.command == "apply":
        with open(os.path.join(ref.fixture_dir, fixtures.PARAMS)) as fh:
            params = json.load(fh)
        return checks.check_calibrated(os.path.join(out_dir, "calibrated.csv"), ref, params)
    problems, params = checks.check_params(os.path.join(out_dir, "params.json"), ref)
    report = os.path.join(out_dir, "report.json")
    problems += checks.check_report(report, ref, wl.split, BINS, params, wl.label)
    if "--svg" in wl.flags:
        problems += checks.check_svgs(out_dir, report)
    return problems


def outputs_digest(out_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        digest.update(fixtures.sha256(os.path.join(out_dir, name)).encode())
    return digest.hexdigest()


def corrupt_one_digit(path):
    """Change the first significant digit of the first number after the
    header line (CSV) or after the first "ece" key (JSON)."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        start = text.index('"ece":')
    else:  # the first cell after the first data row's sample id
        start = text.index(",", text.index("\n")) + 1
    i = next(k for k in range(start, len(text)) if text[k] in "123456789")
    text = text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]
    with open(path, "w") as fh:
        fh.write(text)


class Runner:
    """One benchmark run: fixture, samples, checks and the record."""

    def __init__(self, wl, seed, seconds, corrupt):
        self.wl, self.seconds, self.corrupt = wl, seconds, corrupt
        self.work = os.path.join(WORK_DIR, wl.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.log = os.path.join(self.work, "children.log")
        self.env = procs.python_env(os.path.abspath("src"))
        self.spec = wl.fixture(seed)
        self.fixture_dir = os.path.join(self.work, "fixture")
        self.out_dir = os.path.join(self.work, "out")
        self.ref = None
        self.verified = None
        self.samples = []
        self.attempted = 0
        self.failed = 0

    def setup(self, traced):
        """Build the fixture SETUPS times (once if traced); keep the first.
        Returns (setup times, fingerprint, setup spans path or None)."""
        times, prints = [], []
        spans = os.path.join(self.work, "setup.spans.json") if traced else None
        for k in range(1 if traced else SETUPS):
            target = self.fixture_dir if k == 0 else f"{self.fixture_dir}{k}"
            start = time.perf_counter()
            child = fixtures.build(self.spec, target, self.env, self.log, spans)
            times.append(time.perf_counter() - start)
            self.attempted += 1
            if child.code != 0:
                raise SetupError(f"mlcalib synth exited {child.code}; see {self.log}")
            prints.append(fixtures.fingerprint(self.spec, target))
            if prints[-1] != prints[0]:
                self.failed += 1
                print(f"perfbench: fixture build {k} differs from build 0", file=sys.stderr)
            if k > 0:
                shutil.rmtree(target)
        self.ref = checks.Reference(self.fixture_dir)
        return times, prints[0], spans

    def sample(self, traced):
        """Run the command once, check its outputs and record the sample."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = self.wl.args(self.fixture_dir, self.out_dir)
        spans = None
        if traced:
            index = len(self.samples)
            spans = os.path.join(self.work, f"spans{index}.json")
            plan = os.path.join(self.work, f"plan{index}.json")
            with open(plan, "w") as fh:
                json.dump({"commands": [args], "trace": True, "spans_out": spans}, fh)
            child = procs.run(procs.in_process(plan), self.env, self.log)
        else:
            child = procs.run(procs.cli(args), self.env, self.log)
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        if not problems:
            if self.corrupt:
                corrupt_one_digit(os.path.join(self.out_dir, self.corrupt))
            digest = outputs_digest(self.out_dir)
            if self.verified is None:
                try:
                    problems = check_outputs(self.wl, self.out_dir, self.ref)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if not problems:
                    self.verified = digest
            elif digest != self.verified:
                problems = ["outputs differ from the verified outputs of an earlier run"]
        for problem in problems[:5]:
            print(f"perfbench: {self.wl.command} failed: {problem}", file=sys.stderr)
        bytes_out = sum(
            os.path.getsize(os.path.join(self.out_dir, f))
            for f in os.listdir(self.out_dir)
            if f.startswith("report.") or f.endswith(".svg")
        ) if os.path.isdir(self.out_dir) else 0
        self.attempted += 1
        self.failed += bool(problems)
        record = {"traced": traced, "wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb,
                  "code": child.code, "problems": problems}
        self.samples.append(record)
        return child, spans, bytes_out

    def spent(self):
        return sum(s["wall_s"] for s in self.samples)

    def walls(self, traced):
        return [s["wall_s"] for s in self.samples if s["traced"] == traced]

    def measure(self):
        setup_times, fingerprint, _ = self.setup(traced=False)
        while True:
            self.sample(False)
            walls = self.walls(False)
            spent = self.spent()
            if spent > MAX_MEASURE_S:
                break
            if len(walls) >= MIN_SAMPLES and spent >= self.seconds:
                break
        metrics = {
            "command_s": statistics.median(self.walls(False)),
            "peak_rss_mb": max(s["rss_mb"] for s in self.samples),
            "setup_s": statistics.median(setup_times),
        }
        notes = {
            "command_s": f"median of {len(self.samples)} `{self.wl.command}` runs",
            "peak_rss_mb": "highest per-command peak RSS (wait4)",
            "setup_s": f"median of {len(setup_times)} fixture builds",
        }
        extra = {"setup_times_s": setup_times}
        return metrics, notes, fingerprint, extra

    def measure_traced(self):
        _, fingerprint, setup_spans = self.setup(traced=True)
        with open(setup_spans) as fh:
            setup_doc = json.load(fh)
        write_fixture_s = layers.aggregate(setup_doc["spans"])[0].get(
            "synth.write_fixture", {"s": 0.0})["s"]
        input_bytes = sum(fingerprint["files"][name]["bytes"] for name in fixtures.TRIPLE)
        per_run, tables = [], []
        while True:
            self.sample(False)
            child, spans, bytes_out = self.sample(True)
            if child.code == 0:
                with open(spans) as fh:
                    doc = json.load(fh)
                values, table = layers.command_metrics(
                    doc, child.spawned_at, child.wall_s, input_bytes, bytes_out)
                per_run.append(values)
                tables.append(table)
                if doc["missing"] and len(per_run) == 1:
                    print(f"perfbench: trace targets not found: {', '.join(doc['missing'])}",
                          file=sys.stderr)
            spent = self.spent()
            if spent > MAX_MEASURE_S:
                break
            if len(self.walls(True)) >= MIN_TRACED and spent >= self.seconds:
                break
        if not per_run:
            raise SetupError(f"no traced run succeeded; see {self.log}")
        metrics = {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
        metrics["synth.write_fixture.s"] = write_fixture_s
        metrics["trace.overhead_frac"] = (
            statistics.median(self.walls(True)) / statistics.median(self.walls(False)) - 1.0)
        notes = {"trace.overhead_frac": f"{len(self.walls(True))} traced vs "
                                        f"{len(self.walls(False))} untraced runs"}
        return metrics, notes, fingerprint, {"layers": tables[-1] if tables else {}}


def environment():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                  timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=None, help="fixture seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=10.0, help="command wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny fixtures for the self-test")
    parser.add_argument("--corrupt", default=None, metavar="FILE",
                        help="change one digit of this output before it is checked (self-test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mlcalib", "__init__.py")):
        print("perfbench: no src/mlcalib here; run from the repository root", file=sys.stderr)
        return 2
    try:
        with open("BENCHMARK.json") as fh:
            declared = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wl = workloads(args.size == "tiny")[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    runner = Runner(wl, seed, args.seconds, args.corrupt)
    env = environment()
    # compile the program's bytecode once, as any installed copy would have it
    warm = procs.run([sys.executable, "-c", "import mlcalib.cli"], runner.env, runner.log)
    if warm.code != 0:
        print(f"perfbench: cannot import mlcalib from src/; see {runner.log}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, notes, fingerprint, extra = runner.measure_traced()
        else:
            metrics, notes, fingerprint, extra = runner.measure()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.fixture_dir, ignore_errors=True)
        shutil.rmtree(runner.out_dir, ignore_errors=True)

    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(metrics):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    record = {
        "workload": wl.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "environment": env, "fixture": fingerprint,
        "samples": runner.samples, **extra, **result,
    }
    suffix = ".trace" if args.trace else ""
    path = os.path.join(WORK_DIR, f"BENCH_{wl.name}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"perfbench {wl.name} seed={seed} trace={args.trace} -> {path}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"fixture: {fingerprint['n']}x{fingerprint['c']} = {fingerprint['cells']} cells, "
          f"{fingerprint['bytes']} bytes, predictions sha256 "
          f"{fingerprint['files']['predictions.csv']['sha256'][:16]}")
    if not args.trace:
        # command_s under the command's own name, and the throughput it implies
        print(f"  {wl.command + '_s':<34} {metrics['command_s']:.6g} s   ({notes['command_s']})")
        print(f"  {'mcells_per_s':<34} {fingerprint['cells'] / 1e6 / metrics['command_s']:.6g} "
              f"Mcell/s   ({fingerprint['cells']} input cells / command_s)")
    for name in wanted:
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {metrics[name]:.6g} {units[name]}{note}")
    print(f"  {'fail_frac':<34} {runner.failed / runner.attempted:.6g} 1   "
          f"({runner.failed} of {runner.attempted} commands failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
