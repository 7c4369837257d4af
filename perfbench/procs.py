"""Child processes: one fresh interpreter per command, timed from the parent."""

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
TIMEOUT_S = 150.0


@dataclass
class ChildRun:
    argv: list
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float  # user plus system time of the child
    spawned_at: float  # time.monotonic() just before the spawn


def python_env(src_dir):
    """Environment for every child: the checkout's source tree first on the
    path, and single-threaded native libraries so no thread pool adds
    scheduling noise on a small machine."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run(argv, env, log_path):
    """Run argv to completion and time it.

    Peak RSS comes from ``os.wait4`` on this child alone, not from the
    running maximum over all children.  A child that outlives TIMEOUT_S
    is killed and reported with a non-zero code.
    """
    with open(log_path, "ab") as log:
        spawned_at = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        argv=list(argv),
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        spawned_at=spawned_at,
    )


def cli(args):
    """argv of one real CLI command: ``python3 -m mlcalib <args>``."""
    return [sys.executable, "-m", "mlcalib", *args]


def in_process(plan_path):
    """argv of the in-process runner (see child.py)."""
    return [sys.executable, CHILD, plan_path]
