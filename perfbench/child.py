"""Run mlcalib CLI commands in one interpreter, optionally traced.

    python3 perfbench/child.py PLAN.json

PLAN.json holds ``{"commands": [[argv...], ...], "trace": bool,
"spans_out": path}``.  Each command goes through ``mlcalib.cli.main``
exactly as ``python3 -m mlcalib`` would run it.  With tracing on, the
public functions of every layer are wrapped under the names their callers
look up (``mlcalib.cli.load_dataset``, ``mlcalib.protocol.fit``, ...), and
each call becomes a span (name, start, end, parent) kept in memory.  The
spans, the import timestamp and a few probes are written to ``spans_out``
after the last command.  No file of the program is changed.

The exit status is that of the first command that fails, else 0.
"""

import sys
import time

import mlcalib.cli  # timed: interpreter start plus this import

IMPORTED_AT = time.monotonic()
IMPORTED_MODULES = len(sys.modules)

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

# (module, attribute, span name).  The attribute is the name under which the
# caller looks the function up, so the wrapper sees every call of that path.
TARGETS = (
    ("mlcalib.cli", "load_dataset", "core.load_dataset"),
    ("mlcalib.cli", "run_benchmark", "protocol.run_benchmark"),
    ("mlcalib.protocol", "split_first_minutes", "protocol.split_first_minutes"),
    ("mlcalib.protocol", "fit", "scaling.fit"),
    ("mlcalib.protocol", "apply_scaling", "scaling.apply_scaling"),
    ("mlcalib.cli", "apply_scaling", "scaling.apply_scaling"),
    ("mlcalib.scaling", "sigmoid", "scaling.sigmoid"),
    ("mlcalib.protocol", "bin_class", "metrics.bin_class"),
    ("mlcalib.protocol", "average_precision", "metrics.average_precision"),
    ("mlcalib.protocol", "calibration_scores", "metrics.calibration_scores"),
    ("mlcalib.protocol", "aggregate_multilabel", "metrics.aggregate_multilabel"),
    ("mlcalib.cli", "emit_report", "report.emit_report"),
    ("mlcalib.cli", "render_reliability_svg", "report.render_reliability_svg"),
    ("mlcalib.cli", "write_fixture", "synth.write_fixture"),
)
COMMANDS = ("cmd_fit", "cmd_apply", "cmd_synth")


class Recorder:
    """In-memory span store.  A span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.probes = {"core.rss_mb": 0.0, "fits": []}

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def after_load(self, args, kwargs, result):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.probes["core.rss_mb"] = max(self.probes["core.rss_mb"], rss)

    def after_fit(self, args, kwargs, result):
        # keep references only; the gradient is evaluated after the command
        z, y = args[0], args[1]
        self.probes["fits"].append((z, y, result))


def install(rec):
    """Wrap every target; returns (undo list, names of missing targets)."""
    undo = []
    missing = []
    hooks = {"core.load_dataset": rec.after_load, "scaling.fit": rec.after_fit}

    def replace(namespace, key, new):
        undo.append((namespace, key, namespace[key]))
        namespace[key] = new

    for module_name, attr, name in TARGETS:
        namespace = vars(importlib.import_module(module_name))
        if attr not in namespace:
            missing.append(f"{module_name}.{attr}")
            continue
        replace(namespace, attr, rec.span(name, namespace[attr], hooks.get(name)))

    cli = vars(mlcalib.cli)
    dispatch = cli.get("_DISPATCH", {})
    for attr in COMMANDS:
        if attr not in cli:
            missing.append(f"mlcalib.cli.{attr}")
            continue
        fn = cli[attr]
        wrapped = rec.span(f"cli.{attr}", fn)
        replace(cli, attr, wrapped)
        for key in [k for k, v in dispatch.items() if v is fn]:
            replace(dispatch, key, wrapped)
    return undo, missing


def uninstall(undo):
    for namespace, key, original in reversed(undo):
        namespace[key] = original


def grad_norms(fits):
    """Norm of scaling.gradients at each fitted optimum, over the
    parameters the method optimises (tau alone for ts, tau and b for ps)."""
    import numpy as np
    from mlcalib.scaling import gradients

    norms = []
    for z, y, (params, _trace) in fits:
        g_tau, g_b = gradients(z, y, params)
        g = np.ravel(g_tau)
        if params.method == "ps":
            g = np.concatenate([g, np.ravel(g_b)])
        norms.append(float(np.linalg.norm(g)))
    return norms


def fit_summary(fits):
    out = []
    for z, _y, (_params, trace) in fits:
        # a solver that stops on convergence records its own iteration count
        iters = getattr(trace, "iterations", None)
        out.append({"cells": int(z.size), "iters": int(trace.steps if iters is None else iters)})
    return out


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    rec = Recorder() if plan.get("trace") else None
    undo, missing = install(rec) if rec else ([], [])
    status = 0
    for argv in plan["commands"]:
        if rec is None:
            code = mlcalib.cli.main(argv)
        else:
            code = rec.span("cli.main", mlcalib.cli.main)(argv)
        if code:
            status = code
            break
    if rec is not None:
        uninstall(undo)
        doc = {
            "imported_at": IMPORTED_AT,
            "modules": IMPORTED_MODULES,
            "missing": missing,
            "spans": rec.spans,
            "rss_mb": rec.probes["core.rss_mb"],
            "fits": fit_summary(rec.probes["fits"]),
            "grad_norms": grad_norms(rec.probes["fits"]),
        }
        with open(plan["spans_out"], "w") as fh:
            json.dump(doc, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
