"""Per-layer metrics from the spans of one traced command (see child.py).

A layer's self time is its span's duration minus the time its child spans
cover.  Spans come from one thread and nest properly, so children never
overlap and the self times of a command's spans add up to its root span.
"""

METRICS_FUNCTIONS = (
    "metrics.bin_class",
    "metrics.average_precision",
    "metrics.calibration_scores",
    "metrics.aggregate_multilabel",
)


def aggregate(spans):
    """{name: {"s", "self_s", "calls"}} plus the summed root duration."""
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    table = {}
    roots = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += dur[i]
        row["self_s"] += dur[i] - covered[i]
        row["calls"] += 1
        if parent < 0:
            roots += dur[i]
    return table, roots


def command_metrics(doc, spawned_at, wall_s, input_bytes, bytes_out):
    """Per-layer metrics of one traced command run in a fresh interpreter."""
    table, roots = aggregate(doc["spans"])

    def get(name, key="s"):
        return table.get(name, {}).get(key, 0)

    import_s = doc["imported_at"] - spawned_at
    load_s = get("core.load_dataset")
    fits = doc["fits"]
    return {
        "import.s": import_s,
        "import.modules": doc["modules"],
        "core.load_dataset.s": load_s,
        "core.load_dataset.mb_per_s": input_bytes / 1e6 / load_s if load_s > 0 else 0.0,
        "core.rss_mb": doc["rss_mb"],
        "scaling.fit.s": get("scaling.fit"),
        "scaling.fit.iters": sum(f["iters"] for f in fits),
        "scaling.fit.cells": sum(f["cells"] for f in fits),
        "scaling.fit.grad_norm": max(doc["grad_norms"], default=0.0),
        "scaling.sigmoid.calls": get("scaling.sigmoid", "calls"),
        "scaling.apply_scaling.s": get("scaling.apply_scaling"),
        "scaling.apply_scaling.calls": get("scaling.apply_scaling", "calls"),
        "cli.cmd_apply.self_s": get("cli.cmd_apply", "self_s"),
        "metrics.average_precision.s": get("metrics.average_precision"),
        "metrics.average_precision.calls": get("metrics.average_precision", "calls"),
        "metrics.bin_class.s": get("metrics.bin_class"),
        "metrics.bin_class.calls": get("metrics.bin_class", "calls"),
        "metrics.s": sum(get(name) for name in METRICS_FUNCTIONS),
        "protocol.run_benchmark.self_s": get("protocol.run_benchmark", "self_s"),
        "protocol.split_first_minutes.s": get("protocol.split_first_minutes"),
        "report.emit_report.s": get("report.emit_report"),
        "report.render_reliability_svg.s": get("report.render_reliability_svg"),
        "report.bytes_out": bytes_out,
        # import plus every span's self time, against the traced wall time
        "trace.accounted_frac": (import_s + roots) / wall_s,
    }, table
