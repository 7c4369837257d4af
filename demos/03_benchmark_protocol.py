"""Benchmark three deployments with a held-out calibration dataset.

Three synthetic recording sites share one class list and one model, and
the model's distortion (oversmoothed and positively biased: T* = 2,
b* = 0.5) travels with it.  What differs per site is the content: each
site draws its latent class activity from different means, so prevalence
and difficulty vary while the confidence distortion does not.

The protocol holds the ridge recordings out as the calibration set, fits
a temperature-only map and a Platt map there, and scores the other two
sites plus the pooled "All" scope.  Temperature alone cannot express the
bias term, so the Platt rows should show the larger |MCS| reduction.

The emitted report.json and one reliability SVG land in demo_out/.
"""

import os

from mlcalib import (
    LatentSpec,
    Report,
    SplitSpec,
    SynthConfig,
    emit_report,
    generate,
    render_reliability_svg,
    run_benchmark,
)

SITES = {
    "ridge": (101, (-2.0, -0.5, 1.0, 2.0)),
    "marsh": (202, (-3.0, -1.5, 0.0, 1.0)),
    "valley": (303, (-1.0, 0.0, 0.5, 2.5)),
}

datasets = [
    generate(
        SynthConfig(n=5000, c=4, true_t=2.0, true_b=0.5, seed=seed,
                    dataset_id=site, latent=LatentSpec(means=means, stddev=3.5))
    )[0]
    for site, (seed, means) in SITES.items()
]

result = run_benchmark(
    datasets,
    m_bins=15,
    split=SplitSpec(kind="held-out-dataset", calib_dataset="ridge"),
    methods=[("ts", "global"), ("ps", "global")],
    model_tag="demo",
)

print("split:", result.split_summary)
for label, (params, _) in sorted(result.params.items()):
    print(f"fitted {label}: T = {params.temperature:.3f}, "
          f"b = {float(params.bias):+.3f}")

print()
print(f"{'scope':7s} {'method':10s} {'ECE':>8s} {'MCS':>9s}  improvement")
for row in result.rows:
    rel = row.rel_improvement_mcs
    shown = "" if rel is None else (rel if isinstance(rel, str) else f"{rel:+.1f}%")
    print(f"{row.scope:7s} {row.method:10s} {row.scores.ece:8.4f} "
          f"{row.scores.mcs:+9.4f}  {shown}")

out_dir = "demo_out"
os.makedirs(out_dir, exist_ok=True)

report = Report(
    config={"demo": "03_benchmark_protocol", "bins": 15},
    rows=result.rows,
    curves=result.curves,
    params={label: p.to_json_dict() for label, (p, _) in result.params.items()},
    split_summary=result.split_summary,
)
report_path = os.path.join(out_dir, "report.json")
_, text = emit_report(report, "json")  # the document and its JSON text
with open(report_path, "w", encoding="utf-8", newline="") as fh:
    fh.write(text)

all_entries = [c for c in result.curves if c.scope == "All"]
all_rows = {r.method: r for r in result.rows if r.scope == "All"}
svg = render_reliability_svg(
    [e.curve for e in all_entries],
    labels=[e.method for e in all_entries],
    mcs_values=[all_rows[e.method].scores.mcs for e in all_entries],
    title="All",
)
svg_path = os.path.join(out_dir, "reliability_All.svg")
with open(svg_path, "w", newline="") as fh:
    fh.write(svg)

print()
print(f"wrote {report_path}")
print(f"wrote {svg_path}")
