"""Fit scaling parameters on a calibration window and apply them.

The generator samples labels from biased, smoothed logits (T* = 2,
b* = 0.5), so the raw confidences are miscalibrated in a way a global
Platt map can undo exactly.  The first thirty minutes of the deployment
timeline serve as the calibration set; everything after is held for
evaluation, mirroring how a deployed detector would be corrected in the
field.  The fitted (T, b) should land near the generator's truth.
"""

import os
import tempfile

import numpy as np

from mlcalib import (
    EvalDataset,
    FitConfig,
    LatentSpec,
    Manifest,
    SynthConfig,
    aggregate_multilabel,
    apply_scaling,
    confidences,
    fit,
    generate,
    load_params,
    per_class_scores,
    save_params,
    split_first_minutes,
)

dataset, truth = generate(
    SynthConfig(
        n=12000, c=5, true_t=2.0, true_b=0.5, seed=7,
        latent=LatentSpec(means=(-2.0, -1.0, 0.0, 1.0, 2.0), stddev=4.0),
    )
)
print(f"generator truth: T* = {truth['true_T'][0]}, b* = {truth['true_b'][0]}")

calib_idx, eval_idx = split_first_minutes(dataset, minutes=30.0)
evaluation = EvalDataset(
    classes=dataset.classes,
    logits=dataset.logits[eval_idx],
    labels=dataset.labels[eval_idx],
    meta=Manifest(
        sample_id=tuple(dataset.meta.sample_id[i] for i in eval_idx),
        dataset_id=tuple(dataset.meta.dataset_id[i] for i in eval_idx),
        start_s=dataset.meta.start_s[eval_idx],
        duration_s=dataset.meta.duration_s[eval_idx],
    ),
)
print(f"calibration window: {calib_idx.size} clips; "
      f"evaluation remainder: {evaluation.n}")

# the Newton solver stops on convergence; record its NLL per iteration
cfg = FitConfig(record_history=True)
params, trace = fit(dataset.logits[calib_idx], dataset.labels[calib_idx],
                    method="ps", scope="global", cfg=cfg,
                    fitted_on="first 30 minutes")

print()
print("=== fit trace ===")
print(f"Newton: {trace.iterations} of at most {trace.steps} "
      f"iterations, converged {trace.converged}")
print(f"NLL {trace.nll_initial:.5f} -> {trace.nll_final:.5f}")
print("history:", "  ".join(f"{i}:{v:.5f}" for i, v in enumerate(trace.nll_history)))
print(f"fitted T = {params.temperature:.3f}, b = {float(params.bias):+.3f}")

print()
print("=== before/after on the held-out remainder ===")
raw = confidences(evaluation)
scaled = apply_scaling(evaluation.logits, params)
for name, probs in [("raw", raw), ("scaled", scaled)]:
    s = aggregate_multilabel(per_class_scores(evaluation, probs, 15))
    print(f"{name:7s} ECE {s.ece:.4f}  MCS {s.mcs:+.4f}")

print()
print("=== parameter files round trip bit-exactly ===")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "params.json")
    save_params(params, trace, path)
    with open(path, encoding="utf-8") as fh:
        head = fh.read().splitlines()
    print("\n".join(head[:7]))  # the trace and its nll_history follow
    print("  ...")
    reloaded = load_params(path)
    replay = apply_scaling(evaluation.logits, reloaded)
    print("reloaded params reproduce the matrix bit for bit:",
          bool(np.array_equal(replay, scaled)))
