"""Calibration evaluation and post hoc scaling for multi-label classifiers.

The package reads saved predictions (logits or probabilities) plus binary
labels, scores discrimination (cmAP) and calibration (ECE and its signed,
over-, and under-confidence variants), and fits temperature or Platt scaling
on a held-out calibration split to shrink the miscalibration it found.
"""

__version__ = "0.1.0"

from .core import (
    EvalDataset,
    Manifest,
    NumericalError,
    ValidationError,
    confidences,
    inverse_sigmoid,
    pos_counts,
    sigmoid,
)
from .metrics import (
    BinStats,
    CalibrationScores,
    ClassMetrics,
    ReliabilityCurve,
    aggregate_multilabel,
    average_precision,
    bin_class,
    calibration_scores,
    cmap,
    per_class_scores,
    pooled_reliability,
)
from .protocol import (
    BenchmarkResult,
    SplitSpec,
    SubsetAssignment,
    frequent_rare_split,
    run_benchmark,
    split_first_minutes,
)
from .report import (
    CurveEntry,
    Report,
    ReportRow,
    dumps_canonical,
    emit_report,
    load_report,
    relative_improvement,
    render_reliability_svg,
)
from .rowfiles import load_dataset
from .scaling import (
    FitConfig,
    FitTrace,
    ScalingParams,
    apply_scaling,
    bce_nll,
    fit,
    gradients,
    load_params,
    save_params,
)
from .synth import LatentSpec, SynthConfig, generate, latent_means, write_fixture

__all__ = [
    "BenchmarkResult",
    "BinStats",
    "CalibrationScores",
    "ClassMetrics",
    "CurveEntry",
    "EvalDataset",
    "FitConfig",
    "FitTrace",
    "LatentSpec",
    "Manifest",
    "NumericalError",
    "ReliabilityCurve",
    "Report",
    "ReportRow",
    "ScalingParams",
    "SplitSpec",
    "SubsetAssignment",
    "SynthConfig",
    "ValidationError",
    "aggregate_multilabel",
    "apply_scaling",
    "average_precision",
    "bce_nll",
    "bin_class",
    "calibration_scores",
    "cmap",
    "confidences",
    "dumps_canonical",
    "emit_report",
    "fit",
    "frequent_rare_split",
    "generate",
    "gradients",
    "inverse_sigmoid",
    "latent_means",
    "load_dataset",
    "load_params",
    "load_report",
    "per_class_scores",
    "pooled_reliability",
    "pos_counts",
    "relative_improvement",
    "render_reliability_svg",
    "run_benchmark",
    "save_params",
    "sigmoid",
    "split_first_minutes",
    "write_fixture",
]
