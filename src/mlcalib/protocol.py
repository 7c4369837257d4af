"""Experimental protocols: calibration splits, frequency subsets, and the
benchmark pipeline tying metrics and scaling together.

Two calibration-split protocols are supported: a held-out dataset (fit on
one dataset_id, evaluate on the rest; global parameters only) and
first-minutes (per dataset_id, the leading clips up to a cumulative
duration form the calibration side).  The benchmark evaluates Base and
calibrated confidences per dataset scope plus a pooled "All" scope, with
positive-count weighted scores and frequent/rare class subsets.  A scope
is a list of (classes, confidences, labels) chunks, one per dataset that
has rows in it, and metrics.score_scope bins and scores it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvalDataset, ValidationError, confidences
from .metrics import aggregate_multilabel, score_scope
from .report import NOT_APPLICABLE, CurveEntry, ReportRow, relative_improvement
from .scaling import PER_CLASS, FitConfig, apply_scaling, fit

FIRST_MINUTES = "first-minutes"
HELD_OUT = "held-out-dataset"

BASE = "base"
ALL_SCOPE = "All"


@dataclass(frozen=True)
class SplitSpec:
    """How to carve out the calibration side."""

    kind: str
    minutes: float | None = None
    calib_dataset: str | None = None

    def __post_init__(self):
        if self.kind == FIRST_MINUTES:
            if self.minutes is None or not self.minutes > 0:
                raise ValidationError(
                    f"first-minutes split needs minutes > 0, got {self.minutes}"
                )
        elif self.kind == HELD_OUT:
            if not self.calib_dataset:
                raise ValidationError("held-out split needs a calibration dataset id")
        else:
            raise ValidationError(f"unknown split kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == FIRST_MINUTES:
            return f"{FIRST_MINUTES}={self.minutes:g}"
        return f"{HELD_OUT}={self.calib_dataset}"


@dataclass(frozen=True)
class SubsetAssignment:
    """Frequent/rare class partition by positive-count mass."""

    frequent: tuple
    rare: tuple
    k: int
    mass_fraction: float


def split_first_minutes(d: EvalDataset, minutes: float):
    """Per dataset_id, route the leading clips into the calibration side.

    Within each dataset_id samples are ordered by (start_s, sample_id); a
    sample goes to calibration while the duration accumulated before it is
    still under minutes*60.  Returns (calibration, evaluation) row indices,
    each sorted ascending; together they partition the dataset.
    """
    if not minutes > 0:
        raise ValidationError(f"minutes must be > 0, got {minutes}")
    limit = minutes * 60.0
    by_ds: dict = {}
    for i, row in enumerate(d.meta):
        by_ds.setdefault(row.dataset_id, []).append(i)
    cal: list = []
    ev: list = []
    for ds_id, idxs in by_ds.items():
        ordered = sorted(idxs, key=lambda i: (d.meta[i].start_s, d.meta[i].sample_id))
        cum = 0.0
        n_eval = 0
        for i in ordered:
            if cum < limit:
                cal.append(i)
            else:
                ev.append(i)
                n_eval += 1
            cum += d.meta[i].duration_s
        if n_eval == 0:
            raise ValidationError(
                f"calibration window consumes entire dataset {ds_id!r} "
                f"({minutes:g} minutes >= total duration)"
            )
    return np.array(sorted(cal), dtype=np.intp), np.array(sorted(ev), dtype=np.intp)


def frequent_rare_split(counts: dict, target_fraction: float = 0.5) -> SubsetAssignment:
    """Partition classes into frequent and rare by positive-count mass.

    Classes are ordered by count descending (ties by ascending name); the
    frequent set is the smallest prefix holding at least target_fraction of
    the total positive mass.  Classes without positives are excluded from
    both sides; rare may come out empty and is reported as such.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValidationError(f"target_fraction must be in (0, 1), got {target_fraction}")
    items = [(name, int(cnt)) for name, cnt in counts.items() if int(cnt) > 0]
    total = sum(cnt for _, cnt in items)
    if total <= 0:
        raise ValidationError("no positive labels; frequent/rare split undefined")
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    cum = 0
    k = 0
    for _, cnt in items:
        cum += cnt
        k += 1
        if cum >= target_fraction * total:
            break
    frequent = tuple(name for name, _ in items[:k])
    rare = tuple(name for name, _ in items[k:])
    achieved = sum(cnt for _, cnt in items[:k]) / total
    return SubsetAssignment(frequent=frequent, rare=rare, k=k, mass_fraction=achieved)


@dataclass(frozen=True)
class BenchmarkResult:
    """Rows and curves for reporting plus the fitted parameter map
    (label -> (ScalingParams, FitTrace))."""

    rows: tuple
    curves: tuple
    params: dict
    split_summary: dict | None


def _scope_metrics(chunks, scope: str, m_bins: int, target_fraction: float):
    """All metrics of one scope: per-class table, cmAP, weighted scores,
    frequent/rare aggregates, pooled curve."""
    per_class, pooled = score_scope(chunks, m_bins, scope)
    aps = [m.ap for m in per_class if m.ap is not None]
    cmap_val = float(np.mean(aps)) if aps else None
    overall = aggregate_multilabel(per_class, scope=scope)

    counts = {m.class_id: m.n_pos for m in per_class}
    assignment = frequent_rare_split(counts, target_fraction)
    freq_set = set(assignment.frequent)
    rare_set = set(assignment.rare)
    freq_scores = aggregate_multilabel(
        [m for m in per_class if m.class_id in freq_set], scope=f"{scope}:frequent"
    )
    rare_metrics = [m for m in per_class if m.class_id in rare_set]
    rare_scores = (
        aggregate_multilabel(rare_metrics, scope=f"{scope}:rare") if rare_metrics else None
    )
    return per_class, cmap_val, overall, assignment, freq_scores, rare_scores, pooled


def _collect_scopes(datasets, conf_of_rows, eval_sel) -> dict:
    """Bucket selected rows by dataset_id into each scope's list of
    (classes, confidences, labels) chunks, in dataset order;
    conf_of_rows(k, rows) yields the confidence block of dataset k
    restricted to rows."""
    scopes: dict = {}
    for k, (d, sel) in enumerate(zip(datasets, eval_sel)):
        ids = np.array([d.meta[i].dataset_id for i in sel], dtype=object)
        for ds_id in dict.fromkeys(ids.tolist()):
            rows = sel[ids == ds_id]
            chunk = (d.classes, conf_of_rows(k, rows), d.labels[rows])
            scopes.setdefault(ds_id, []).append(chunk)
    return scopes


def _calibration_matrices(datasets, calib_sel, scope):
    """Assemble the calibration (classes, logits, labels) for fitting.

    When every contributing dataset shares one class tuple the row blocks
    stack into matrices; otherwise (global fitting only) the pairs flatten
    into a single column, so the NLL runs over each dataset's own classes.
    """
    blocks = [
        (d.classes, d.logits[sel], d.labels[sel])
        for d, sel in zip(datasets, calib_sel)
        if sel.size > 0
    ]
    if not blocks:
        raise ValidationError("calibration split selected no samples")
    class_tuples = {classes for classes, _, _ in blocks}
    if len(class_tuples) == 1:
        classes = blocks[0][0]
        if len(blocks) == 1:
            return classes, blocks[0][1], blocks[0][2]
        z = np.vstack([b[1] for b in blocks])
        y = np.vstack([b[2] for b in blocks])
        return classes, z, y
    if scope == PER_CLASS:
        raise ValidationError("per-class fitting requires matching classes")
    z = np.concatenate([b[1].ravel() for b in blocks]).reshape(-1, 1)
    y = np.concatenate([b[2].ravel() for b in blocks]).reshape(-1, 1)
    return None, z, y


def run_benchmark(
    datasets,
    m_bins: int = 15,
    split: SplitSpec | None = None,
    methods=(),
    fit_cfg: FitConfig | None = None,
    target_fraction: float = 0.5,
    include_per_class: bool = False,
    model_tag: str = "model",
) -> BenchmarkResult:
    """Evaluate Base and optionally calibrated confidences per scope.

    ``datasets`` is one EvalDataset or a list; dataset_ids inside the
    manifests define the per-dataset scopes, and an "All" scope pools
    per-class pairs across datasets by class identity whenever more than
    one scope exists.  ``methods`` lists (method, scope) fits to run on the
    calibration side of ``split``; every row, Base included, is evaluated
    on the evaluation side, with relative |MCS| improvements against Base.
    """
    if isinstance(datasets, EvalDataset):
        datasets = [datasets]
    datasets = list(datasets)
    if not datasets:
        raise ValidationError("no datasets given")
    if m_bins < 1:
        raise ValidationError(f"M must be >= 1, got {m_bins}")
    conf_mats = [confidences(d) for d in datasets]

    if split is None:
        if methods:
            raise ValidationError("fitting requires a calibration split")
        calib_sel = [np.array([], dtype=np.intp) for _ in datasets]
        eval_sel = [np.arange(d.n, dtype=np.intp) for d in datasets]
    elif split.kind == FIRST_MINUTES:
        parts = [split_first_minutes(d, split.minutes) for d in datasets]
        calib_sel = [p[0] for p in parts]
        eval_sel = [p[1] for p in parts]
    else:
        calib_sel = []
        eval_sel = []
        for d in datasets:
            mask = np.array([m.dataset_id == split.calib_dataset for m in d.meta])
            calib_sel.append(np.flatnonzero(mask).astype(np.intp))
            eval_sel.append(np.flatnonzero(~mask).astype(np.intp))
        if sum(s.size for s in calib_sel) == 0:
            raise ValidationError(
                f"calibration dataset {split.calib_dataset!r} not found in any manifest"
            )
        if sum(s.size for s in eval_sel) == 0:
            raise ValidationError(
                f"calibration dataset {split.calib_dataset!r} is the only dataset; "
                "nothing left to evaluate"
            )

    split_summary = None
    if split is not None:
        split_summary = {
            "kind": split.kind,
            "minutes": split.minutes,
            "calib_dataset": split.calib_dataset,
            "n_calibration": int(sum(s.size for s in calib_sel)),
            "n_evaluation": int(sum(s.size for s in eval_sel)),
        }

    fitted: dict = {}
    for method, scope in methods:
        if scope == PER_CLASS and len({d.classes for d in datasets}) > 1:
            # per-class params can only transfer between identical class sets
            raise ValidationError("per-class fitting requires matching classes")
        classes, z_cal, y_cal = _calibration_matrices(datasets, calib_sel, scope)
        label = f"{method}/{scope}"
        params, trace = fit(
            z_cal,
            y_cal,
            method=method,
            scope=scope,
            cfg=fit_cfg,
            classes=classes if scope == PER_CLASS else None,
            fitted_on=split.describe(),
        )
        fitted[label] = (params, trace)

    scopes_by_method = {
        BASE: _collect_scopes(datasets, lambda k, rows: conf_mats[k][rows], eval_sel)
    }
    for label, (params, _) in fitted.items():
        scopes_by_method[label] = _collect_scopes(
            datasets,
            lambda k, rows, p=params: apply_scaling(datasets[k].logits[rows], p),
            eval_sel,
        )

    scope_ids = sorted(scopes_by_method[BASE])
    ordered_scopes = ([ALL_SCOPE] if len(scope_ids) > 1 else []) + scope_ids

    rows: list = []
    curves: list = []
    base_mcs_by_scope: dict = {}
    for scope_name in ordered_scopes:
        for label in [BASE] + list(fitted):
            per_scope = scopes_by_method[label]
            if scope_name == ALL_SCOPE:
                chunks = [chunk for s in scope_ids for chunk in per_scope[s]]
            else:
                chunks = per_scope[scope_name]
            per_class, cmap_val, overall, assignment, freq_s, rare_s, pooled = (
                _scope_metrics(chunks, scope_name, m_bins, target_fraction)
            )
            if label == BASE:
                base_mcs_by_scope[scope_name] = overall.mcs
                rel = None
            else:
                try:
                    rel = relative_improvement(base_mcs_by_scope[scope_name], overall.mcs)
                except ValidationError:
                    rel = NOT_APPLICABLE
            rows.append(
                ReportRow(
                    model=model_tag,
                    scope=scope_name,
                    method=label,
                    n_samples=sum(conf.shape[0] for _, conf, _ in chunks),
                    cmap=cmap_val,
                    scores=overall,
                    frequent_classes=assignment.frequent,
                    frequent_k=assignment.k,
                    frequent_mass_fraction=assignment.mass_fraction,
                    frequent_scores=freq_s,
                    rare_classes=assignment.rare,
                    rare_scores=rare_s,
                    per_class=tuple(per_class) if include_per_class else None,
                    rel_improvement_mcs=rel,
                    params_ref=None if label == BASE else label,
                )
            )
            curves.append(CurveEntry(scope=scope_name, method=label, curve=pooled))

    return BenchmarkResult(
        rows=tuple(rows),
        curves=tuple(curves),
        params=fitted,
        split_summary=split_summary,
    )
