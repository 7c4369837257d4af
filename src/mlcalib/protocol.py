"""Experimental protocols: calibration splits, frequency subsets, and the
benchmark pipeline tying metrics and scaling together.

Two calibration-split protocols are supported: a held-out dataset (fit on
one dataset_id, evaluate on the rest) and first-minutes (per dataset_id,
the leading clips up to a cumulative duration form the calibration side).

:func:`run_benchmark` is one pipeline from the datasets to report rows,
and each of its steps happens once:

1. the split gives every dataset's (calibration, evaluation) rows;
2. each fit gets its calibration input: per-class scope stacks the row
   blocks (all datasets must share one class tuple), global scope
   concatenates the ravelled blocks into one column;
3. evaluation rows are grouped into parts once, one per (dataset_id,
   dataset) pair, sorted by dataset_id; a scope is a run of parts, one per
   dataset_id plus a pooled "All" scope over every part when there is more
   than one;
4. each part takes its rows of each method's confidences, built over one
   whole dataset at a time (Base: the file's probabilities or sigmoid of
   the logits; a fit: its scaling), and then its rows of the labels;
5. metrics.score_scopes scores every (scope, method) pair in one call: it
   bins each method's parts once for all scopes, each scope ranks its own
   class columns, and a fitted method reuses Base's order of a column
   where that order is provably its own.  Each pair becomes a report row
   (positive-count weighted scores, frequent/rare class subsets, the
   relative |MCS| improvement over Base) and a pooled curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvalDataset, ValidationError, confidences
from .metrics import aggregate_multilabel, check_bins, score_scopes
from .report import ALL_SCOPE, NOT_APPLICABLE, CurveEntry, ReportRow, relative_improvement
from .scaling import PER_CLASS, FitConfig, apply_scaling, fit

FIRST_MINUTES = "first-minutes"
HELD_OUT = "held-out-dataset"

BASE = "base"


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
    m = d.meta
    # an object array sorts in Python's string order
    order = np.lexsort((np.array(m.sample_id, dtype=object), m.start_s, m.codes))
    codes = m.codes[order]
    # the duration before each clip, restarted per dataset; np.cumsum adds
    # in sequence, so the sums are those of a running total
    runs = np.split(m.duration_s[order], np.flatnonzero(np.diff(codes)) + 1)
    elapsed = np.concatenate([np.cumsum(np.concatenate(([0.0], run[:-1]))) for run in runs])
    cal = elapsed < minutes * 60.0
    n_eval = np.bincount(codes[~cal], minlength=len(m.datasets))
    if not n_eval.all():
        raise ValidationError(
            f"calibration window consumes entire dataset {m.datasets[int(np.argmin(n_eval))]!r}: "
            f"a clip calibrates while the clips before it last less than {minutes:g} minutes "
            "in total, and here every clip does"
        )
    return np.sort(order[cal]), np.sort(order[~cal])


def check_target_fraction(target_fraction: float) -> None:
    """Reject a frequent-subset mass fraction outside (0, 1)."""
    if not 0.0 < target_fraction < 1.0:
        raise ValidationError(f"target_fraction must be in (0, 1), got {target_fraction}")


def frequent_rare_split(counts: dict, target_fraction: float = 0.5) -> SubsetAssignment:
    """Partition classes into frequent and rare by positive-count mass.

    Classes are ordered by count descending (ties by ascending name); the
    frequent set is the smallest prefix holding at least target_fraction of
    the total positive mass.  Classes without positives are excluded from
    both sides; rare may come out empty and is reported as such.  Each
    count must be a whole number >= 0, an integral float included.
    """
    check_target_fraction(target_fraction)
    for name, cnt in counts.items():
        if not (cnt >= 0 and float(cnt).is_integer()):  # False for NaN and inf
            raise ValidationError(f"count of class {name!r} must be an integer >= 0, got {cnt}")
    items = [(name, int(cnt)) for name, cnt in counts.items() if cnt > 0]
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


def _split_rows(datasets, split: SplitSpec | None):
    """Each dataset's (calibration, evaluation) row indices under split;
    without a split every row evaluates."""
    if split is None:
        return [(np.array([], dtype=np.intp), np.arange(d.n, dtype=np.intp)) for d in datasets]
    if split.kind == FIRST_MINUTES:
        return [split_first_minutes(d, split.minutes) for d in datasets]
    parts = []
    for d in datasets:
        # no row has the code of a name missing from the manifest
        mask = d.meta.codes == (*d.meta.datasets, split.calib_dataset).index(split.calib_dataset)
        parts.append((np.flatnonzero(mask), np.flatnonzero(~mask)))
    if not any(cal.size for cal, _ in parts):
        raise ValidationError(
            f"calibration dataset {split.calib_dataset!r} not found in any manifest"
        )
    if not any(ev.size for _, ev in parts):
        raise ValidationError(
            f"calibration dataset {split.calib_dataset!r} is the only dataset; "
            "nothing left to evaluate"
        )
    return parts


def _scope_parts(datasets, eval_sel):
    """Evaluation rows grouped into scopes: (parts, scopes).  ``parts``
    lists (dataset index, rows) pairs grouped by dataset_id in sorted order
    and, within one, in dataset order; ``scopes`` lists (name, start, stop)
    triples, one per dataset_id, whose rows are ``parts[start:stop]``.  With
    more than one scope an "All" scope over every part comes first, and no
    dataset_id may be named "All"."""
    by_id: dict = {}
    for k, (d, sel) in enumerate(zip(datasets, eval_sel)):
        codes = d.meta.codes[sel]
        # the codes present, ascending; np.unique would import numpy.ma
        for code in np.flatnonzero(np.bincount(codes, minlength=len(d.meta.datasets))):
            by_id.setdefault(d.meta.datasets[code], []).append((k, sel[codes == code]))
    parts: list = []
    scopes = []
    for ds_id in sorted(by_id):
        scopes.append((ds_id, len(parts), len(parts) + len(by_id[ds_id])))
        parts.extend(by_id[ds_id])
    if len(scopes) > 1:
        if ALL_SCOPE in by_id:
            raise ValidationError(
                f"dataset_id {ALL_SCOPE!r} is reserved for the scope that pools several datasets"
            )
        scopes.insert(0, (ALL_SCOPE, 0, len(parts)))
    return parts, scopes


def _calibration_input(datasets, calib_sel, scope: str):
    """Calibration (classes, logits, labels) for one fit.

    Per-class scope needs one class tuple across all datasets, since its
    parameters transfer column by column, and stacks the row blocks.
    Global scope concatenates the ravelled blocks into one column, so the
    NLL runs over each dataset's own classes; that is the order of the
    stacked matrix ravelled.
    """
    blocks = [
        (d.logits[sel], d.labels[sel]) for d, sel in zip(datasets, calib_sel) if sel.size > 0
    ]
    if not blocks:
        raise ValidationError("calibration split selected no samples")
    z_blocks, y_blocks = zip(*blocks)
    if scope == PER_CLASS:
        if len({d.classes for d in datasets}) > 1:
            raise ValidationError("per-class fitting requires matching classes")
        return datasets[0].classes, np.vstack(z_blocks), np.vstack(y_blocks)
    z = np.concatenate([b.ravel() for b in z_blocks]).reshape(-1, 1)
    y = np.concatenate([b.ravel() for b in y_blocks]).reshape(-1, 1)
    return None, z, y


def _scope_row(
    per_class, scope, method, n_samples, base_mcs, target_fraction, include_per_class, model_tag
):
    """The report row of one (scope, method) from its per-class metrics:
    cmAP, weighted scores, frequent/rare aggregates and, against
    ``base_mcs``, the relative |MCS| improvement (None for Base)."""
    aps = [m.ap for m in per_class if m.ap is not None]
    overall = aggregate_multilabel(per_class, scope=scope)
    assignment = frequent_rare_split({m.class_id: m.n_pos for m in per_class}, target_fraction)
    freq_set = set(assignment.frequent)
    rare_set = set(assignment.rare)
    rare_metrics = [m for m in per_class if m.class_id in rare_set]
    rel = None
    if method != BASE:
        try:
            rel = relative_improvement(base_mcs, overall.mcs)
        except ValidationError:
            rel = NOT_APPLICABLE
    return ReportRow(
        model=model_tag,
        scope=scope,
        method=method,
        n_samples=n_samples,
        cmap=float(np.mean(aps)) if aps else None,
        scores=overall,
        frequent_classes=assignment.frequent,
        frequent_k=assignment.k,
        frequent_mass_fraction=assignment.mass_fraction,
        frequent_scores=aggregate_multilabel(
            [m for m in per_class if m.class_id in freq_set], scope=f"{scope}:frequent"
        ),
        rare_classes=assignment.rare,
        rare_scores=(
            aggregate_multilabel(rare_metrics, scope=f"{scope}:rare") if rare_metrics else None
        ),
        per_class=tuple(per_class) if include_per_class else None,
        rel_improvement_mcs=rel,
        params_ref=None if method == BASE else method,
    )


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
    check_bins(m_bins)
    check_target_fraction(target_fraction)
    if split is None and methods:
        raise ValidationError("fitting requires a calibration split")
    calib_sel, eval_sel = zip(*_split_rows(datasets, split))
    parts, scopes = _scope_parts(datasets, eval_sel)

    split_summary = None
    if split is not None:
        split_summary = {
            "kind": split.kind,
            "minutes": split.minutes,
            "calib_dataset": split.calib_dataset,
            "n_calibration": int(sum(s.size for s in calib_sel)),
            "n_evaluation": int(sum(s.size for s in eval_sel)),
        }

    def part_rows(matrix):  # each part's rows of matrix(d), one whole dataset at a time
        out = {}
        for k, d in enumerate(datasets):
            whole = matrix(d)
            out.update((p, whole[sel]) for p, (owner, sel) in enumerate(parts) if owner == k)
            del whole  # freed before the next dataset's is built
        return [out[p] for p in range(len(parts))]

    fitted: dict = {}
    part_confs = {BASE: part_rows(confidences)}
    for method, scope in methods:
        classes, z_cal, y_cal = _calibration_input(datasets, calib_sel, scope)
        label = f"{method}/{scope}"
        fitted[label] = fit(
            z_cal, y_cal, method=method, scope=scope, cfg=fit_cfg, classes=classes,
            fitted_on=split.describe(),
        )
        del z_cal, y_cal  # freed before the fit's confidences are built
        part_confs[label] = part_rows(lambda d: apply_scaling(d.logits, fitted[label][0]))

    chunks = [
        (datasets[k].classes, datasets[k].labels[sel], confs)
        for (k, sel), confs in zip(parts, zip(*part_confs.values()))
    ]
    scored = score_scopes(chunks, scopes, m_bins)
    rows: list = []
    curves: list = []
    for s, (scope_name, start, stop) in enumerate(scopes):
        n_samples = sum(sel.size for _, sel in parts[start:stop])
        base_mcs = None
        for label, by_scope in zip(part_confs, scored):
            per_class, pooled = by_scope[s]
            row = _scope_row(
                per_class, scope_name, label, n_samples, base_mcs, target_fraction,
                include_per_class, model_tag,
            )
            if label == BASE:
                base_mcs = row.scores.mcs
            rows.append(row)
            curves.append(CurveEntry(scope=scope_name, method=label, curve=pooled))

    return BenchmarkResult(
        rows=tuple(rows),
        curves=tuple(curves),
        params=fitted,
        split_summary=split_summary,
    )
