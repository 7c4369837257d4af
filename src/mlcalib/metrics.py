"""Discrimination and calibration metrics for multi-label predictions.

Calibration treats each class as an independent binary problem: a class
column of confidences is partitioned into equal-width bins, each bin
compares its mean confidence against the empirical positive frequency, and
the four bin-weighted scores are

    ECE = sum_m (|B_m|/N) * |acc_m - conf_m|     (absolute gap)
    MCS = sum_m (|B_m|/N) * (conf_m - acc_m)     (signed; > 0 overconfident)
    OCS = sum_m (|B_m|/N) * max(conf_m - acc_m, 0)
    UCS = sum_m (|B_m|/N) * |min(conf_m - acc_m, 0)|

Scores are assembled from the over/under components (ECE = OCS + UCS,
MCS = OCS - UCS), so the two identities hold exactly in float64, not just
to rounding.  Multi-label aggregation weights per-class scores by each
class's positive-label count.

All binning runs through one kernel, ``_bin_sums``.  It finds each cell's
bin by binary search over the M+1 edges and accumulates counts,
confidence sums and positive sums at ``class_code * M + bin``.  A scope is
a list of (classes, confidences, labels) chunks.  Each class adds its cells
chunk by chunk and, within a chunk, row by row, exactly as one pass over its
concatenated column; the pooled curve sums every chunk row-major from zero
and adds the chunk totals in chunk order.  The order is fixed, so results
are bit-reproducible and equal the loop-based oracles.  OCS and UCS are
accumulated bin by bin, vectorized across classes.  ``score_scope`` turns
one scope into its per-class metrics and pooled curve; ``bin_class``,
``calibration_scores``, ``per_class_scores`` and ``pooled_reliability`` go
through the same kernel and accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvalDataset, ValidationError


@dataclass(frozen=True)
class BinStats:
    """One confidence bin: [lower, upper) except the last bin, closed at 1.

    ``conf`` and ``acc`` are None for empty bins; an empty bin contributes
    nothing to any score.
    """

    index: int
    lower: float
    upper: float
    count: int
    conf: float | None
    acc: float | None


@dataclass(frozen=True)
class ReliabilityCurve:
    bins: tuple
    n: int
    scope: str


@dataclass(frozen=True)
class CalibrationScores:
    """The {ECE, MCS, OCS, UCS} quadruple for one scope.

    ``weight`` is the positive-count mass behind the scope (used when
    aggregating across classes).  Construction via ``from_components``
    guarantees ECE = OCS + UCS and MCS = OCS - UCS exactly.
    """

    ece: float
    mcs: float
    ocs: float
    ucs: float
    scope: str
    weight: float

    @classmethod
    def from_components(cls, ocs: float, ucs: float, scope: str = "", weight: float = 0.0):
        """Assemble the quadruple from its over/under components.

        Unit-agnostic: accepts fractions or percent, so published table
        rows can be checked for internal consistency directly.
        """
        if ocs < 0 or ucs < 0:
            raise ValidationError(f"components must be >= 0, got ocs={ocs}, ucs={ucs}")
        return cls(ece=ocs + ucs, mcs=ocs - ucs, ocs=ocs, ucs=ucs, scope=scope, weight=weight)


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class summary: AP (absent without positives), scores, weight."""

    class_id: str
    ap: float | None
    scores: CalibrationScores
    n_pos: int


def average_precision(scores, labels) -> float | None:
    """AP of one class: mean precision at each positive's rank.

    Ranking is by score descending with ties broken by ascending original
    index (stable), so results are identical across platforms.  Returns
    None when there are no positives.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError(f"length mismatch: scores {s.shape}, labels {y.shape}")
    if s.shape[0] == 0:
        raise ValidationError("average_precision needs at least one sample")
    order = np.argsort(-s, kind="stable")
    ranked = y[order]
    if ranked.sum() == 0:
        return None
    cum_pos = np.cumsum(ranked)
    ranks = np.arange(1, s.shape[0] + 1, dtype=np.float64)
    precision = cum_pos / ranks
    return float(np.mean(precision[ranked == 1.0]))


def _check_shape(d: EvalDataset, probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != d.labels.shape:
        raise ValidationError(
            f"shape mismatch: probs {probs.shape}, labels {d.labels.shape}"
        )
    return probs


def cmap(d: EvalDataset, probs: np.ndarray) -> float:
    """Macro-average AP over classes that have at least one positive."""
    probs = _check_shape(d, probs)
    aps = []
    for c in range(d.c):
        ap = average_precision(probs[:, c], d.labels[:, c])
        if ap is not None:
            aps.append(ap)
    if not aps:
        raise ValidationError("cmAP undefined: no class has a positive label")
    return float(np.mean(aps))


# the most reliability bins M a run may ask for: time and memory grow
# linearly in M, and with more bins than this most of them stay empty at
# the sample sizes of a calibration study
MAX_BINS = 1000


def check_bins(m_bins: int) -> None:
    """Reject a bin count M outside [1, MAX_BINS]."""
    if not 1 <= m_bins <= MAX_BINS:
        raise ValidationError(f"M must be in [1, {MAX_BINS}], got {m_bins}")


def _bin_edges(m_bins: int) -> np.ndarray:
    return np.arange(m_bins + 1, dtype=np.float64) / m_bins


def _bin_sums(chunks, n_classes: int, m_bins: int):
    """Bin sums of a scope's cells, per class and pooled.

    ``chunks`` holds (codes, confidences, labels) blocks, N_k x C_k, with
    one class code per column.  A cell goes to the bin of the last edge not
    above its confidence, the last bin closed at 1.  np.add.at carries each
    class's sums on from one chunk to the next, so they equal one
    np.bincount over the concatenated column without building it.  Returns
    the per-class (counts, confidence sums, positive sums), each
    n_classes x M, and the pooled triple, each of length M.
    """
    check_bins(m_bins)
    for _, conf, _ in chunks:
        if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
            raise ValidationError("confidences must lie in [0, 1]")
    edges = _bin_edges(m_bins)
    size = n_classes * m_bins
    counts = np.zeros(size, dtype=np.int64)
    conf_sums = np.zeros(size)
    pos_sums = np.zeros(size)
    pooled = None
    for codes, conf, labels in chunks:
        bins = np.searchsorted(edges, conf, side="right") - 1
        np.clip(bins, 0, m_bins - 1, out=bins)
        flat_conf, flat_labels = conf.ravel(), labels.ravel()
        sums = [
            np.bincount(bins.ravel(), weights=w, minlength=m_bins)
            for w in (None, flat_conf, flat_labels)
        ]
        pooled = sums if pooled is None else [p + q for p, q in zip(pooled, sums)]
        cells = (bins + codes * m_bins).ravel()
        counts += np.bincount(cells, minlength=size)
        np.add.at(conf_sums, cells, flat_conf)
        np.add.at(pos_sums, cells, flat_labels)
    per_class = tuple(a.reshape(n_classes, m_bins) for a in (counts, conf_sums, pos_sums))
    return per_class, pooled


def _over_under(counts, conf, acc, n):
    """OCS and UCS of every row of (rows, M) bin arrays.

    ``conf`` and ``acc`` hold each bin's mean confidence and positive
    frequency (0 in empty bins, which add nothing), ``n`` each row's cell
    count.  Vectorized across rows but accumulated bin by bin, so a row's
    sums are bitwise those of a scalar loop over its bins.
    """
    ocs = np.zeros(counts.shape[0])
    ucs = np.zeros(counts.shape[0])
    for m in range(counts.shape[1]):
        gap = conf[:, m] - acc[:, m]
        share = counts[:, m] / n
        ocs += np.where(gap > 0.0, share * gap, 0.0)
        ucs += np.where(gap < 0.0, share * -gap, 0.0)
    return ocs, ucs


def _curve(counts, conf_sums, pos_sums, scope: str) -> ReliabilityCurve:
    edges = _bin_edges(len(counts))
    bins = []
    for m, cnt in enumerate(counts.tolist()):
        lower, upper = float(edges[m]), float(edges[m + 1])
        if cnt > 0:
            conf, acc = float(conf_sums[m] / cnt), float(pos_sums[m] / cnt)
        else:
            conf = acc = None
        bins.append(BinStats(m + 1, lower, upper, cnt, conf, acc))
    return ReliabilityCurve(bins=tuple(bins), n=int(counts.sum()), scope=scope)


def score_scope(chunks, m_bins: int, scope: str = "pooled"):
    """Per-class metrics and pooled reliability curve of one scope.

    ``chunks`` is a sequence of (classes, confidences, labels) blocks, each
    N_k x C_k.  A class named by several chunks is one class: its column is
    the concatenation of their columns in chunk order, and the returned
    ClassMetrics list follows first-seen class order.
    """
    columns: dict = {}
    for classes, conf, labels in chunks:
        for j, name in enumerate(classes):
            columns.setdefault(name, []).append((conf[:, j], labels[:, j]))
    code = {name: k for k, name in enumerate(columns)}
    coded = [(np.array([code[n] for n in classes]), c, y) for classes, c, y in chunks]
    (counts, conf_sums, pos_sums), pooled = _bin_sums(coded, len(code), m_bins)
    filled = np.maximum(counts, 1)
    ocs, ucs = _over_under(counts, conf_sums / filled, pos_sums / filled, counts.sum(axis=1))
    per_class = []
    for k, (name, parts) in enumerate(columns.items()):
        n_pos = int(pos_sums[k].sum())
        scores = CalibrationScores.from_components(
            float(ocs[k]), float(ucs[k]), scope=name, weight=float(n_pos)
        )
        conf_parts, label_parts = zip(*parts)
        ap = average_precision(np.concatenate(conf_parts), np.concatenate(label_parts))
        per_class.append(ClassMetrics(class_id=name, ap=ap, scores=scores, n_pos=n_pos))
    return per_class, _curve(*pooled, scope=scope)


def bin_class(confidences, labels, m_bins: int, scope: str = "class") -> ReliabilityCurve:
    """Partition one class's confidences into M equal-width bins.

    Bins are [(m-1)/M, m/M) with the last bin closed at 1.  ``acc`` is the
    empirical positive frequency of the bin (the one-vs-rest reading of
    accuracy for a binary column).
    """
    conf = np.asarray(confidences, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if conf.shape != y.shape or conf.ndim != 1:
        raise ValidationError(f"length mismatch: conf {conf.shape}, labels {y.shape}")
    _, pooled = _bin_sums([(np.zeros(1, dtype=int), conf[:, None], y[:, None])], 1, m_bins)
    return _curve(*pooled, scope=scope)


def calibration_scores(curve: ReliabilityCurve, weight: float = 0.0) -> CalibrationScores:
    """Bin-weighted calibration scores of one reliability curve.

    OCS and UCS are accumulated bin by bin; ECE and MCS are their sum and
    difference, so the identities are exact.
    """
    if curve.n == 0:
        raise ValidationError(f"empty scope {curve.scope!r}")
    counts = np.array([[b.count for b in curve.bins]])
    conf = np.array([[b.conf if b.count else 0.0 for b in curve.bins]])
    acc = np.array([[b.acc if b.count else 0.0 for b in curve.bins]])
    ocs, ucs = _over_under(counts, conf, acc, curve.n)
    return CalibrationScores.from_components(
        float(ocs[0]), float(ucs[0]), scope=curve.scope, weight=weight
    )


def per_class_scores(d: EvalDataset, probs: np.ndarray, m_bins: int) -> list:
    """Bin and score every class column; weight = positive count."""
    return score_scope([(d.classes, _check_shape(d, probs), d.labels)], m_bins)[0]


def aggregate_multilabel(per_class, scope: str = "weighted") -> CalibrationScores:
    """Positive-count weighted average of per-class calibration scores.

    OCS and UCS are averaged first and the quadruple is rebuilt from them,
    which keeps the ECE/MCS identities exact after aggregation.
    """
    items = list(per_class)
    if not items:
        raise ValidationError("no classes to aggregate")
    w = np.array([m.n_pos for m in items], dtype=np.float64)
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError(
            f"all classes have zero positives in scope {scope!r}; aggregate undefined"
        )
    ocs_vals = np.array([m.scores.ocs for m in items], dtype=np.float64)
    ucs_vals = np.array([m.scores.ucs for m in items], dtype=np.float64)
    ocs = float((w * ocs_vals).sum() / total)
    ucs = float((w * ucs_vals).sum() / total)
    return CalibrationScores.from_components(ocs, ucs, scope=scope, weight=total)


def pooled_reliability(
    d: EvalDataset, probs: np.ndarray, m_bins: int, scope: str = "pooled"
) -> ReliabilityCurve:
    """Pool all N*C (sample, class) pairs into a single binary binning.

    This is the curve drawn in reliability diagrams; the weighted per-class
    scores remain the tabulated numbers.
    """
    probs = _check_shape(d, probs)
    _, pooled = _bin_sums([(np.zeros(d.c, dtype=int), probs, d.labels)], 1, m_bins)
    return _curve(*pooled, scope=scope)
