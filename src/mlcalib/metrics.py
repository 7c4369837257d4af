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

All scoring runs through one kernel, ``score_scopes``.  Its input is a
list of (classes, labels, rows) chunks of evaluation rows, each method's
confidence blocks for them, and scopes, each a run of consecutive chunks;
a pooled scope runs over every chunk and a dataset scope over its own.

Binning (``_bin_sums``) takes each method's chunks once.  A chunk's cells
are binned once, by binary search over the M+1 edges, and added to every
scope that holds the chunk: counts, confidence sums and positive sums at
``class_code * M + bin``.  Each class adds its cells chunk by chunk and,
within a chunk, row by row, exactly as one pass over its concatenated
column; a scope's pooled curve sums each of its chunks row-major from zero
and adds the chunk totals in chunk order.  The order is fixed, so results
are bit-reproducible and equal the loop-based oracles.  OCS and UCS are
accumulated bin by bin, vectorized across classes.

AP (``_scope_aps``) ranks each class column once per method, over all
chunks, with one stable descending sort.  A scope's ranking is that order
restricted to the scope's positions, which is the scope's own stable
order.  A later method reuses the first method's order when an O(N) check
proves it is its own, and is sorted again when the check fails.  The
cumsum, precisions and mean of each scope's AP run on the same values in
the same order as a separate sort of the scope's column would give.

``score_scope`` is the kernel on one scope and one method;
``average_precision``, ``bin_class``, ``calibration_scores``,
``per_class_scores`` and ``pooled_reliability`` share its sorting,
binning and accumulation.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _descending(scores: np.ndarray) -> np.ndarray:
    """The stable descending order of a score column: ties keep ascending
    position, so the ranking is the same on every platform."""
    return np.argsort(-scores, kind="stable")


def _keeps_order(scores: np.ndarray, order: np.ndarray) -> bool:
    """Whether ``order``, the stable descending order of another column, is
    also that of ``scores``: read in that order ``scores`` never increases,
    and equal neighbours sit in ascending position.  A NaN fails the check."""
    ranked = scores[order]
    if not np.all(ranked[1:] <= ranked[:-1]):
        return False
    ties = ranked[1:] == ranked[:-1]
    return bool(np.all(order[1:][ties] > order[:-1][ties]))


def _ranked_ap(ranked: np.ndarray) -> float | None:
    """AP from labels in rank order; None without positives."""
    if ranked.shape[0] == 0:
        raise ValidationError("average_precision needs at least one sample")
    if ranked.sum() == 0:
        return None
    cum_pos = np.cumsum(ranked)
    ranks = np.arange(1, ranked.shape[0] + 1, dtype=np.float64)
    precision = cum_pos / ranks
    return float(np.mean(precision[ranked == 1.0]))


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
    return _ranked_ap(y[_descending(s)])


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


def _bin_sums(chunks, n_classes: int, m_bins: int, runs):
    """Bin sums of runs of chunks, per class and pooled.

    ``chunks`` yields (codes, confidences, labels) blocks, N_k x C_k, with
    one class code per column; ``runs`` lists (start, stop) ranges of chunk
    indices.  A cell goes to the bin of the last edge not above its
    confidence, the last bin closed at 1.  Each chunk is binned once, and
    its cells are added to every run that holds it.  np.add.at carries a
    run's per-class sums on from one chunk to the next, so they equal one
    np.bincount over the run's concatenated column without building it; a
    run's pooled sums add its chunks' totals in chunk order.  Returns one
    pair per run: the per-class (counts, confidence sums, positive sums),
    each n_classes x M, and the pooled triple, each of length M.
    """
    check_bins(m_bins)
    edges = _bin_edges(m_bins)
    size = n_classes * m_bins
    sums = [(np.zeros(size, dtype=np.int64), np.zeros(size), np.zeros(size)) for _ in runs]
    pooled = [None] * len(runs)
    for k, (codes, conf, labels) in enumerate(chunks):
        if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
            raise ValidationError("confidences must lie in [0, 1]")
        bins = np.searchsorted(edges, conf, side="right") - 1
        np.clip(bins, 0, m_bins - 1, out=bins)
        flat_conf, flat_labels = conf.ravel(), labels.ravel()
        totals = [
            np.bincount(bins.ravel(), weights=w, minlength=m_bins)
            for w in (None, flat_conf, flat_labels)
        ]
        cells = (bins + codes * m_bins).ravel()
        cell_counts = np.bincount(cells, minlength=size)
        for r, (start, stop) in enumerate(runs):
            if start <= k < stop:
                run = pooled[r]
                pooled[r] = totals if run is None else [p + q for p, q in zip(run, totals)]
                counts, conf_sums, pos_sums = sums[r]
                counts += cell_counts
                np.add.at(conf_sums, cells, flat_conf)
                np.add.at(pos_sums, cells, flat_labels)
    return [
        (tuple(a.reshape(n_classes, m_bins) for a in per_class), run)
        for per_class, run in zip(sums, pooled)
    ]


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


def _scope_aps(columns, rows, label_blocks, confs, scopes) -> list:
    """AP of every (method, scope, class): ``aps[i][s][class]``.  Method
    i's confidences of chunk k are ``confs[i][k][rows[k]]``.

    One class column at a time, each method's column over all chunks is
    ranked by one stable sort.  A later method keeps the first method's
    order when :func:`_keeps_order` proves it is also its own; its ranked
    labels, and so its APs, are then the first method's.  A scope's ranking
    is that order restricted to the scope's positions, since restricting a
    stable order to a subset keeps ties in ascending position.
    """
    aps = [[{} for _ in scopes] for _ in confs]
    for name, cols in columns.items():
        y = np.concatenate([label_blocks[k][:, j] for k, j in cols], dtype=np.float64)
        # the scope's rows of this column are the positions [lo, hi)
        chunk_of = [k for k, _ in cols]
        ends = np.cumsum([0] + [label_blocks[k].shape[0] for k in chunk_of]).tolist()
        spans = {}
        for s, (_, start, stop) in enumerate(scopes):
            first, last = bisect_left(chunk_of, start), bisect_left(chunk_of, stop)
            if first < last:
                spans[s] = (ends[first], ends[last])
        first_order = None
        for i, conf in enumerate(confs):
            col = np.concatenate([conf[k][rows[k], j] for k, j in cols], dtype=np.float64)
            if first_order is not None and _keeps_order(col, first_order):
                for s in spans:
                    aps[i][s][name] = aps[0][s][name]
                continue
            order = _descending(col)
            if first_order is None:
                first_order = order
            ranked = y[order]
            # rank[p] is position p's place in the order, so a scope's
            # places, sorted, pick its rows out of the ranking in order
            rank = np.empty_like(order)
            rank[order] = np.arange(order.shape[0])
            for s, (lo, hi) in spans.items():
                whole = lo == 0 and hi == y.shape[0]
                aps[i][s][name] = _ranked_ap(ranked if whole else ranked[np.sort(rank[lo:hi])])
    return aps


def score_scopes(blocks, confs, scopes, m_bins: int) -> list:
    """Per-class metrics and pooled curve of every (method, scope) pair.

    ``blocks`` lists one (classes, labels, rows) triple per chunk of
    evaluation rows: the chunk's labels are ``labels[rows]``, N_k x C_k,
    and method i's confidences ``confs[i][k][rows]``.  ``scopes`` lists
    (name, start, stop) triples; a scope is the run of chunks
    ``blocks[start:stop]``.  Returns ``out[i][s]``, the (per_class, curve)
    pair that :func:`score_scope` gives for method i's chunks of scope s.
    Each method's chunks are binned once for all scopes, and each class
    column is sorted once per method (see :func:`_scope_aps`).
    """
    columns: dict = {}
    for k, (classes, _, _) in enumerate(blocks):
        for j, name in enumerate(classes):
            columns.setdefault(name, []).append((k, j))
    code = {name: c for c, name in enumerate(columns)}
    codes = [np.array([code[n] for n in classes]) for classes, _, _ in blocks]
    rows = [r for _, _, r in blocks]
    label_blocks = [labels[r] for (_, labels, _), r in zip(blocks, rows)]
    runs = [(start, stop) for _, start, stop in scopes]
    binned = []
    for conf in confs:
        chunks = ((codes[k], conf[k][r], label_blocks[k]) for k, r in enumerate(rows))
        binned.append(_bin_sums(chunks, len(code), m_bins, runs))
    aps = _scope_aps(columns, rows, label_blocks, confs, scopes)
    # each scope's classes in first-seen order
    names = [
        list(dict.fromkeys(n for classes, _, _ in blocks[start:stop] for n in classes))
        for _, start, stop in scopes
    ]
    out = []
    for by_scope, aps_i in zip(binned, aps):
        results = []
        for s, (per_class, pooled) in enumerate(by_scope):
            codes_s = [code[n] for n in names[s]]
            metrics = _class_metrics(names[s], [a[codes_s] for a in per_class], aps_i[s])
            results.append((metrics, _curve(*pooled, scope=scopes[s][0])))
        out.append(results)
    return out


def _class_metrics(names, sums, aps) -> list:
    """ClassMetrics of each named class from its rows of the (counts,
    confidence sums, positive sums) bin arrays and its AP in ``aps``."""
    counts, conf_sums, pos_sums = sums
    filled = np.maximum(counts, 1)
    ocs, ucs = _over_under(counts, conf_sums / filled, pos_sums / filled, counts.sum(axis=1))
    out = []
    for k, name in enumerate(names):
        n_pos = int(pos_sums[k].sum())
        scores = CalibrationScores.from_components(
            float(ocs[k]), float(ucs[k]), scope=name, weight=float(n_pos)
        )
        out.append(ClassMetrics(class_id=name, ap=aps[name], scores=scores, n_pos=n_pos))
    return out


def score_scope(chunks, m_bins: int, scope: str = "pooled"):
    """Per-class metrics and pooled reliability curve of one scope.

    ``chunks`` is a sequence of (classes, confidences, labels) blocks, each
    N_k x C_k.  A class named by several chunks is one class: its column is
    the concatenation of their columns in chunk order, and the returned
    ClassMetrics list follows first-seen class order.
    """
    blocks = [(classes, labels, slice(None)) for classes, _, labels in chunks]
    confs = [[conf for _, conf, _ in chunks]]
    return score_scopes(blocks, confs, [(scope, 0, len(blocks))], m_bins)[0][0]


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
    [(_, pooled)] = _bin_sums(
        [(np.zeros(1, dtype=int), conf[:, None], y[:, None])], 1, m_bins, [(0, 1)]
    )
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
    [(_, pooled)] = _bin_sums([(np.zeros(d.c, dtype=int), probs, d.labels)], 1, m_bins, [(0, 1)])
    return _curve(*pooled, scope=scope)
