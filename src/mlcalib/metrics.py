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
list of (classes, labels, confidences) chunks of evaluation rows, with a
confidence block per method, and scopes, each a run of consecutive chunks;
a pooled scope runs over every chunk, a dataset scope over its own.

Ranking and bin lookup work in blocks of at most ``_BLOCK_CELLS`` (2^16)
cells, or of one class column where a column is longer, so that their
temporaries stay small whatever the number of rows.

Binning (``_bin_sums``) takes each method's chunks once.  A chunk's cells
are binned once, a block at a time and by arithmetic, ``min(floor(c * M),
M - 1)`` corrected by one comparison against each neighbouring edge (the
last one +inf, so the last bin is closed at 1), and added to every scope
that holds the chunk: counts, confidence sums and positive sums at
``class_code * M + bin``.  Each class adds its cells chunk by chunk and,
within a chunk, row by row, exactly as one pass over its concatenated
column; a scope's pooled curve sums each of its chunks row-major from zero
and adds the chunk totals in chunk order.  The order is fixed, so results
are bit-reproducible and equal the loop-based oracles.  OCS and UCS are
accumulated bin by bin, vectorized across classes.

AP (``_scope_aps``) ranks each scope's own class columns, each its chunks
concatenated in chunk order.  The classes that the same chunks hold are
ranked together as one C-contiguous block, a row per class.  One default
argsort ranks a block, an O(N) check proves for each row that it is the
stable descending order (ties in ascending position), and only the rows
that fail it are sorted again, stably.  A later method reuses the first
method's order of a row where the same check proves it is its own, and
ranks the other rows again.  A row's AP is the np.mean of its positives'
precisions, as for a lone column.

There is one AP path, ``_block_aps``: ``average_precision`` ranks a
block of one row and ``cmap`` the blocks of a dataset's classes.
``bin_class``, ``calibration_scores``, ``per_class_scores`` and
``pooled_reliability`` share the kernel's binning and accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvalDataset, ValidationError, check_pair


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


# cells of one block of the kernel: a scope's classes are ranked, and a
# chunk's cells binned, this many at a time (a block holds at least one
# class column), so the kernel's temporaries do not grow with the rows
_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, width: int) -> list:
    """Slices that cut ``rows`` rows of ``width`` cells into blocks of at
    most _BLOCK_CELLS cells, or of one row where a row is longer."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _descending(block: np.ndarray) -> np.ndarray:
    """The stable descending order of each row of a C-contiguous score
    block, as flat indices into the block, so that one ``np.take`` reads
    every row in its order: ties keep ascending position, and the ranking
    is the same on every platform.  One default argsort ranks every row,
    and :func:`_keeps_order` proves it is that order, as it is whenever no
    two scores of a row are equal; the rows it fails (a tie broken the
    other way, ``-0.0`` next to ``0.0``, a NaN) are sorted again, stably."""
    starts = np.arange(block.shape[0])[:, None] * block.shape[1]
    order = np.argsort(-block, axis=1)
    order += starts
    redo = ~_keeps_order(block, order)
    if redo.any():
        order[redo] = np.argsort(-block[redo], axis=1, kind="stable") + starts[redo]
    return order


def _keeps_order(block: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Whether each row of ``order``, flat indices into the C-contiguous
    ``block``, is the stable descending order of that row of ``block``:
    read in that order its scores never increase, and equal neighbours sit
    in ascending position.  A NaN among two or more scores of a row fails
    its check."""
    ranked = np.take(block, order)
    here, after = ranked[:, :-1], ranked[:, 1:]
    ascending = order[:, 1:] > order[:, :-1]
    return ((after < here) | ((after == here) & ascending)).all(axis=1)


def _ranked_aps(ranked: np.ndarray) -> list:
    """AP of each row of a block of labels in rank order, the mean
    precision at each positive's rank, each by one np.mean as for a lone
    column; None for a row without positives."""
    width = ranked.shape[1]
    if width == 0:
        raise ValidationError("average_precision needs at least one sample")
    precision = np.cumsum(ranked, axis=1)
    precision /= np.arange(1, width + 1, dtype=np.float64)
    hits = ranked == 1.0
    at = precision[hits]  # each row's positives' precisions, row after row
    ends = np.cumsum(hits.sum(axis=1)).tolist()
    return [None if total == 0 else float(np.mean(at[start:end]))
            for total, start, end in zip(ranked.sum(axis=1).tolist(), [0, *ends], ends)]


def _block_aps(scores: np.ndarray, labels: np.ndarray) -> tuple:
    """(order, APs) of each row of C-contiguous blocks of scores and their
    labels: the one AP path of the module."""
    order = _descending(scores)
    return order, _ranked_aps(np.take(labels, order))


def average_precision(scores, labels) -> float | None:
    """AP of one class: mean precision at each positive's rank.

    Ranking is by score descending with ties broken by ascending original
    index (stable), so results are identical across platforms.  Scores
    must be finite and labels 0 or 1; None means no positives.
    """
    s, y = check_pair(scores, labels, "finite", 1)
    return _block_aps(s[None], y[None])[1][0]


def cmap(d: EvalDataset, probs: np.ndarray) -> float:
    """Macro-average AP over classes that have at least one positive."""
    probs, y = check_pair(probs, d.labels, "probability", 2, d.classes)
    aps = []
    for rows in _row_blocks(d.c, d.n):  # blocks of class columns, one row each
        scores, labels = (np.ascontiguousarray(m[:, rows].T) for m in (probs, y))
        aps += [ap for ap in _block_aps(scores, labels)[1] if ap is not None]
    if not aps:
        raise ValidationError("cmAP undefined: no class has a positive label")
    return float(np.mean(aps))


# the most reliability bins M a run may ask for: time and memory grow
# linearly in M, and with more bins than this most of them stay empty at
# the sample sizes of a calibration study
MAX_BINS = 1000


def check_bins(m_bins: int) -> None:
    """Reject a bin count M that is no Python or numpy integer (a bool is
    none) or lies outside [1, MAX_BINS]."""
    if not np.issubdtype(type(m_bins), np.integer):
        raise ValidationError(f"M must be an integer, got {m_bins!r}")
    if not 1 <= m_bins <= MAX_BINS:
        raise ValidationError(f"M must be in [1, {MAX_BINS}], got {m_bins}")


def _bin_edges(m_bins: int) -> np.ndarray:
    return np.arange(m_bins + 1, dtype=np.float64) / m_bins


def _bin_sums(chunks, n_classes: int, m_bins: int, runs):
    """Bin sums of runs of chunks, per class and pooled.

    ``chunks`` yields (codes, labels, confidences) blocks, N_k x C_k, with
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
    size = n_classes * m_bins
    sums = [(np.zeros(size, dtype=np.int64), np.zeros(size), np.zeros(size)) for _ in runs]
    pooled = [None] * len(runs)
    for k, (codes, labels, conf) in enumerate(chunks):
        # a NaN makes min and max NaN, which fails both comparisons
        if conf.size and not (conf.min() >= 0.0 and conf.max() <= 1.0):
            raise ValidationError("confidences must lie in [0, 1]")
        bins = _bin_index(conf, m_bins)
        flat_conf, flat_labels = conf.ravel(), labels.ravel()
        totals = [
            np.bincount(bins.ravel(), weights=w, minlength=m_bins)
            for w in (None, flat_conf, flat_labels)
        ]
        bins += codes * m_bins  # each cell's (class, bin) index, in place
        cells = bins.ravel()
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


def _bin_index(conf: np.ndarray, m_bins: int) -> np.ndarray:
    """The bin of each confidence in [0, 1], an index array of its shape:
    that of the last of the M + 1 edges not above it, the last bin closed
    at 1.  Computed _BLOCK_CELLS cells at a time as ``min(floor(c * M),
    M - 1)``, at most one bin off for the rounding of ``c * M`` and of the
    edges, and corrected by one comparison against each neighbouring edge,
    the last of them +inf."""
    edges = _bin_edges(m_bins)
    edges[-1] = np.inf
    bins = np.empty(conf.shape, dtype=np.intp)
    flat = bins.reshape(-1)
    cells = conf.reshape(-1)
    for lo in range(0, cells.size, _BLOCK_CELLS):
        c, b = cells[lo : lo + _BLOCK_CELLS], flat[lo : lo + _BLOCK_CELLS]
        np.multiply(c, m_bins, out=b, casting="unsafe")  # floor: c >= 0
        np.minimum(b, m_bins - 1, out=b)
        b -= c < edges[b]
        b += c >= edges[1:][b]
    return bins


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


def _scope_aps(columns, labels, confs, scopes) -> list:
    """AP of every (method, scope, class): ``aps[i][s][class]``.  Chunk k
    has labels ``labels[k]`` and method i's confidences ``confs[i][k]``.

    A scope ranks the column of each of its classes, the class's chunks in
    the scope concatenated.  The classes that the same chunks hold are
    ranked together, one block of at most _BLOCK_CELLS cells at a time
    (see :func:`_methods_aps`).
    """
    aps = [[{} for _ in scopes] for _ in confs]
    for s, (_, start, stop) in enumerate(scopes):
        groups: dict = {}  # the scope's chunks that hold a class -> (class, columns)
        for name, cols in columns.items():
            if mine := [(k, j) for k, j in cols if start <= k < stop]:
                chunks, js = zip(*mine)
                groups.setdefault(chunks, []).append((name, js))
        for chunks, members in groups.items():
            width = sum(labels[k].shape[0] for k in chunks)
            for rows in _row_blocks(len(members), width):
                names, js = zip(*members[rows])
                cols = list(zip(chunks, zip(*js)))  # each chunk and its columns of the block
                for out, block_aps in zip(aps, _methods_aps(cols, labels, confs)):
                    out[s].update(zip(names, block_aps))
    return aps


def _methods_aps(cols, labels, confs) -> list:
    """Each method's APs of one block of class columns: ``cols`` lists
    each chunk k and its column of every class, and the block holds one
    row per class, its cells of the chunks in order, C-contiguous.  A
    later method keeps the first method's order of a row where
    :func:`_keeps_order` proves it is also its own; its ranked labels, and
    so its AP, are then the first method's.  The other rows are ranked
    again.  A function of its own, so that the block's arrays are freed
    before the next block is built."""

    def block(mats):
        return np.concatenate([mats[k][:, list(j)].T for k, j in cols], axis=1,
                              dtype=np.float64)

    y = block(labels)
    first_order, first = _block_aps(block(confs[0]), y)
    out = [first]
    for conf in confs[1:]:
        scores = block(conf)
        redo = ~_keeps_order(scores, first_order)
        again = iter(_block_aps(scores[redo], y[redo])[1] if redo.any() else ())
        out.append([next(again) if r else ap for ap, r in zip(first, redo)])
    return out


def score_scopes(chunks, scopes, m_bins: int) -> list:
    """Per-class metrics and pooled curve of every (method, scope) pair.

    ``chunks`` lists one (classes, labels, confidences) triple per chunk of
    evaluation rows: N_k x C_k labels and one N_k x C_k block per method.
    ``scopes`` lists (name, start, stop) triples; a scope is the run of
    chunks ``chunks[start:stop]``.  Returns ``out[i][s]``, the per-class
    metrics and pooled reliability curve of method i on scope s.  A class
    named by several chunks of a scope is one class: its column is their
    columns concatenated in chunk order, and the ClassMetrics list follows
    first-seen class order.  Each method's chunks are binned once for all
    scopes, and each scope ranks its own class columns (see
    :func:`_scope_aps`).
    """
    columns: dict = {}
    for k, (classes, _, _) in enumerate(chunks):
        for j, name in enumerate(classes):
            columns.setdefault(name, []).append((k, j))
    code = {name: c for c, name in enumerate(columns)}
    codes = [np.array([code[n] for n in classes]) for classes, _, _ in chunks]
    labels = [y for _, y, _ in chunks]
    confs = list(zip(*(conf for _, _, conf in chunks)))  # confs[i][k]: method i, chunk k
    runs = [(start, stop) for _, start, stop in scopes]
    binned = [_bin_sums(zip(codes, labels, conf), len(code), m_bins, runs) for conf in confs]
    aps = _scope_aps(columns, labels, confs, scopes)
    # each scope's classes in first-seen order
    names = [
        list(dict.fromkeys(n for classes, _, _ in chunks[start:stop] for n in classes))
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


def bin_class(confidences, labels, m_bins: int, scope: str = "class") -> ReliabilityCurve:
    """Partition one class's confidences into M equal-width bins.

    Bins are [(m-1)/M, m/M) with the last bin closed at 1, confidences lie
    in [0, 1] and labels are 0 or 1.  ``acc`` is the empirical positive
    frequency of the bin (the one-vs-rest reading of accuracy).
    """
    conf, y = check_pair(confidences, labels, "probability", 1)
    [(_, pooled)] = _bin_sums(
        [(np.zeros(1, dtype=int), y[:, None], conf[:, None])], 1, m_bins, [(0, 1)]
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
    probs, labels = check_pair(probs, d.labels, "probability", 2, d.classes)
    chunks = [(d.classes, labels, [probs])]
    return score_scopes(chunks, [("pooled", 0, 1)], m_bins)[0][0][0]


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
    probs, labels = check_pair(probs, d.labels, "probability", 2, d.classes)
    [(_, pooled)] = _bin_sums([(np.zeros(d.c, dtype=int), labels, probs)], 1, m_bins, [(0, 1)])
    return _curve(*pooled, scope=scope)
