"""Brute-force re-implementations used as independent test oracles.

Everything here is written as plain loops over samples, deliberately
avoiding the vectorized code paths in the package: ranking by explicit
sort, binning by scanning the edge list per sample, accumulation one
element at a time in source order.  Reductions that the library performs
with np.mean are finished with np.mean here too, over the same value
sequence, so agreement is expected bit-for-bit in float64.
"""

import csv
from types import SimpleNamespace

import numpy as np

from mlcalib.core import ValidationError


def oracle_average_precision(scores, labels):
    """AP by explicit ranking: descending score, ties by ascending index."""
    scores = [float(s) for s in scores]
    labels = [float(y) for y in labels]
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    precisions = []
    hits = 0
    for rank0, i in enumerate(order):
        if labels[i] == 1.0:
            hits += 1
            precisions.append(hits / float(rank0 + 1))
    if not precisions:
        return None
    return float(np.mean(np.asarray(precisions, dtype=np.float64)))


def oracle_cmap(prob_matrix, label_matrix):
    """Macro-average of per-class oracle APs, skipping positive-free classes."""
    n, c = prob_matrix.shape
    aps = []
    for j in range(c):
        ap = oracle_average_precision(prob_matrix[:, j], label_matrix[:, j])
        if ap is not None:
            aps.append(ap)
    if not aps:
        return None
    return float(np.mean(aps))


def oracle_bin_sums(conf, labels, m_bins):
    """Per-sample edge scan plus sequential accumulation.

    A value lands in the bin of the last edge that does not exceed it,
    clamped to the final bin so 1.0 stays inside.  Sums grow one sample at
    a time in input order.
    """
    edges = np.arange(m_bins + 1, dtype=np.float64) / m_bins
    counts = [0] * m_bins
    conf_sums = [0.0] * m_bins
    pos_sums = [0.0] * m_bins
    for v, y in zip(conf, labels):
        v = float(v)
        j = 0
        for k in range(1, m_bins + 1):
            if v >= edges[k]:
                j = k
        if j > m_bins - 1:
            j = m_bins - 1
        counts[j] += 1
        conf_sums[j] += v
        pos_sums[j] += float(y)
    return counts, conf_sums, pos_sums


def oracle_curve(conf, labels, m_bins):
    """Reliability bins as plain dicts: index, bounds, count, conf, acc."""
    edges = np.arange(m_bins + 1, dtype=np.float64) / m_bins
    counts, conf_sums, pos_sums = oracle_bin_sums(conf, labels, m_bins)
    bins = []
    for m in range(m_bins):
        if counts[m] > 0:
            bins.append(
                {
                    "index": m + 1,
                    "lower": float(edges[m]),
                    "upper": float(edges[m + 1]),
                    "count": counts[m],
                    "conf": conf_sums[m] / counts[m],
                    "acc": pos_sums[m] / counts[m],
                }
            )
        else:
            bins.append(
                {
                    "index": m + 1,
                    "lower": float(edges[m]),
                    "upper": float(edges[m + 1]),
                    "count": 0,
                    "conf": None,
                    "acc": None,
                }
            )
    return bins, sum(counts)


def oracle_scores(bins, n):
    """{ece, mcs, ocs, ucs} accumulated bin by bin from over/under parts."""
    ocs = 0.0
    ucs = 0.0
    for b in bins:
        if b["count"] == 0:
            continue
        gap = b["conf"] - b["acc"]
        share = b["count"] / n
        if gap > 0.0:
            ocs += share * gap
        elif gap < 0.0:
            ucs += share * (-gap)
    return {"ece": ocs + ucs, "mcs": ocs - ucs, "ocs": ocs, "ucs": ucs}


def oracle_per_class(prob_matrix, label_matrix, m_bins):
    """Per-class table: scores, AP, positive count for every column."""
    n, c = prob_matrix.shape
    out = []
    for j in range(c):
        bins, total = oracle_bin_sums_scores(prob_matrix[:, j], label_matrix[:, j], m_bins)
        ap = oracle_average_precision(prob_matrix[:, j], label_matrix[:, j])
        n_pos = int(sum(1 for y in label_matrix[:, j] if float(y) == 1.0))
        out.append({"scores": bins, "ap": ap, "n_pos": n_pos})
    return out


def oracle_bin_sums_scores(conf, labels, m_bins):
    bins, n = oracle_curve(conf, labels, m_bins)
    return oracle_scores(bins, n), n


def oracle_pooled_curve(prob_matrix, label_matrix, m_bins):
    """Pooled curve over all (sample, class) pairs in row-major order."""
    conf = [float(v) for row in prob_matrix for v in row]
    labels = [float(v) for row in label_matrix for v in row]
    return oracle_curve(conf, labels, m_bins)


def oracle_weighted_scores(classes, scope):
    """The positive-count weighted quadruple of ``classes``, (n_pos, ocs,
    ucs) triples in the row's class order, as a CalibrationScores field
    dict.  Each weighted term is multiplied out one class at a time and the
    terms are finished with np.sum, as the library sums them; ECE and MCS
    are rebuilt from the averaged OCS and UCS.  Classes without a positive
    between them are refused, as the library refuses them."""
    weight = 0
    ocs_terms = []
    ucs_terms = []
    for n_pos, ocs, ucs in classes:
        weight += n_pos
        ocs_terms.append(float(n_pos) * ocs)
        ucs_terms.append(float(n_pos) * ucs)
    if weight == 0:
        raise ValidationError(
            f"all classes have zero positives in scope {scope!r}; aggregate undefined")
    ocs = float(np.sum(ocs_terms)) / weight
    ucs = float(np.sum(ucs_terms)) / weight
    return {"ece": ocs + ucs, "mcs": ocs - ucs, "ocs": ocs, "ucs": ucs, "scope": scope,
            "weight": float(weight)}


def oracle_frequent_rare(n_pos, target_fraction):
    """(frequent, rare, k, mass fraction) by repeated selection: the
    frequent side takes the class with the most positives (ties: the
    smallest name) until it holds ``target_fraction`` of all positives, and
    the rest, in the same order, are rare.  Classes without positives are
    on neither side."""
    left = {name: cnt for name, cnt in n_pos.items() if cnt > 0}
    total = sum(left.values())
    taken = []
    while left:
        name = min(left, key=lambda n: (-left[n], n))
        taken.append((name, left.pop(name)))
    frequent = []
    mass = 0
    for name, cnt in taken:
        if mass >= target_fraction * total:
            break
        frequent.append(name)
        mass += cnt
    rare = tuple(name for name, _ in taken[len(frequent):])
    return tuple(frequent), rare, len(frequent), mass / total


def oracle_relative_improvement(base_mcs, new_mcs):
    """100 * (|base| - |new|) / |base|, or None where Base's MCS is 0."""
    if base_mcs == 0.0:
        return None
    return 100.0 * (abs(base_mcs) - abs(new_mcs)) / abs(base_mcs)


def oracle_read_matrix_csv(path, kind):
    """The matrix CSV reader as ``csv.reader`` plus ``float()`` per cell.

    Defines the accepted inputs, the parsed values and every error message
    of ``rowfiles._read_matrix_csv``, whose C-parser path must agree with it.
    A leading UTF-8 byte order mark is skipped.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc
    header = None
    ids = []
    rows = []
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{kind} file {path} is empty")
            if not header or header[0] != "sample_id":
                raise ValidationError(
                    f"{kind} file {path}: first header cell must be 'sample_id'"
                )
            classes = tuple(header[1:])
            if not classes:
                raise ValidationError(f"{kind} file {path}: no class columns")
            if len(set(classes)) != len(classes):
                dupe = next(c for c in classes if header[1:].count(c) > 1)
                raise ValidationError(f"duplicate class name {dupe!r} in {kind} file {path}")
            for i, cells in enumerate(reader):
                if len(cells) != len(classes) + 1:
                    raise ValidationError(
                        f"shape mismatch in {kind} file {path} (row {i}: "
                        f"{len(cells)} cells, expected {len(classes) + 1})"
                    )
                ids.append(cells[0])
                row = []
                for j, text in enumerate(cells[1:]):
                    try:
                        row.append(float(text))
                    except ValueError:
                        raise ValidationError(
                            f"non-numeric value (row {i}, class {classes[j]}) "
                            f"in {kind} file {path}: {text!r}"
                        ) from None
                rows.append(row)
        except UnicodeDecodeError:
            raise ValidationError(f"{kind} file {path} is not UTF-8 text") from None
        except csv.Error as exc:
            # the record being read failed: the header, or data row len(rows)
            where = "header" if header is None else f"row {len(rows)}"
            raise ValidationError(f"{kind} file {path} ({where}): {exc}") from None
    if not rows:
        raise ValidationError(f"{kind} file {path} has no data rows")
    return classes, ids, np.array(rows, dtype=np.float64)


def oracle_split_first_minutes(d, minutes):
    """The first-minutes split as a running total, one manifest row at a
    time: rows grouped per dataset_id in first-seen order, each group
    ordered with ``sorted`` on (start_s, sample_id), and ``cum +=`` over
    the durations.  Returns (calibration, evaluation) row indices."""
    meta = [
        SimpleNamespace(sample_id=s, dataset_id=ds, start_s=t, duration_s=u)
        for s, ds, t, u in zip(
            d.meta.sample_id, d.meta.dataset_id, d.meta.start_s.tolist(),
            d.meta.duration_s.tolist(),
        )
    ]
    if not minutes > 0:
        raise ValidationError(f"minutes must be > 0, got {minutes}")
    limit = minutes * 60.0
    by_ds: dict = {}
    for i, row in enumerate(meta):
        by_ds.setdefault(row.dataset_id, []).append(i)
    cal: list = []
    ev: list = []
    for ds_id, idxs in by_ds.items():
        ordered = sorted(idxs, key=lambda i: (meta[i].start_s, meta[i].sample_id))
        cum = 0.0
        n_eval = 0
        for i in ordered:
            if cum < limit:
                cal.append(i)
            else:
                ev.append(i)
                n_eval += 1
            cum += meta[i].duration_s
        if n_eval == 0:
            raise ValidationError(
                f"calibration window consumes entire dataset {ds_id!r}: "
                f"a clip calibrates while the clips before it last less than {minutes:g} "
                "minutes in total, and here every clip does"
            )
    return np.array(sorted(cal), dtype=np.intp), np.array(sorted(ev), dtype=np.intp)
