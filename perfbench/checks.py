"""Output checks against an independent numpy reference.

Every check returns a list of problems; an empty list means the output is
correct.  What is checked:

* report.json: ece = ocs + ucs and mcs = ocs - ucs bit for bit, and
  |mcs| <= ece, for every row, subset block and per-class entry; every
  (scope, method) row's n_samples, cmAP and OCS/UCS agree with the
  reference below to REF_RTOL / REF_ATOL.
* params.json: every parameter finite, T > 0, nll_final <= nll_initial.
  Parameter recovery is not asserted: the default fit stops short of the
  optimum on some classes, which the traced run reports as a gradient norm.
* calibrated.csv: header and ids as in the predictions, every cell equal to
  sigmoid(z / T + b) recomputed from the logits and the params to CAL_RTOL.
* reliability_*.svg: one well-formed SVG document per report scope.

The reference bins each class into M equal-width bins by floor(p * M)
(the last bin closed at 1), weights per-class scores by positive counts and
ranks by score descending with ties by ascending row for AP.  It shares no
code with the program; only the summation order differs, hence the
tolerances.
"""

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

REF_RTOL = 1e-9
REF_ATOL = 1e-12
CAL_RTOL = 1e-12

BASE = "base"
ALL_SCOPE = "All"


def sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def read_matrix(path):
    """(header, ids, values) of a ``sample_id,<class...>`` CSV."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        ids = [line.split(",", 1)[0] for line in fh]
    with open(path, newline="") as fh:
        fh.readline()
        values = np.loadtxt(
            fh, delimiter=",", usecols=range(1, len(header)), dtype=np.float64, ndmin=2
        )
    return header, ids, values


class Reference:
    """The fixture as the reference sees it, loaded once per run."""

    def __init__(self, fixture_dir):
        self.fixture_dir = fixture_dir
        self.header, self.ids, self.logits = read_matrix(
            os.path.join(fixture_dir, "predictions.csv")
        )
        _, _, self.labels = read_matrix(os.path.join(fixture_dir, "labels.csv"))
        with open(os.path.join(fixture_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        self.dataset = np.array([row["dataset_id"] for row in manifest])
        self.start = np.array([float(row["start_s"]) for row in manifest])
        self.duration = np.array([float(row["duration_s"]) for row in manifest])
        self.sample_id = [row["sample_id"] for row in manifest]

    def eval_rows(self, split):
        """Row indices on the evaluation side of ``split`` (None, or
        ("first-minutes", minutes), or ("held-out-dataset", dataset_id))."""
        n = self.logits.shape[0]
        if split is None:
            return np.arange(n)
        kind, value = split
        if kind == "held-out-dataset":
            return np.flatnonzero(self.dataset != value)
        limit = float(value) * 60.0
        calib = np.zeros(n, dtype=bool)
        for ds in np.unique(self.dataset):
            rows = np.flatnonzero(self.dataset == ds)
            order = sorted(rows, key=lambda i: (self.start[i], self.sample_id[i]))
            dur = self.duration[order]
            before = np.cumsum(dur) - dur
            calib[np.array(order)[before < limit]] = True
        return np.flatnonzero(~calib)


def average_precision(scores, labels):
    order = np.lexsort((np.arange(scores.size), -scores))
    hits = labels[order]
    n_pos = hits.sum()
    if n_pos == 0:
        return None
    precision = np.cumsum(hits) / np.arange(1, scores.size + 1)
    return float(precision[hits == 1.0].sum() / n_pos)


def scope_scores(conf, labels, m_bins):
    """cmAP, OCS and UCS of one scope from its (rows x classes) block."""
    n, c = conf.shape
    idx = np.minimum(np.floor(conf * m_bins).astype(np.int64), m_bins - 1)
    key = (idx + m_bins * np.arange(c)).ravel()
    size = c * m_bins
    counts = np.bincount(key, minlength=size).reshape(c, m_bins)
    conf_sum = np.bincount(key, weights=conf.ravel(), minlength=size).reshape(c, m_bins)
    pos_sum = np.bincount(key, weights=labels.ravel(), minlength=size).reshape(c, m_bins)
    gap = (conf_sum - pos_sum) / np.maximum(counts, 1)
    share = counts / n
    ocs_c = (share * np.maximum(gap, 0.0)).sum(axis=1)
    ucs_c = (share * np.maximum(-gap, 0.0)).sum(axis=1)
    weight = labels.sum(axis=0)
    aps = [average_precision(conf[:, j], labels[:, j]) for j in range(c) if weight[j] > 0]
    return {
        "n": n,
        "cmap": float(np.mean(aps)) if aps else None,
        "ocs": float((weight * ocs_c).sum() / weight.sum()),
        "ucs": float((weight * ucs_c).sum() / weight.sum()),
    }


def _close(got, want):
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REF_ATOL + REF_RTOL * abs(want)


def _score_blocks(report):
    for row in report["rows"]:
        where = f"{row['scope']}/{row['method']}"
        yield where, row
        for part in ("frequent", "rare"):
            if row.get(part) is not None:
                yield f"{where}/{part}", row[part]
        for entry in row.get("per_class") or ():
            yield f"{where}/{entry['class']}", entry


def check_identities(report):
    problems = []
    for where, s in _score_blocks(report):
        if s["ece"] != s["ocs"] + s["ucs"]:
            problems.append(f"report {where}: ece != ocs + ucs")
        if s["mcs"] != s["ocs"] - s["ucs"]:
            problems.append(f"report {where}: mcs != ocs - ucs")
        if not abs(s["mcs"]) <= s["ece"]:
            problems.append(f"report {where}: |mcs| > ece")
    return problems


def method_confidences(ref, params):
    """sigmoid(z / T + b) of every row, from a params document (None: base)."""
    if params is None:
        return sigmoid(ref.logits)
    t = np.asarray(params["T"], dtype=np.float64)
    b = np.asarray(params["b"], dtype=np.float64)
    return sigmoid(ref.logits / t + b)


def check_report(path, ref, split, m_bins, params, label):
    """Identities plus the reference comparison for the base rows and the
    rows of the fitted method ``label`` with parameters ``params``."""
    with open(path) as fh:
        report = json.load(fh)
    problems = check_identities(report)
    rows = {(r["scope"], r["method"]): r for r in report["rows"]}
    ev = ref.eval_rows(split)
    scope_ids = sorted(set(ref.dataset[ev].tolist()))
    scopes = ([ALL_SCOPE] if len(scope_ids) > 1 else []) + scope_ids
    methods = [(BASE, None), (label, params)]
    expected = {(s, m) for s in scopes for m, _ in methods}
    if set(rows) != expected:
        problems.append(f"report rows {sorted(rows)} != expected {sorted(expected)}")
        return problems
    for method, doc in methods:
        conf = method_confidences(ref, doc)
        for scope in scopes:
            sel = ev if scope == ALL_SCOPE else ev[ref.dataset[ev] == scope]
            want = scope_scores(conf[sel], ref.labels[sel], m_bins)
            got = rows[(scope, method)]
            if got["n_samples"] != want["n"]:
                problems.append(f"report {scope}/{method}: n_samples {got['n_samples']} != {want['n']}")
            for key in ("cmap", "ocs", "ucs"):
                if not _close(got[key], want[key]):
                    problems.append(f"report {scope}/{method}: {key} {got[key]!r} != reference {want[key]!r}")
    return problems


def _finite(values):
    values = values if isinstance(values, list) else [values]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_params(path, ref):
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    for key in ("tau", "T", "b"):
        if not _finite(doc.get(key)):
            problems.append(f"params {key} not finite")
    if _finite(doc.get("T")) and not np.all(np.asarray(doc["T"]) > 0):
        problems.append("params T not > 0")
    if doc.get("scope") == "per-class" and doc.get("classes") != ref.header[1:]:
        problems.append("params classes differ from the predictions header")
    trace = doc.get("trace") or {}
    if not _finite([trace.get("nll_initial"), trace.get("nll_final")]):
        problems.append("params trace nll not finite")
    elif not trace["nll_final"] <= trace["nll_initial"]:
        problems.append("params nll_final > nll_initial")
    return problems, doc


def check_calibrated(path, ref, params):
    header, ids, values = read_matrix(path)
    problems = []
    if header != ref.header:
        problems.append("calibrated.csv header differs from the predictions header")
    if ids != ref.ids:
        problems.append("calibrated.csv sample ids differ from the predictions")
    if values.shape != ref.logits.shape:
        problems.append(f"calibrated.csv shape {values.shape} != {ref.logits.shape}")
        return problems
    want = method_confidences(ref, params)
    bad = np.abs(values - want) > CAL_RTOL * np.abs(want)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        problems.append(
            f"calibrated.csv: {int(bad.sum())} cells differ from sigmoid(z/T+b), "
            f"first at row {i} class {j}: {values[i, j]!r} != {want[i, j]!r}"
        )
    return problems


def check_svgs(out_dir, report_path):
    with open(report_path) as fh:
        scopes = {c["scope"] for c in json.load(fh)["curves"]}
    names = sorted(f for f in os.listdir(out_dir) if f.startswith("reliability_") and f.endswith(".svg"))
    problems = []
    if len(names) != len(scopes):
        problems.append(f"{len(names)} SVG files for {len(scopes)} scopes")
    for name in names:
        try:
            root = ET.parse(os.path.join(out_dir, name)).getroot()
        except ET.ParseError as exc:
            problems.append(f"{name}: not well-formed ({exc})")
            continue
        if not root.tag.endswith("svg"):
            problems.append(f"{name}: root element is {root.tag}")
    return problems
