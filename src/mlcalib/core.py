"""Domain types, the logit/probability primitives and the JSON inputs.

Everything downstream (metrics, scaling, protocols) consumes the
:class:`EvalDataset` defined here: an aligned logit matrix, a binary label
matrix, class names, and a columnar :class:`Manifest` with one row per
sample.  All arithmetic is float64.  The elementwise primitives
(:func:`sigmoid`, :func:`inverse_sigmoid` and the normal quantile
:func:`ndtri`, a port of Cephes ndtri that gives scipy's bits) work in
blocks, so their temporaries stay one block long.

JSON files are read as UTF-8 whatever the locale, and every JSON field
that the manifest, params and report loaders read is checked against one
table of kinds, through :func:`json_field`; every checked matrix cell
against one table of cell kinds, ``_CELLS``, through :func:`check_cells`,
and a library entry's scores and labels through :func:`check_pair`.  JSON
text is this module's alone: :func:`dumps_canonical` writes every document
by ``json.dumps``, each float as its repr as in the matrix CSVs, and
:func:`manifest_rows` writes the same bytes for manifest rows, from plain
ids and times and without building the row objects; it and
:func:`read_manifest` take the manifest's fields from one table.  The
matrix CSVs, the file triple's loader and every output are
:mod:`mlcalib.rowfiles`'s, which builds on this module; this module
imports no other of the package.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np


class ValidationError(ValueError):
    """An input file or matrix violates a documented contract."""


class NumericalError(RuntimeError):
    """A numerical routine degenerated (non-finite value where none is allowed)."""


# cells of sigmoid's, inverse_sigmoid's and ndtri's output computed at a
# time: their temporaries are one block long, not the size of the matrix
_BLOCK_CELLS = 1 << 16


def _by_blocks(arr: np.ndarray, step):
    """A new float64 array of ``arr``'s shape, in C order, filled by
    ``step(x, y)`` block by block: ``x`` is a block of ``arr``'s flat
    C-order cells and ``y`` the same block of the output.  A 0-d result is
    returned as a float."""
    out = np.empty(arr.shape)
    cells, flat = arr.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _BLOCK_CELLS):
        step(cells[i : i + _BLOCK_CELLS], flat[i : i + _BLOCK_CELLS])
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid(z):
    """Map logits to probabilities, numerically stable on both tails.

    Accepts scalars or arrays; returns the same shape, in C order.
    sigmoid(0) is exactly 0.5 and the function is strictly increasing.
    """
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e)
    # below, computed in place in the output.  min(z, -z) is -|z| except
    # that it returns a NaN as it is, where -np.abs would set its sign bit.
    def step(x, y):
        np.negative(x, out=y)
        np.minimum(x, y, out=y)
        np.exp(y, out=y)
        denom = y + 1.0
        np.copyto(y, 1.0, where=x >= 0)
        y /= denom

    return _by_blocks(np.asarray(z, dtype=np.float64), step)


def check_eps(eps: float):
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {eps}")


def inverse_sigmoid(p, eps: float = 1e-7):
    """Recover logits from probabilities.

    Values are clamped to [eps, 1-eps] before the log-odds transform, so
    exact 0/1 probabilities (common in exported model outputs) map to large
    finite logits instead of infinities.  Exact inverse of :func:`sigmoid`
    on (eps, 1-eps).  Returns the same shape, in C order.
    """
    check_eps(eps)
    arr = np.asarray(p, dtype=np.float64)
    what, mask, _ = _CELLS["probability"]
    bad = mask(arr)
    if bad.any():
        cell = int(np.argmax(bad))
        raise ValidationError(f"{what} at flat index {cell}: {float(arr.flat[cell])!r}")
    del bad

    def step(x, y):  # log(c / (1 - c)) of the clamped c, in place
        np.clip(x, eps, 1.0 - eps, out=y)
        denom = 1.0 - y
        y /= denom
        np.log(y, out=y)

    return _by_blocks(arr, step)


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989): rational approximations in y - 0.5 for the central
# part, and in 1/x, x = sqrt(-2 log y), below and above x = 8 for the tails
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """Cephes ``x * polevl(x, p) / p1evl(x, q)``, in that order: Horner
    steps ``ans * x + c``, each rounded twice as in C without fused
    multiply-adds; ``q`` has an implied leading coefficient of 1."""
    num = np.full_like(x, p[0])
    for c in p[1:]:
        num *= x
        num += c
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    return x * num / den


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log; numpy's vectorized log may differ
    # from it in the last bit, and Cephes ndtri is defined on libm's
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(u):
    """The standard normal quantile of each probability ``u``: the same
    bits as ``scipy.special.ndtri``, which is Cephes ndtri.

    -inf at 0, +inf at 1 and NaN outside [0, 1] or at NaN.  Returns the
    same shape, in C order.
    """
    def step(x, y):
        # as Cephes: t = 1 - x (exact) above 1 - exp(-2), else x; a tail
        # result is negated where x was not reflected
        flip = x > 1.0 - _EXP_M2
        t = np.where(flip, 1.0 - x, x)
        mid = t > _EXP_M2
        c = t[mid] - 0.5
        c2 = c * c
        y[mid] = (c + c * _rational(c2, _NDTRI_P0, _NDTRI_Q0)) * _S2PI
        tail = ~mid & (t > 0.0)  # False at 0, 1, NaN and outside [0, 1]
        r = np.sqrt(-2.0 * _libm_log(t[tail]))
        z = 1.0 / r
        r1 = _rational(z, _NDTRI_P1, _NDTRI_Q1)
        far = r >= 8.0  # t below exp(-32)
        if far.any():
            r1[far] = _rational(z[far], _NDTRI_P2, _NDTRI_Q2)
        r -= _libm_log(r) / r
        r -= r1
        np.negative(r, out=r, where=~flip[tail])
        y[tail] = r
        y[~(mid | tail)] = np.nan
        y[x == 0.0] = -np.inf
        y[x == 1.0] = np.inf

    return _by_blocks(np.asarray(u, dtype=np.float64), step)


def _frozen(values) -> np.ndarray:
    """A read-only float64 C-order copy of ``values``."""
    out = np.array(values, dtype=np.float64, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Manifest:
    """Where each clip sits on its dataset's timeline, one column per field.

    ``sample_id`` and ``dataset_id`` are tuples of str; ``start_s`` and
    ``duration_s`` are read-only float64 arrays.  ``datasets`` names the
    dataset_ids in first-seen order and ``codes`` holds each row's index
    into it.  The constructor is the one manifest check: every start_s is
    finite and >= 0, every duration_s finite and > 0, and no
    (dataset_id, sample_id) pair repeats.  Errors name the first bad row.
    """

    sample_id: tuple
    dataset_id: tuple
    start_s: np.ndarray
    duration_s: np.ndarray
    datasets: tuple = field(init=False)
    codes: np.ndarray = field(init=False)

    def __post_init__(self):
        ids, ds_ids = tuple(self.sample_id), tuple(self.dataset_id)
        start, duration = _frozen(self.start_s), _frozen(self.duration_s)
        n = len(ids)
        if not (n,) == (len(ds_ids),) == start.shape == duration.shape:
            raise ValidationError(f"manifest columns differ in length: {n}, {len(ds_ids)}, "
                                  f"{start.shape}, {duration.shape}")
        bad_duration = ~(np.isfinite(duration) & (duration > 0))
        bad = bad_duration | ~(np.isfinite(start) & (start >= 0))
        if np.any(bad):
            i = int(np.argmax(bad))
            if bad_duration[i]:
                name, rule, value = "duration_s", "> 0", duration[i]
            else:
                name, rule, value = "start_s", ">= 0", start[i]
            raise ValidationError(
                f"row {i}: {name} must be finite and {rule} (sample {ids[i]!r}, got {value})"
            )
        names, first, inverse = np.unique(
            np.array(ds_ids, dtype=object), return_index=True, return_inverse=True)
        seen = np.argsort(first)  # names in first-seen order
        codes = np.argsort(seen)[inverse]
        codes.flags.writeable = False
        # sorted by (dataset, sample_id), a repeated pair sits right after
        # its first row; Python's string order sorts the object array
        id_col = np.array(ids, dtype=object)
        order = np.lexsort((id_col, codes))
        by_ds, by_id = codes[order], id_col[order]
        repeat = order[1:][(by_ds[1:] == by_ds[:-1]) & (by_id[1:] == by_id[:-1])]
        if repeat.size:
            i = int(repeat.min())
            raise ValidationError(
                f"row {i}: duplicate sample_id {ids[i]!r} within dataset {ds_ids[i]!r}"
            )
        columns = dict(sample_id=ids, dataset_id=ds_ids, start_s=start, duration_s=duration,
                       datasets=tuple(names[seen].tolist()), codes=codes)
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.sample_id)


@dataclass(frozen=True)
class EvalDataset:
    """Aligned predictions and labels for one evaluation run.

    ``logits`` and ``labels`` are N x C float64 matrices and ``meta`` is the
    N-row :class:`Manifest`; ``probs`` holds the verbatim probability matrix
    when the source file contained probabilities (kept so that downstream
    binning sees the exact file values rather than a sigmoid/log-odds round
    trip).  Immutable after construction.  The constructor is the one check
    of a dataset's content: shapes agree, logits are finite, labels are
    0 or 1, probabilities lie in [0, 1] and class names are distinct.
    """

    classes: tuple
    logits: np.ndarray
    labels: np.ndarray
    meta: Manifest
    probs: np.ndarray | None = None

    def __post_init__(self):
        logits, labels = _frozen(self.logits), _frozen(self.labels)
        if logits.ndim != 2 or labels.shape != logits.shape:
            raise ValidationError(
                f"shape mismatch: logits {logits.shape}, labels {labels.shape}"
            )
        if len(self.meta) != logits.shape[0]:
            raise ValidationError(
                f"shape mismatch: {logits.shape[0]} samples but {len(self.meta)} manifest rows"
            )
        if len(self.classes) != logits.shape[1]:
            raise ValidationError(
                f"shape mismatch: {logits.shape[1]} columns but {len(self.classes)} class names"
            )
        if len(set(self.classes)) != len(self.classes):
            dupe = next(c for c in self.classes if list(self.classes).count(c) > 1)
            raise ValidationError(f"duplicate class name {dupe!r}")
        check_cells(logits, "finite", self.classes)
        check_cells(labels, "label", self.classes)
        probs = self.probs
        if probs is not None:
            probs = _frozen(probs)
            if probs.shape != logits.shape:
                raise ValidationError(
                    f"shape mismatch: probs {probs.shape}, logits {logits.shape}"
                )
            check_cells(probs, "probability", self.classes)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def c(self) -> int:
        return self.logits.shape[1]


# each kind of matrix cell check_cells knows: the error's text, the mask of
# the bad cells and whether the error shows the value; NaN is bad in each
_CELLS = {
    "finite": ("non-finite value", lambda v: ~np.isfinite(v), False),
    "label": ("non-binary label", lambda v: (v != 0.0) & (v != 1.0), True),
    "probability": ("probability outside [0, 1]", lambda v: ~((v >= 0.0) & (v <= 1.0)), True),
}


def check_cells(values: np.ndarray, kind: str, classes=None, row: int = 0, where: str = "",
                error=ValidationError):
    """Raise ``error`` naming the first cell, in C order, of the N x C or
    N-long ``values`` not of the ``kind`` of ``_CELLS``: ``what (row i, class
    c){where}`` (``classes[c]``, else the column), or ``what (row i){where}``
    if 1-d, rows counted from ``row``; then ``: value`` if the kind shows it."""
    what, mask, shown = _CELLS[kind]
    bad = mask(values)
    if bad.any():
        cell = int(np.argmax(bad))
        i, c = divmod(cell, bad.shape[1]) if bad.ndim == 2 else (cell, None)
        at = "" if c is None else f", class {c if classes is None else classes[c]}"
        text = f"{what} (row {row + i}{at}){where}"
        raise error(f"{text}: {float(values.flat[cell])!r}" if shown else text)


def check_pair(scores, labels, kind: str, ndim: int, classes=None, error=ValidationError):
    """``scores`` and ``labels`` as float64 arrays, after the one check of a
    library entry's pair: one ``ndim``-d shape, scores of the cell ``kind``
    (else ``error``) and labels 0 or 1.  Errors name the first bad cell,
    or the argument that is no array of numbers."""
    s, y = (_floats(m, name) for m, name in ((scores, "scores"), (labels, "labels")))
    if s.ndim != ndim or s.shape != y.shape:
        raise ValidationError(f"need one {ndim}-d shape: scores {s.shape}, labels {y.shape}")
    check_cells(s, kind, classes, error=error)
    check_cells(y, "label", classes)
    return s, y


def _floats(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be an array of numbers: {exc}") from None


def confidences(d: EvalDataset) -> np.ndarray:
    """Confidence matrix of a dataset: the verbatim probabilities when the
    input file carried probabilities, else sigmoid of the logits."""
    if d.probs is not None:
        return d.probs
    return sigmoid(d.logits)


def pos_counts(d: EvalDataset) -> np.ndarray:
    """Per-class positive-label counts (the weighting mass n_c)."""
    return d.labels.sum(axis=0).astype(np.int64)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# every JSON kind a loader reads, as a description and a test of the value;
# a bool is never a number, "number" takes NaN and infinities, and "finite"
# refuses an integer too large for a float
_KINDS = {
    "list": ("a list", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "id": ("a string or an integer", lambda v: type(v) in (str, int)),
    "number": ("a number", _number),
    "finite": ("a finite number", lambda v: _number(v) and abs(v) <= sys.float_info.max),
    "count": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "unit": ("a number in [0, 1]", lambda v: _number(v) and 0.0 <= v <= 1.0),
    "null": ("null", lambda v: v is None),
    "numbers": ("a number or a list of numbers",
                lambda v: _number(v) or isinstance(v, list) and all(map(_number, v))),
    "strings": ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}


def json_field(doc, key: str, where: str, kind: str):
    """``doc[key]``, which must be of the JSON ``kind`` (a key of ``_KINDS``).
    A missing key, a ``doc`` that is not an object and a value of another
    kind are ValidationErrors that name ``where`` the entry sits and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"{where} missing key {key!r}")
    value = doc[key]
    name, test = _KINDS[kind]
    if not test(value):
        raise ValidationError(f"{where} key {key!r} must be {name}, got {json.dumps(value)}")
    return value


# a \ud800-\udfff escape: JSON decodes it to a lone surrogate, which no
# UTF-8 output can hold, unless it is one half of a surrogate pair
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(path: str, kind: str):
    """The JSON document in ``path``, a ``kind`` file (manifest, params,
    report).  Each way a file can fail to load is a ValidationError that
    names the file: it cannot be read, it is not UTF-8 or not JSON, it
    escapes a lone surrogate, it holds an integer over Python's 4300-digit
    limit, or it nests deeper than the interpreter's recursion limit.  A
    leading UTF-8 byte order mark is skipped, as in the CSV inputs."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
        doc = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):  # a pair encodes, a lone half raises
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeEncodeError as exc:
        lone = exc.object[exc.start : exc.end]
        raise ValidationError(f"{kind} file {path} escapes a lone surrogate {lone!r}, "
                              "which is not text") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an int over 4300 digits
        raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(
            f"{kind} file {path} nests deeper than the recursion limit "
            f"({sys.getrecursionlimit()})"
        ) from None


def _json_default(obj):  # a numpy scalar that is not a Python int, float or str
    if isinstance(obj, np.generic):
        return obj.item()
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text, ``json.dumps`` with insertion-ordered keys
    and two-space indents: a float prints as its repr, as in the matrix
    CSVs, which reads back as the same float64, an integral one with its
    ``.0``.  A numpy scalar is written as its Python value."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_json_default)
    except ValueError as exc:  # json's text ends in the value's repr
        head, _, value = str(exc).rpartition(": ")
        if head != "Out of range float values are not JSON compliant":  # a circular reference
            raise
        value = value.split("(")[-1].rstrip(")")  # numpy 2 prints np.float64(nan)
        raise NumericalError(f"non-finite value in report: {value}") from None


# each manifest field and its JSON kind; ids are read as their decimal text
_MANIFEST_KINDS = dict(sample_id="id", dataset_id="id", start_s="number", duration_s="number")
_MANIFEST_VALUES = {"id": str, "number": float}  # the type of a Manifest column's values
# one manifest row as dumps_canonical writes it in a list, an id as its
# JSON string and a time as its repr, and the list's ends
_MANIFEST_ROW = "  {{\n" + ",\n".join(f'    "{name}": {{}}' for name in _MANIFEST_KINDS) + "\n  }}"
MANIFEST_ENDS = ("[\n", "\n]\n")


def manifest_rows(sample_ids, dataset_ids, start_s, duration_s, after: bool = False) -> list:
    """The UTF-8 text of manifest rows, as a list of at most one bytes: the
    bytes dumps_canonical gives for these row objects in a list, between
    MANIFEST_ENDS, without building them.  The columns are read lazily, up
    to the end of the shortest, and each distinct dataset_id is encoded
    once.  With ``after`` the rows follow others, and start with the comma
    that ends the one before."""
    text = ",\n".join(map(_MANIFEST_ROW.format, map(json.dumps, sample_ids),
                          map(functools.cache(json.dumps), dataset_ids), start_s, duration_s))
    return [((",\n" if after else "") + text).encode("utf-8")] if text else []


def read_manifest(path: str) -> Manifest:
    """The manifest JSON file ``path`` as a :class:`Manifest`; errors name
    the file and the first bad row."""
    doc = read_json(path, "manifest")
    if not isinstance(doc, list):
        raise ValidationError(f"manifest file {path} must be a JSON array")
    try:  # a field at a time; only a failure looks for the first bad row
        valid = all(all(map(_KINDS[kind][1], map(itemgetter(name), doc)))
                    for name, kind in _MANIFEST_KINDS.items())
    except (KeyError, TypeError):  # a row lacks a key or is not an object
        valid = False
    if not valid:
        for i, row in enumerate(doc):
            for name, kind in _MANIFEST_KINDS.items():
                json_field(row, name, f"manifest file {path} row {i}", kind)
    try:
        return Manifest(**{name: tuple(map(_MANIFEST_VALUES[kind], map(itemgetter(name), doc)))
                           for name, kind in _MANIFEST_KINDS.items()})
    except ValidationError as exc:
        raise ValidationError(f"manifest file {path} {exc}") from None
    except OverflowError:
        raise ValidationError(f"manifest file {path}: a time is too large for a float") from None
