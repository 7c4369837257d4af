"""Domain types, file input and output, and the logit/probability primitives.

Everything downstream (metrics, scaling, protocols) consumes the
:class:`EvalDataset` built here: an aligned logit matrix, a binary label
matrix, class names, and a columnar :class:`Manifest` with one row per
sample.  All arithmetic is float64; input files are parsed as decimal text.

Files are read and written as UTF-8 whatever the locale; every output
goes through :func:`output_file` and :func:`output_dir`, and a command
that writes several checks them all first with :func:`output_paths`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """An input file or matrix violates a documented contract."""


class NumericalError(RuntimeError):
    """A numerical routine degenerated (non-finite value where none is allowed)."""


def sigmoid(z):
    """Map logits to probabilities, numerically stable on both tails.

    Accepts scalars or arrays; returns the same shape.  sigmoid(0) is
    exactly 0.5 and the function is strictly increasing.
    """
    arr = np.asarray(z, dtype=np.float64)
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e)
    # below, computed in place in the output.  min(z, -z) is -|z| except
    # that it returns a NaN as it is, where -np.abs would set its sign bit.
    out = np.negative(arr, out=np.empty_like(arr))
    np.minimum(arr, out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.copyto(out, 1.0, where=arr >= 0)
    out /= denom
    if out.ndim == 0:
        return float(out)
    return out


def _check_eps(eps: float):
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {eps}")


def inverse_sigmoid(p, eps: float = 1e-7):
    """Recover logits from probabilities.

    Values are clamped to [eps, 1-eps] before the log-odds transform, so
    exact 0/1 probabilities (common in exported model outputs) map to large
    finite logits instead of infinities.  Exact inverse of :func:`sigmoid`
    on (eps, 1-eps).
    """
    _check_eps(eps)
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        bad = int(np.argmax((arr < 0.0) | (arr > 1.0) | ~np.isfinite(arr)))
        raise ValidationError(
            f"probability outside [0, 1] at flat index {bad}: {arr.flat[bad]!r}"
        )
    clamped = np.clip(arr, eps, 1.0 - eps)
    out = np.log(clamped / (1.0 - clamped))
    if out.ndim == 0:
        return float(out)
    return out


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
    0 or 1 and class names are distinct.
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
        if not np.all(np.isfinite(logits)):
            i, c = np.unravel_index(int(np.argmax(~np.isfinite(logits))), logits.shape)
            raise ValidationError(
                f"non-finite value (row {i}, class {self.classes[c]})"
            )
        bad = (labels != 0.0) & (labels != 1.0)
        if np.any(bad):
            i, c = np.unravel_index(int(np.argmax(bad)), labels.shape)
            raise ValidationError(
                f"non-binary label (row {i}, class {self.classes[c]}): {labels[i, c]!r}"
            )
        probs = self.probs
        if probs is not None:
            probs = _frozen(probs)
            if probs.shape != logits.shape:
                raise ValidationError(
                    f"shape mismatch: probs {probs.shape}, logits {logits.shape}"
                )
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


def confidences(d: EvalDataset) -> np.ndarray:
    """Confidence matrix of a dataset: the verbatim probabilities when the
    input file carried probabilities, else sigmoid of the logits."""
    if d.probs is not None:
        return d.probs
    return sigmoid(d.logits)


def pos_counts(d: EvalDataset) -> np.ndarray:
    """Per-class positive-label counts (the weighting mass n_c)."""
    return d.labels.sum(axis=0).astype(np.int64)


def _read_matrix_csv(path: str, kind: str):
    """Read a `sample_id,<class...>` CSV into (classes, ids, float matrix).

    Cells follow ``csv.reader`` and Python ``float()``.  A plain file is
    parsed in one C pass (:func:`_read_plain_csv`); every other file, and
    every error message, comes from :func:`_read_csv_cells`.
    """
    return _read_plain_csv(path) or _read_csv_cells(path, kind)


# csv.writer's default dialect quotes a field that holds one of these
_NEEDS_QUOTES = re.compile('[,"\r\n]')

# rows per values.tolist() call: bounds the Python floats alive during a write
_CSV_BLOCK_ROWS = 1024


def csv_field(text: str) -> str:
    """``text`` as csv.writer's default dialect writes it: in quotes, each
    inner quote doubled, when it holds a comma, a quote or a line break."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


@contextmanager
def output_file(path: str, kind: str):
    """Open ``path``, a ``kind`` file, for writing text: UTF-8 whatever the
    locale, with no newline translation.  An OSError from the open or from a
    write is a ValidationError that names the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {kind} file {path}: {exc}") from exc


def output_dir(path: str) -> str:
    """Create the output directory ``path`` (and its parents) if needed."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc}") from exc
    return path


def output_paths(out_dir: str, files: dict) -> dict:
    """The path in ``out_dir``, created if needed, of each of a command's
    output ``files`` (name -> kind).  Each is checked before the first
    write: a directory, a file that cannot be written and a name too long
    for the file system fail here, so a run that cannot write all its
    outputs writes none."""
    output_dir(out_dir)
    paths = {}
    for name, kind in files.items():
        path = paths[name] = os.path.join(out_dir, name)
        try:
            os.stat(path)
        except FileNotFoundError:
            continue
        except OSError as exc:
            raise ValidationError(f"cannot write {kind} file {path}: {exc}") from exc
        if os.path.isdir(path) or not os.access(path, os.W_OK):
            why = "is a directory" if os.path.isdir(path) else "not writable"
            raise ValidationError(f"cannot write {kind} file {path}: {why}")
    return paths


def write_matrix_csv(path: str, classes, ids, values) -> None:
    """Write a `sample_id,<class...>` CSV, one row per id, that
    :func:`_read_matrix_csv` reads back exactly: ids and class names are
    quoted as csv.writer quotes them, and each cell is the ``repr`` of its
    value (floats round-trip bit for bit, ints print bare)."""
    if _NEEDS_QUOTES.search("".join(map(str, ids))):  # one scan for the usual plain ids
        ids = [csv_field(str(sample_id)) for sample_id in ids]
    with output_file(path, "CSV") as fh:
        fh.write(",".join(map(csv_field, ("sample_id", *classes))) + "\n")
        for start in range(0, len(ids), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            for sample_id, row in zip(ids[start:stop], values[start:stop].tolist()):
                fh.write(f"{sample_id},{','.join(map(repr, row))}\n")


def _read_plain_csv(path: str):
    """The C-parser read of :func:`_read_matrix_csv`, or None to decline.

    It reads only files on which ``np.loadtxt`` must agree with
    ``csv.reader`` + ``float()``: a valid header, no quote character, no
    ``\\r``, no line over the csv field size limit, and exactly one comma
    per class on every data line (so no blank line).  Cells then split at
    the same commas, and both parsers strip the same whitespace and hand
    the rest to ``PyOS_string_to_double``.  A cell that only ``float()``
    takes (``1_0``, non-ASCII digits) makes loadtxt raise and the caller
    falls back.
    """
    limit = csv.field_size_limit()
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError:
        return None
    with fh:
        try:
            header = fh.readline()
            if '"' in header or "\r" in header or len(header) > limit:
                return None
            names = header.rstrip("\n").split(",")
            classes = tuple(names[1:])
            if names[0] != "sample_id" or not classes or len(set(classes)) != len(classes):
                return None
            ids = []
            for line in fh:
                if (
                    line.count(",") != len(classes)
                    or '"' in line
                    or "\r" in line
                    or len(line) > limit
                ):
                    return None
                ids.append(line[: line.index(",")])
        except UnicodeDecodeError:
            return None
    if not ids:
        return None
    try:
        values = np.loadtxt(
            path,
            delimiter=",",
            comments=None,
            quotechar=None,
            usecols=range(1, len(classes) + 1),
            dtype=np.float64,
            ndmin=2,
            skiprows=1,
            encoding="utf-8-sig",
        )
    except ValueError:
        return None
    if values.shape[0] != len(ids):
        return None
    return classes, ids, values


def _read_csv_cells(path: str, kind: str):
    """``csv.reader`` + ``float()`` per cell: the reference read of
    :func:`_read_matrix_csv`, which names the row and class of a bad cell.
    A leading UTF-8 byte order mark is skipped."""
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
                try:
                    rows.append([float(x) for x in cells[1:]])
                except ValueError:
                    bad = next(j for j, x in enumerate(cells[1:]) if not _is_float(x))
                    raise ValidationError(
                        f"non-numeric value (row {i}, class {classes[bad]}) "
                        f"in {kind} file {path}: {cells[1 + bad]!r}"
                    ) from None
        except UnicodeDecodeError:
            raise ValidationError(f"{kind} file {path} is not UTF-8 text") from None
        except csv.Error as exc:
            where = "header" if header is None else f"row {len(rows)}"
            raise ValidationError(f"{kind} file {path} ({where}): {exc}") from None
    if not rows:
        raise ValidationError(f"{kind} file {path} has no data rows")
    return classes, ids, np.array(rows, dtype=np.float64)


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


# the JSON types of each manifest field: ids are strings or integers (read
# as their decimal text), times are numbers; type() is exact, so true and
# false, which are ints to isinstance, are refused
_MANIFEST_FIELDS = {
    "sample_id": ((str, int), "a string or an integer"),
    "dataset_id": ((str, int), "a string or an integer"),
    "start_s": ((int, float), "a number"),
    "duration_s": ((int, float), "a number"),
}


def read_json(path: str, kind: str):
    """The JSON document in ``path``, a ``kind`` file (manifest, params,
    report).  Each way a file can fail to load is a ValidationError that
    names the file: it cannot be read, it is not UTF-8 or not JSON, it holds
    an integer over Python's 4300-digit limit, or it nests deeper than the
    interpreter's recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int over 4300 digits
        raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(
            f"{kind} file {path} nests deeper than the recursion limit "
            f"({sys.getrecursionlimit()})"
        ) from None


def _append_json(obj, out: list, level: int, indent: int):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError(f"non-finite value in report: {x!r}")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad_in)
            out.append(json.dumps(key))
            out.append(": ")
            _append_json(val, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _append_json(val, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_canonical(obj, indent: int = 2) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-significant-digit
    floats (so float64 values survive a parse round trip bit-exactly)."""
    out: list = []
    _append_json(obj, out, 0, indent)
    return "".join(out)


def _read_manifest(path: str) -> Manifest:
    doc = read_json(path, "manifest")
    if not isinstance(doc, list):
        raise ValidationError(f"manifest file {path} must be a JSON array")
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            raise ValidationError(f"manifest file {path} row {i} is not an object")
        missing = _MANIFEST_FIELDS.keys() - row.keys()
        if missing:
            raise ValidationError(
                f"manifest file {path} row {i} missing {sorted(missing)}"
            )
        for name, (types, kind) in _MANIFEST_FIELDS.items():
            if type(row[name]) not in types:
                raise ValidationError(
                    f"manifest file {path} row {i}: {name} must be {kind}, "
                    f"got {json.dumps(row[name])}"
                )
    try:
        return Manifest(
            sample_id=tuple(str(row["sample_id"]) for row in doc),
            dataset_id=tuple(str(row["dataset_id"]) for row in doc),
            start_s=[float(row["start_s"]) for row in doc],
            duration_s=[float(row["duration_s"]) for row in doc],
        )
    except ValidationError as exc:
        raise ValidationError(f"manifest file {path} {exc}") from None
    except OverflowError:
        raise ValidationError(f"manifest file {path}: a time is too large for a float") from None


def read_predictions(path: str, inputs_are_probabilities: bool = False, eps: float = 1e-7):
    """Read and check a predictions CSV: (classes, sample ids, logits, probs).

    With ``inputs_are_probabilities`` every cell must lie in [0, 1]; logits
    are recovered via :func:`inverse_sigmoid` with ``eps`` and ``probs`` is
    the verbatim matrix.  Otherwise the cells are logits, every one must be
    finite, and ``probs`` is None.  ``eps`` must lie in (0, 0.5) either
    way.  Errors name the first bad row and class.
    """
    _check_eps(eps)
    classes, ids, values = _read_matrix_csv(path, "predictions")
    if inputs_are_probabilities:
        bad = (values < 0.0) | (values > 1.0) | ~np.isfinite(values)
    else:
        bad = ~np.isfinite(values)
    if np.any(bad):
        i, c = np.unravel_index(int(np.argmax(bad)), values.shape)
        where = f"(row {i}, class {classes[c]}) in {path}"
        if inputs_are_probabilities:
            raise ValidationError(f"probability outside [0, 1] {where}: {values[i, c]!r}")
        raise ValidationError(f"non-finite value {where}")
    if inputs_are_probabilities:
        return classes, ids, inverse_sigmoid(values, eps), values
    return classes, ids, values, None


def load_dataset(
    predictions_path: str,
    labels_path: str,
    manifest_path: str,
    inputs_are_probabilities: bool = False,
    eps: float = 1e-7,
) -> EvalDataset:
    """Load and validate the predictions/labels/manifest file triple.

    The three files must agree on sample order; predictions and labels must
    list identical class headers.  Those are the checks across files; each
    file's own content is checked by its reader, :class:`Manifest` and
    :class:`EvalDataset`.  With ``inputs_are_probabilities`` the
    prediction cells are read as probabilities in [0, 1]: logits are
    recovered via :func:`inverse_sigmoid` with the given ``eps`` and the
    verbatim probabilities are retained on the dataset.
    """
    p_classes, p_ids, logits, probs = read_predictions(
        predictions_path, inputs_are_probabilities, eps
    )
    l_classes, l_ids, l_vals = _read_matrix_csv(labels_path, "labels")
    if p_classes != l_classes:
        raise ValidationError(
            f"class header mismatch between {predictions_path} and {labels_path}"
        )
    for i, (a, b) in enumerate(zip(p_ids, l_ids)):
        if a != b:
            raise ValidationError(
                f"sample order mismatch at row {i}: {a!r} in {predictions_path} "
                f"vs {b!r} in {labels_path}"
            )
    meta = _read_manifest(manifest_path)
    for i, (a, b) in enumerate(zip(p_ids, meta.sample_id)):
        if a != b:
            raise ValidationError(
                f"unknown sample_id at row {i}: predictions say {a!r}, "
                f"manifest says {b!r} ({manifest_path})"
            )
    return EvalDataset(
        classes=p_classes, logits=logits, labels=l_vals, meta=meta, probs=probs
    )
