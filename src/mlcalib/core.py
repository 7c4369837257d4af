"""Domain types, file ingestion, and the logit/probability primitives.

Everything downstream (metrics, scaling, protocols) consumes the
:class:`EvalDataset` built here: an aligned logit matrix, a binary label
matrix, class names, and one manifest row per sample.  All arithmetic is
float64; input files are parsed as decimal text.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

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
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
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


@dataclass(frozen=True)
class SampleMeta:
    """Manifest row: where a clip sits on its dataset's timeline."""

    sample_id: str
    dataset_id: str
    start_s: float
    duration_s: float

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValidationError(
                f"duration_s must be finite and > 0 "
                f"(sample {self.sample_id!r}, got {self.duration_s})"
            )
        if not (math.isfinite(self.start_s) and self.start_s >= 0):
            raise ValidationError(
                f"start_s must be finite and >= 0 "
                f"(sample {self.sample_id!r}, got {self.start_s})"
            )


@dataclass(frozen=True)
class EvalDataset:
    """Aligned predictions and labels for one evaluation run.

    ``logits`` and ``labels`` are N x C float64 matrices; ``probs`` holds the
    verbatim probability matrix when the source file contained probabilities
    (kept so that downstream binning sees the exact file values rather than a
    sigmoid/log-odds round trip).  Immutable after construction.
    """

    classes: tuple
    logits: np.ndarray
    labels: np.ndarray
    meta: tuple
    probs: np.ndarray | None = None

    def __post_init__(self):
        logits = np.array(self.logits, dtype=np.float64, order="C", copy=True)
        labels = np.array(self.labels, dtype=np.float64, order="C", copy=True)
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
        seen = {}
        for row in self.meta:
            key = (row.dataset_id, row.sample_id)
            if key in seen:
                raise ValidationError(
                    f"duplicate sample_id {row.sample_id!r} within dataset {row.dataset_id!r}"
                )
            seen[key] = True
        probs = self.probs
        if probs is not None:
            probs = np.array(probs, dtype=np.float64, order="C", copy=True)
            if probs.shape != logits.shape:
                raise ValidationError(
                    f"shape mismatch: probs {probs.shape}, logits {logits.shape}"
                )
            probs.flags.writeable = False
        logits.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "meta", tuple(self.meta))

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def c(self) -> int:
        return self.logits.shape[1]

    @property
    def dataset_ids(self) -> tuple:
        seen = []
        for row in self.meta:
            if row.dataset_id not in seen:
                seen.append(row.dataset_id)
        return tuple(seen)


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


def write_matrix_csv(path: str, classes, ids, values) -> None:
    """Write a `sample_id,<class...>` CSV, one row per id, that
    :func:`_read_matrix_csv` reads back exactly: each cell is the ``repr``
    of its value (floats round-trip bit for bit, ints print bare)."""
    with open(path, "w", newline="") as fh:
        fh.write("sample_id," + ",".join(classes) + "\n")
        for sample_id, row in zip(ids, values.tolist()):
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
        fh = open(path, "r", encoding="utf-8", newline="")
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
            encoding="utf-8",
        )
    except ValueError:
        return None
    if values.shape[0] != len(ids):
        return None
    return classes, ids, values


def _read_csv_cells(path: str, kind: str):
    """``csv.reader`` + ``float()`` per cell: the reference read of
    :func:`_read_matrix_csv`, which names the row and class of a bad cell."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
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


def _read_manifest(path: str):
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read manifest file {path}: {exc}") from exc
    with fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"manifest file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ValidationError(f"manifest file {path} must be a JSON array")
    meta = []
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            raise ValidationError(f"manifest file {path} row {i} is not an object")
        missing = {"sample_id", "dataset_id", "start_s", "duration_s"} - set(row)
        if missing:
            raise ValidationError(
                f"manifest file {path} row {i} missing {sorted(missing)}"
            )
        try:
            meta.append(
                SampleMeta(
                    sample_id=str(row["sample_id"]),
                    dataset_id=str(row["dataset_id"]),
                    start_s=float(row["start_s"]),
                    duration_s=float(row["duration_s"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"manifest file {path} row {i}: {exc}") from exc
    return meta


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
    list identical class headers.  With ``inputs_are_probabilities`` the
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
    if len(p_ids) != len(l_ids):
        raise ValidationError(
            f"shape mismatch: {len(p_ids)} prediction rows vs {len(l_ids)} label rows"
        )
    for i, (a, b) in enumerate(zip(p_ids, l_ids)):
        if a != b:
            raise ValidationError(
                f"sample order mismatch at row {i}: {a!r} in {predictions_path} "
                f"vs {b!r} in {labels_path}"
            )

    meta = _read_manifest(manifest_path)
    if len(meta) != len(p_ids):
        raise ValidationError(
            f"shape mismatch: {len(p_ids)} prediction rows vs {len(meta)} manifest rows"
        )
    for i, (pid, row) in enumerate(zip(p_ids, meta)):
        if pid != row.sample_id:
            raise ValidationError(
                f"unknown sample_id at row {i}: predictions say {pid!r}, "
                f"manifest says {row.sample_id!r} ({manifest_path})"
            )

    bad = (l_vals != 0.0) & (l_vals != 1.0)
    if np.any(bad):
        i, c = np.unravel_index(int(np.argmax(bad)), l_vals.shape)
        raise ValidationError(
            f"non-binary label (row {i}, class {l_classes[c]}) in {labels_path}: "
            f"{l_vals[i, c]!r}"
        )

    return EvalDataset(
        classes=p_classes, logits=logits, labels=l_vals, meta=tuple(meta), probs=probs
    )
