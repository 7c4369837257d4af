"""Domain types, file input and output, and the logit/probability primitives.

Everything downstream (metrics, scaling, protocols) consumes the
:class:`EvalDataset` built here: an aligned logit matrix, a binary label
matrix, class names, and a columnar :class:`Manifest` with one row per
sample.  All arithmetic is float64; input files are parsed as decimal text.
The elementwise primitives (:func:`sigmoid`, :func:`inverse_sigmoid` and
the normal quantile :func:`ndtri`, a port of Cephes ndtri that gives
scipy's bits) work in blocks, so their temporaries stay one block long.

Files are read and written as UTF-8 whatever the locale.  Every output
goes through :func:`write_rows`, the one writer: a command hands it all
its files at once, and it checks every path before the first write and
replaces the files together once the last byte is written.
Every JSON field that the manifest, params and report loaders read is
checked against one table of kinds, through :func:`json_field`.

Row text files (``apply``'s calibrated.csv and ``synth``'s fixture, with
:func:`matrix_head` and :func:`matrix_rows` for matrix CSVs) are computed
and formatted (:func:`write_rows`) and matrix CSVs parsed
(:func:`_read_plain_csv`) in contiguous row parts, one per CPU the process
may run on, above a floor of work per part.  :func:`_in_parts` runs the
first part in the caller and each other part in a forked child, the only
processes the package starts.  A child exits 0 only once its part is done;
any other part is redone in the caller.  Parsed rows land in place in one
matrix shared with the children.  A part's text, each file's formatted
rows or the parsed ids, comes back raw, each output through a pipe of its
own, and the pipes are written and read in order.  The writer takes the
rows in rounds of bounded size, one round of parts at a time, so its
memory does not grow with the number of rows, and it stages every file
until the last round is written.  The bytes written and the values read do
not depend on how many parts or rounds there are.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import mmap
import os
import re
import signal
import stat
import sys
from contextlib import suppress
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


def _check_eps(eps: float):
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {eps}")


def inverse_sigmoid(p, eps: float = 1e-7):
    """Recover logits from probabilities.

    Values are clamped to [eps, 1-eps] before the log-odds transform, so
    exact 0/1 probabilities (common in exported model outputs) map to large
    finite logits instead of infinities.  Exact inverse of :func:`sigmoid`
    on (eps, 1-eps).  Returns the same shape, in C order.
    """
    _check_eps(eps)
    arr = np.asarray(p, dtype=np.float64)
    inside = (arr >= 0.0) & (arr <= 1.0)  # False for NaN
    if not inside.all():
        bad = int(np.argmin(inside))
        raise ValidationError(
            f"probability outside [0, 1] at flat index {bad}: {float(arr.flat[bad])!r}"
        )
    del inside

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
        check_cells(~np.isfinite(logits), "non-finite value", self.classes)
        check_cells((labels != 0.0) & (labels != 1.0), "non-binary label", self.classes, labels)
        probs = self.probs
        if probs is not None:
            probs = _frozen(probs)
            if probs.shape != logits.shape:
                raise ValidationError(
                    f"shape mismatch: probs {probs.shape}, logits {logits.shape}"
                )
            check_cells(~((probs >= 0.0) & (probs <= 1.0)),  # True for NaN
                        "probability outside [0, 1]", self.classes, probs)
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


def check_cells(bad: np.ndarray, what: str, classes, values=None, row: int = 0, where: str = ""):
    """Raise a ValidationError that names the first True cell, in C order,
    of the N x C matrix ``bad``: ``what (row i, class c){where}``, with rows
    counted from ``row``, then ``: value`` of that cell of ``values`` when
    they are given.  A matrix with no True cell passes."""
    if bad.any():
        i, c = divmod(int(np.argmax(bad)), bad.shape[1])
        text = f"{what} (row {row + i}, class {classes[c]}){where}"
        raise ValidationError(text if values is None else f"{text}: {float(values[i, c])!r}")


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
    parsed by ``np.loadtxt`` (:func:`_read_plain_csv`); every other file,
    and every error message, comes from :func:`_read_csv_cells`.
    """
    return _read_plain_csv(path) or _read_csv_cells(path, kind)


# csv.writer's default dialect quotes a field that holds one of these
_NEEDS_QUOTES = re.compile('[,"\r\n]')

# rows per values.tolist() call: bounds the Python floats alive during a write
_CSV_BLOCK_ROWS = 1024

# the float cells of a matrix CSV that one round of parts formats, in
# memory at once, whatever the number of rows; every benchmark file is one
# round, so each of its parts stays long enough to run beside the others
_ROUND_CELLS = 1 << 20

# bytes of a CSV file read, checked and parsed at a time
_READ_BYTES = 1 << 18

# A matrix CSV is formatted or parsed in contiguous row parts, one per CPU
# this process may run on and at most _MAX_PARTS.  A part formats at least
# _PART_CELLS cells or reads at least _PART_BYTES bytes, so that a small
# file is one part, done in the caller.  On 2 vCPU a forked part costs
# about 3 ms (fork, pipe and reap beside a 60 MB heap) and a float cell
# about 1.4 us to format, so a part of _PART_CELLS cells formats for about
# 22 ms, 7 times what it costs to fork.  A read part also maps the shared
# matrix and pipes its ids back, and a file of 1-2 MB read in 512 KiB parts
# was no faster than in one.
_MAX_PARTS = 8
_PART_CELLS = 16_000
_PART_BYTES = 2 << 20


def _part_count(work: int, floor: int) -> int:
    """How many parts ``work`` cells or bytes are split into, each of at
    least ``floor``: one where ``os.fork`` or ``os.sched_getaffinity`` is
    missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), _MAX_PARTS, work // floor))


def _in_parts(task, spans, take, outputs: int = 1):
    """Call ``take(task(span))`` for each of ``spans`` in order, where a
    task returns ``outputs`` texts, each a list of bytes-like buffers, or
    raises.

    The first span's task runs here, and every other span's task at the
    same time in a forked child, with a pipe of its own for each output.
    A child writes text k to pipe k and closes that pipe before it writes
    text k + 1, and exits 0 once it has written them all.  The pipes are
    read here in the same order, and ``take`` gets a list of bytes objects
    per output, which may split its text elsewhere.  A span whose child
    exits otherwise (it raised or was killed) or could not start is done
    here with ``task``, so the bytes ``take`` gets do not depend on how the
    work was split, and a task that raises here raises from this call.
    Every child has been reaped when this returns or raises.
    """
    children = []  # (read ends of its pipes, pid) of each child not yet reaped
    try:
        for span in spans[1:]:
            ends = []
            try:
                for _ in range(outputs):
                    ends += os.pipe()
                pid = os.fork()
            except OSError:  # no pipe or process to spare: the later spans are done here
                for end in ends:
                    os.close(end)
                break
            if pid == 0:  # the child: write the part and leave, whatever happens
                code = 1
                try:
                    for fd in itertools.chain(ends[::2], *(fds for fds, _ in children)):
                        os.close(fd)
                    for fd, text in zip(ends[1::2], task(span)):
                        for view in map(memoryview, text):
                            while view:
                                view = view[os.write(fd, view):]
                        os.close(fd)
                    code = 0
                finally:
                    os._exit(code)
            for fd in ends[1::2]:
                os.close(fd)
            children.append((ends[::2], pid))
        for k, span in enumerate(spans):
            code = None  # spans[0], and a span no child did, are done here
            if k and children:  # the children hold the first spans after spans[0]
                fds, pid = children[0]
                texts = [list(iter(lambda: os.read(fd, _READ_BYTES), b"")) for fd in fds]
                children.pop(0)
                for fd in fds:
                    os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                texts = task(span)
            take(texts)
            del texts  # freed before the next part is read
    finally:
        for fds, pid in children:
            for fd in fds:
                os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def csv_field(text: str) -> str:
    """``text`` as csv.writer's default dialect writes it: in quotes, each
    inner quote doubled, when it holds a comma, a quote or a line break."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# names the temporary files of write_rows apart within one process
_STAGED = itertools.count()


def _missing_dirs(path: str) -> list:
    """``path`` and those of its parents that do not exist, deepest first."""
    missing, path = [], os.path.abspath(path)
    while not os.path.lexists(path) and path != os.path.dirname(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def free_bytes(path: str):
    """The bytes free to this user on the file system that holds ``path``,
    or will hold it once it is created; None where ``os.statvfs`` is
    missing or fails."""
    missing = _missing_dirs(path)
    try:
        st = os.statvfs(os.path.dirname(missing[-1]) if missing else path)
    except (AttributeError, OSError):
        return None
    return st.f_bavail * st.f_frsize


def write_rows(out_dir: str, files: dict, n: int = 0, cells: int = 0, rows=None) -> dict:
    """Write text files into ``out_dir``, created if needed, and return the
    path of each.  ``files`` maps each file name to its (kind, head, tail),
    and each file holds its head, its text of rows ``0:n`` and its tail; a
    file with no rows is its head and tail alone.  ``rows(start, stop)``
    returns, for each file in order, the UTF-8 text of rows ``start:stop``
    as a list of bytes-like buffers; ``cells`` counts the work of all ``n``
    rows in float cells of a matrix CSV.

    Every path is checked before the first write: a directory, a file that
    cannot be written and a name too long for the file system fail there.
    The rows go in rounds of at most _ROUND_CELLS cells (and at least one
    row), and each round in parts, one per CPU and each of at least
    _PART_CELLS cells (see :func:`_in_parts`), whose text is appended to
    each file in order.  Each file is staged as UTF-8, whatever the locale,
    in a temporary file beside it, and the files are replaced only once
    the last byte of all of them is written: a run that fails leaves the
    existing files as they were, and removes ``out_dir`` if it created it.
    As a plain open would, a file is written through a symbolic link and
    keeps an existing file's mode.  An OSError is a ValidationError that
    names the directory or the file."""
    missing = _missing_dirs(out_dir)
    paths = {name: os.path.join(out_dir, name) for name in files}
    named = [(kind, paths[name]) for name, (kind, _, _) in files.items()]
    outs, staged = [], []  # each file's open temporary file; (temporary path, target) of each
    at = 0  # an OSError names the file named[at]
    try:
        try:
            os.makedirs(out_dir or os.curdir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {out_dir}: {exc}") from exc
        try:
            for at, (_, path) in enumerate(named):
                with suppress(FileNotFoundError):
                    os.stat(path)
                    if os.path.isdir(path) or not os.access(path, os.W_OK):  # named below
                        raise OSError("is a directory" if os.path.isdir(path) else "not writable")
            for at, (_, path) in enumerate(named):
                target = os.path.realpath(path)
                temp = os.path.join(os.path.dirname(target),
                                    f".mlcalib-{os.getpid()}-{next(_STAGED)}.tmp")
                staged.append((temp, target))
                outs.append(open(temp, "w", encoding="utf-8", newline=""))

            def put(texts):  # each file's text, in order
                nonlocal at
                for at, (out, text) in enumerate(zip(outs, texts)):
                    out.buffer.writelines(text)

            put([[head.encode("utf-8")] for _, head, _ in files.values()])
            step = max(1, min(n, n * _ROUND_CELLS // max(cells, 1)))
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                parts = max(1, min(_part_count(cells * (hi - lo) // n, _PART_CELLS), hi - lo))
                bounds = [lo + (hi - lo) * k // parts for k in range(parts + 1)]
                _in_parts(lambda span: rows(*span), list(zip(bounds, bounds[1:])), put, len(outs))
            put([[tail.encode("utf-8")] for _, _, tail in files.values()])
            for at, out in enumerate(outs):  # every file is flushed before the first replace
                out.close()
            for at, (temp, target) in enumerate(staged):
                with suppress(FileNotFoundError):
                    os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(temp, target)
        except OSError as exc:
            kind, path = named[at]
            raise ValidationError(f"cannot write {kind} file {path}: {exc}") from exc
    except BaseException:
        for out in outs:
            with suppress(OSError):
                out.close()
        for temp, _ in staged:  # a file already replaced has no temporary file left
            with suppress(OSError):
                os.remove(temp)
        for path in missing:  # each is empty unless another process wrote there
            try:
                os.rmdir(path)
            except OSError:
                break
        raise
    return paths


def matrix_head(classes) -> str:
    """The header line of a matrix CSV, `sample_id,<class...>`, quoted as
    csv.writer quotes it."""
    return ",".join(map(csv_field, ("sample_id", *classes))) + "\n"


def matrix_rows(ids, values) -> list:
    """The UTF-8 text of the rows of a matrix CSV, one per id, as a list of
    bytes objects that :func:`_read_matrix_csv` reads back exactly: ids
    quoted as by :func:`matrix_head`, and each cell the ``repr`` of its
    value (floats round-trip bit for bit), or ``0`` or ``1`` if bool."""
    if _NEEDS_QUOTES.search("".join(map(str, ids))):  # one scan for the usual plain ids
        ids = [csv_field(str(sample_id)) for sample_id in ids]
    return (_flag_rows if values.dtype == bool else _csv_rows)(ids, values)


def _csv_rows(ids, values) -> list:
    """The UTF-8 text of the rows of a matrix CSV, one bytes object per
    _CSV_BLOCK_ROWS rows."""
    blocks = []
    for i in range(0, len(ids), _CSV_BLOCK_ROWS):
        rows = zip(ids[i : i + _CSV_BLOCK_ROWS], values[i : i + _CSV_BLOCK_ROWS].tolist())
        blocks.append("".join(f"{sample_id},{','.join(map(repr, row))}\n"
                              for sample_id, row in rows).encode("utf-8"))
    return blocks


def _flag_rows(ids, values) -> list:
    """The UTF-8 text of the rows of a bool matrix CSV.  The cells come from
    one uint8 matrix: a ``0`` or ``1`` byte per cell, with a comma after
    each cell but the last, which a line end follows."""
    cells = np.full((len(ids), 2 * values.shape[1]), ord(","), dtype=np.uint8)
    np.add(values, ord("0"), out=cells[:, ::2], casting="unsafe")
    cells[:, -1] = ord("\n")
    text, width = cells.tobytes().decode("ascii"), cells.shape[1]
    rows = zip(ids, range(0, len(text), width))
    return ["".join(f"{sample_id},{text[at : at + width]}" for sample_id, at in rows)
            .encode("utf-8")]


class _NotPlain(Exception):
    """A span of a matrix CSV that :func:`_read_plain_csv` declines."""


def _read_plain_csv(path: str):
    """The C-parser read of :func:`_read_matrix_csv`, or None to decline.

    It reads only files on which ``np.loadtxt`` must agree with
    ``csv.reader`` + ``float()``: a valid header, UTF-8 text, no quote
    character, no ``\\r``, no line over the csv field size limit, and
    exactly one comma per class on every data line (so no blank line).
    Cells then split at the same commas, and both parsers strip the same
    whitespace and hand the rest to ``PyOS_string_to_double``.  A cell that
    only ``float()`` takes (``1_0``, non-ASCII digits) makes loadtxt raise
    and the caller falls back.

    The header is read here.  The body is cut at line ends into parts
    (see :func:`_in_parts`); each part reads, checks and parses its own
    bytes straight into its rows of the one result matrix, which sits in
    an anonymous shared map, so a forked part hands back only its ids.
    A span redone here after its child failed overwrites the same rows.
    """
    limit = csv.field_size_limit()
    try:
        fd = _open_bytes(path)
    except OSError:
        return None
    try:
        start = _line_end(fd, 0, limit) + 1
        if start == 0:
            return None
        try:
            header = _read_at(fd, 0, start - 1).decode("utf-8-sig")
        except UnicodeDecodeError:
            return None
        names = header.split(",")
        classes = tuple(names[1:])
        if ('"' in header or "\r" in header or names[0] != "sample_id" or not classes
                or len(set(classes)) != len(classes)):
            return None
        size = os.fstat(fd).st_size
        if size <= start:
            return None
        spans = _line_spans(fd, start, size, _part_count(size - start, _PART_BYTES), limit)
        shape = (spans[-1][3], len(classes))
        values = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1])).reshape(shape)
        ids = []

        def take(texts):
            ids.extend(b"".join(texts[0]).decode("utf-8").split("\n"))

        def task(span):
            return _plain_rows(path, len(classes), limit, values, *span)

        _in_parts(task, spans, take)
        return classes, ids, values
    except (OSError, _NotPlain):
        return None
    finally:
        os.close(fd)


def _open_bytes(path: str) -> int:
    """A file descriptor that reads ``path`` as bytes, whatever the platform."""
    return os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))


def _read_at(fd: int, pos: int, size: int) -> bytes:
    """Up to ``size`` bytes of the file ``fd`` from offset ``pos``.  Each
    part reads through its own descriptor, whose offset no other process
    moves."""
    os.lseek(fd, pos, os.SEEK_SET)
    return os.read(fd, size)


def _line_end(fd: int, pos: int, limit: int) -> int:
    """The offset of the first ``\\n`` at or after ``pos`` in the file
    ``fd``, or -1 if there is none in the next ``limit`` bytes."""
    stop = pos + limit
    while pos < stop:
        chunk = _read_at(fd, pos, min(_READ_BYTES, stop - pos))
        if not chunk:
            return -1
        if (at := chunk.find(b"\n")) >= 0:
            return pos + at
        pos += len(chunk)
    return -1


def _line_spans(fd: int, start: int, size: int, parts: int, limit: int) -> list:
    """Bytes ``start:size`` of the file ``fd`` cut at line ends into at most
    ``parts`` spans of (first byte, end byte, first row, end row)."""
    bounds = [start]
    for k in range(1, parts):
        at = _line_end(fd, max(start + (size - start) * k // parts, bounds[-1]), limit)
        if not 0 <= at < size - 1:
            break
        bounds.append(at + 1)
    bounds.append(size)
    spans, rows = [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        lines = 0
        for pos in range(lo, hi, _READ_BYTES):
            chunk = _read_at(fd, pos, min(_READ_BYTES, hi - pos))
            lines += _count_bytes(chunk, b"\n")
        if not chunk.endswith(b"\n"):  # a last line with no line end
            lines += 1
        spans.append((lo, hi, rows, rows + lines))
        rows += lines
    return spans


def _count_bytes(data: bytes, byte: bytes) -> int:
    """How many times ``byte`` occurs in ``data``: a vector count, several
    times faster than ``data.count(byte)``."""
    return int(np.count_nonzero(np.frombuffer(data, np.uint8) == ord(byte)))


def _plain_rows(path: str, n_classes: int, limit: int, values, lo: int, hi: int, row: int,
                stop: int):
    """Read, check and parse the lines in bytes ``lo:hi`` of ``path`` into
    rows ``row:stop`` of ``values``: the ids, as the one output of
    :func:`_in_parts`, one buffer of UTF-8 text joined by ``\\n``.  A line
    that is not plain (see :func:`_read_plain_csv`) raises _NotPlain."""
    fd = _open_bytes(path)
    try:
        ids = []  # the ids of each chunk, as one str
        while lo < hi:
            chunk = _read_at(fd, lo, min(_READ_BYTES, hi - lo))
            if lo + len(chunk) < hi:  # up to the last whole line
                chunk = chunk[: chunk.rfind(b"\n") + 1]
            if not chunk:  # a line longer than _READ_BYTES, or the file shrank
                raise _NotPlain
            lo += len(chunk)
            try:
                text = chunk.decode("utf-8")
            except UnicodeDecodeError:
                raise _NotPlain from None
            lines = text.split("\n")
            if text.endswith("\n"):
                lines.pop()
            n = len(lines)
            if ('"' in text or "\r" in text or _count_bytes(chunk, b",") != n * n_classes
                    or max(map(len, lines)) >= limit or row + n > stop):
                raise _NotPlain
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                                   usecols=range(1, n_classes + 1), dtype=np.float64, ndmin=2)
            except ValueError:
                raise _NotPlain from None
            # loadtxt skips a blank line and takes at least C + 1 fields from
            # each other one: n rows from n lines holding n x C commas mean
            # exactly one comma per class on every line
            if block.shape[0] != n:
                raise _NotPlain
            values[row : row + n] = block
            ids.append("\n".join([line.partition(",")[0] for line in lines]))
            row += n
        if row != stop:
            raise _NotPlain
        return [["\n".join(ids).encode("utf-8")]]
    finally:
        os.close(fd)


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


def _append_json(obj, out: list, level: int):
    pad = "  " * level
    pad_in = pad + "  "
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
            _append_json(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _append_json(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, two-space indents,
    17-significant-digit floats (so float64 values survive a parse round
    trip bit-exactly)."""
    out: list = []
    _append_json(obj, out, 0)
    return "".join(out)


# each manifest field and its JSON kind; ids are read as their decimal text
_MANIFEST_KINDS = dict(sample_id="id", dataset_id="id", start_s="number", duration_s="number")


def _read_manifest(path: str) -> Manifest:
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
        return Manifest(
            sample_id=tuple(map(str, map(itemgetter("sample_id"), doc))),
            dataset_id=tuple(map(str, map(itemgetter("dataset_id"), doc))),
            start_s=list(map(float, map(itemgetter("start_s"), doc))),
            duration_s=list(map(float, map(itemgetter("duration_s"), doc))),
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
        check_cells(~((values >= 0.0) & (values <= 1.0)), "probability outside [0, 1]", classes,
                    values, where=f" in {path}")
        return classes, ids, inverse_sigmoid(values, eps), values
    check_cells(~np.isfinite(values), "non-finite value", classes, where=f" in {path}")
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
    file's own content is checked by its reader (the labels here, so that a
    bad one names the file), :class:`Manifest` and :class:`EvalDataset`.
    With ``inputs_are_probabilities`` the prediction cells are read as
    probabilities in [0, 1]: logits are recovered via
    :func:`inverse_sigmoid` with the given ``eps`` and the verbatim
    probabilities are retained on the dataset.
    """
    p_classes, p_ids, logits, probs = read_predictions(
        predictions_path, inputs_are_probabilities, eps
    )
    l_classes, l_ids, l_vals = _read_matrix_csv(labels_path, "labels")
    check_cells((l_vals != 0.0) & (l_vals != 1.0), "non-binary label", l_classes, l_vals,
                where=f" in {labels_path}")
    if p_classes != l_classes:
        raise ValidationError(
            f"class header mismatch between {predictions_path} and {labels_path}"
        )
    if mismatch := _first_mismatch(p_ids, predictions_path, l_ids, labels_path):
        i, a, b = mismatch
        raise ValidationError(
            f"sample order mismatch at row {i}: {a!r} in {predictions_path} "
            f"vs {b!r} in {labels_path}"
        )
    meta = _read_manifest(manifest_path)
    if mismatch := _first_mismatch(p_ids, predictions_path, meta.sample_id, manifest_path):
        i, a, b = mismatch
        raise ValidationError(
            f"unknown sample_id at row {i}: predictions say {a!r}, "
            f"manifest says {b!r} ({manifest_path})"
        )
    return EvalDataset(
        classes=p_classes, logits=logits, labels=l_vals, meta=meta, probs=probs
    )


def _first_mismatch(ids, path, other, other_path):
    """(row, id, other id) of the first row where the ids of two files
    differ, or None; a different row count is an error that names both."""
    if len(ids) != len(other):
        raise ValidationError(f"row count mismatch: {len(ids)} rows in {path} "
                              f"vs {len(other)} in {other_path}")
    if tuple(ids) == tuple(other):
        return None
    return next((i, a, b) for i, (a, b) in enumerate(zip(ids, other)) if a != b)
