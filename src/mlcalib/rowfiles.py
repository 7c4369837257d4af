"""The row-part engine: every file the package writes, and the matrix
CSVs it reads.

Files are read and written as UTF-8 whatever the locale.  Every output
goes through :func:`write_rows`, the one writer: a command hands it all
its files at once, and it checks every path before the first write and
replaces the files together once the last byte is written.
:func:`load_dataset` reads the predictions/labels/manifest triple, through
the one matrix-CSV reader and core's manifest reader and content checks.

Row text files (``apply``'s calibrated.csv and ``synth``'s fixture, with
:func:`matrix_head` and :func:`matrix_rows` for matrix CSVs) are computed
and formatted (:func:`write_rows`) and matrix CSVs parsed
(:func:`_read_matrix_csv`) in contiguous row parts, one per CPU the
process may run on, above a floor of work per part.  :func:`_in_parts`
runs the first part in the caller and each other part in a forked child,
the only processes the package starts.  A child exits 0 only once its
part is done; any other part is redone in the caller.  Parsed rows land
in place in one matrix shared with the children.  A part's text, each
file's formatted rows or the parsed ids, comes back raw, each output
through a pipe of its own, and the pipes are written and read in order.
A part returns exactly one text per output, or the call raises.  The
writer takes the rows in rounds of bounded size, one round of parts at a
time, so its memory does not grow with the number of rows, and it stages
every file until the last round is written.  The bytes written and the
values read do not depend on how many parts or rounds there are.
"""

from __future__ import annotations

import csv
import itertools
import mmap
import os
import re
import signal
import stat
from contextlib import suppress

import numpy as np

from .core import (EvalDataset, ValidationError, check_cells, check_eps, inverse_sigmoid,
                   read_manifest)


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

# the plain read declines a body chunk that holds one of these: a quote, a
# \r, or U+001C-U+001F, which loadtxt strips around a number but float() refuses
_NOT_PLAIN_CHARS = '"\r\x1c\x1d\x1e\x1f'

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
                    for fd, text in zip(ends[1::2], task(span), strict=True):
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
                for at, (out, text) in enumerate(zip(outs, texts, strict=True)):
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
    """A matrix CSV, or a span of one, that the plain read of
    :func:`_read_matrix_csv` declines."""


def _read_matrix_csv(path: str, kind: str):
    """Read a `sample_id,<class...>` CSV into (classes, ids, float matrix).

    Cells follow ``csv.reader`` and Python ``float()``.  A plain file is
    parsed here by ``np.loadtxt``, which must agree with them on it: a
    valid header, UTF-8 text, no quote character, no ``\\r`` and no
    U+001C-U+001F in the body, no field (a class name, an id or a cell) of
    the csv field size limit or more, whatever the length of its line, and
    exactly one comma per class on every data line (so no blank line).
    Cells then split at the same commas, and both parsers strip the same
    whitespace and hand the rest to ``PyOS_string_to_double``; a chunk of
    cells that are each one ``0`` or ``1`` is parsed from its bytes to the
    same 0.0 and 1.0 (see :func:`_parse_cells`).  A cell that only ``float()``
    takes (``1_0``, non-ASCII digits) makes loadtxt raise.  Every other
    file declines the plain read by raising, _NotPlain or an OSError, and
    is read by :func:`_read_csv_cells`, which gives every error message.

    The header is read here.  The body is cut at line ends into parts
    (see :func:`_in_parts`); each part reads, checks and parses its own
    bytes straight into its rows of the one result matrix, which sits in
    an anonymous shared map, so a forked part hands back only its ids.
    A span redone here after its child failed overwrites the same rows.
    """
    limit = csv.field_size_limit()
    try:
        fd = _open_bytes(path)
        try:
            start, size = _line_end(fd, 0) + 1, os.fstat(fd).st_size
            if not 0 < start < size:  # no header line, or no body
                raise _NotPlain
            try:
                header = _read_at(fd, 0, start - 1).decode("utf-8-sig")
            except UnicodeDecodeError:
                raise _NotPlain from None
            names = header.split(",")
            classes = tuple(names[1:])
            if ('"' in header or "\r" in header or names[0] != "sample_id" or not classes
                    or len(set(classes)) != len(classes) or max(map(len, names)) >= limit):
                raise _NotPlain
            spans = _line_spans(fd, start, size, _part_count(size - start, _PART_BYTES))
            shape = (spans[-1][3], len(classes))
            values = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1])).reshape(shape)
            ids = []
            _in_parts(lambda span: _plain_rows(path, len(classes), limit, values, *span), spans,
                      lambda texts: ids.extend(b"".join(texts[0]).decode("utf-8").split("\n")))
            return classes, ids, values
        finally:
            os.close(fd)
    except (OSError, _NotPlain):  # the parts' rows are freed before the reference read
        values = ids = None
    return _read_csv_cells(path, kind)


def _open_bytes(path: str) -> int:
    """A file descriptor that reads ``path`` as bytes, whatever the platform."""
    return os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))


def _read_at(fd: int, pos: int, size: int) -> bytes:
    """Up to ``size`` bytes of the file ``fd`` from offset ``pos``.  Each
    part reads through its own descriptor, whose offset no other process
    moves."""
    os.lseek(fd, pos, os.SEEK_SET)
    return os.read(fd, size)


def _line_end(fd: int, pos: int) -> int:
    """The offset of the first ``\\n`` at or after ``pos`` in the file
    ``fd``, or -1 if there is none."""
    while chunk := _read_at(fd, pos, _READ_BYTES):
        if (at := chunk.find(b"\n")) >= 0:
            return pos + at
        pos += len(chunk)
    return -1


def _line_spans(fd: int, start: int, size: int, parts: int) -> list:
    """Bytes ``start:size`` of the file ``fd`` cut at line ends into at most
    ``parts`` spans of (first byte, end byte, first row, end row)."""
    bounds = [start]
    for k in range(1, parts):
        at = _line_end(fd, max(start + (size - start) * k // parts, bounds[-1]))
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
    that is not plain (see :func:`_read_matrix_csv`) raises _NotPlain."""
    fd = _open_bytes(path)
    try:
        ids = []  # the ids of each chunk, as one str
        while lo < hi:
            chunk = _whole_lines(fd, lo, hi)
            if not chunk:  # the file shrank
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
            if (any(char in text for char in _NOT_PLAIN_CHARS)
                    or _count_bytes(chunk, b",") != n * n_classes or row + n > stop
                    or any(max(map(len, line.split(","))) >= limit
                           for line in lines if len(line) >= limit)):
                raise _NotPlain
            line_ids = [line.partition(",")[0] for line in lines]
            try:
                block = _parse_cells(lines, line_ids, n_classes)
            except ValueError:
                raise _NotPlain from None
            # loadtxt skips a blank line and takes at least C + 1 fields from
            # each other one: n rows from n lines holding n x C commas mean
            # exactly one comma per class on every line
            if block.shape[0] != n:
                raise _NotPlain
            values[row : row + n] = block
            ids.append("\n".join(line_ids))
            row += n
        if row != stop:
            raise _NotPlain
        return [["\n".join(ids).encode("utf-8")]]
    finally:
        os.close(fd)


def _parse_cells(lines, ids, n_classes: int) -> np.ndarray:
    """The cells of ``lines``, whose ids are ``ids``: from their bytes where
    each is one ``0`` or ``1``, the fastest parse of a 0/1 labels file, and
    else by the float ``np.loadtxt``.  The rest of each line after its id
    and a line end fill one row of an n x (2C + 1) byte matrix, a comma
    before each cell and the line end after the last; a chunk whose length
    rules that out, as a logits chunk's does, never builds it."""
    n, width = len(lines), 2 * n_classes + 1
    if sum(map(len, lines)) == sum(map(len, ids)) + n * (width - 1):
        rests = "".join([line[len(i):] + "\n" for line, i in zip(lines, ids)]).encode("utf-8")
        if len(rests) == n * width:  # else a cell holds a non-ASCII character
            text = np.frombuffer(rests, np.uint8).reshape(n, width)
            flags = text[:, 1::2] - np.uint8(ord("0"))  # a byte below "0" wraps past 1
            # a line end anywhere but in the last column fails one test or the other
            if (text[:, :-1:2] == ord(",")).all() and (flags <= 1).all():
                return flags
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, quotechar=None,
                      usecols=range(1, n_classes + 1), ndmin=2)


def _whole_lines(fd: int, lo: int, hi: int) -> bytes:
    """The next whole lines of bytes ``lo:hi`` of the file ``fd``: one read
    of _READ_BYTES cut after its last line end, as many reads as a longer
    line takes, or the rest of the span; empty if the file shrank."""
    pieces = []
    while lo < hi and (piece := _read_at(fd, lo, min(_READ_BYTES, hi - lo))):
        lo += len(piece)
        if lo < hi and (cut := piece.rfind(b"\n") + 1):
            pieces.append(piece[:cut])
            break
        pieces.append(piece)
    return b"".join(pieces)


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


def read_predictions(path: str, inputs_are_probabilities: bool = False, eps: float = 1e-7):
    """Read and check a predictions CSV: (classes, sample ids, logits, probs).

    With ``inputs_are_probabilities`` every cell must lie in [0, 1]; logits
    are recovered via :func:`inverse_sigmoid` with ``eps`` and ``probs`` is
    the verbatim matrix.  Otherwise the cells are logits, every one must be
    finite, and ``probs`` is None.  ``eps`` must lie in (0, 0.5) either
    way.  Errors name the first bad row and class.
    """
    check_eps(eps)
    classes, ids, values = _read_matrix_csv(path, "predictions")
    if inputs_are_probabilities:
        check_cells(values, "probability", classes, where=f" in {path}")
        return classes, ids, inverse_sigmoid(values, eps), values
    check_cells(values, "finite", classes, where=f" in {path}")
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
    check_cells(l_vals, "label", l_classes, where=f" in {labels_path}")
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
    meta = read_manifest(manifest_path)
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
