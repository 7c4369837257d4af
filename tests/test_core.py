import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlcalib import rowfiles
from mlcalib.cli import main
from mlcalib.core import (
    EvalDataset,
    Manifest,
    ValidationError,
    confidences,
    inverse_sigmoid,
    ndtri,
    pos_counts,
    sigmoid,
)
from mlcalib.rowfiles import (
    _BLOCK_CELLS,
    _MAX_PARTS,
    _read_matrix_csv,
    load_dataset,
    matrix_head,
    matrix_rows,
    write_rows,
)

from mlcalib.synth import SynthConfig, _uniforms, write_fixture

from conftest import simple_meta, write_triple
from oracles import oracle_csv_rows, oracle_read_matrix_csv


def _meta(n, dataset_id="ds"):
    return Manifest(
        sample_id=tuple(f"s{i}" for i in range(n)),
        dataset_id=(dataset_id,) * n,
        start_s=5.0 * np.arange(n),
        duration_s=np.full(n, 5.0),
    )


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_scalar_returns_float(self):
        assert isinstance(sigmoid(1.3), float)

    def test_saturation_stays_finite(self):
        out = sigmoid(np.array([-800.0, -40.0, 40.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_bits_match_two_branch_formula(self):
        # the masked two-pass form: 1 / (1 + exp(-z)) where z >= 0, else
        # exp(z) / (1 + exp(z)); equal bits, signed zeros and NaNs included
        nan = np.float64(np.nan)
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, nan, -nan, 800.0, -800.0, 36.8, -745.2, 1e-300],
            np.random.default_rng(3).normal(0.0, 30.0, 500),
        ])
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        assert sigmoid(z).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_inverse_round_trip(self):
        z = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(inverse_sigmoid(sigmoid(z)), z, atol=1e-9)

    def test_inverse_clamps_at_boundaries(self):
        hi = inverse_sigmoid(1.0, eps=1e-7)
        lo = inverse_sigmoid(0.0, eps=1e-7)
        assert np.isfinite(hi) and np.isfinite(lo)
        # 1-(1-eps) != eps in float64, so symmetry holds only to ~1e-9
        assert hi == pytest.approx(-lo, abs=1e-8)
        assert hi == pytest.approx(np.log((1 - 1e-7) / 1e-7), abs=1e-8)

    def test_inverse_bits_and_peak_in_blocks(self):
        # more cells than one block, with exact 0 and 1 cells and cells
        # within eps of them; a transposed view is read in its own C order
        p = np.random.default_rng(5).random((40_000, 20))
        p[::97, 3], p[::89, 7], p[::83, 11], p[::79, 13] = 0.0, 1.0, 1e-9, 1.0 - 1e-9
        clamped = np.clip(p, 1e-7, 1.0 - 1e-7)
        want = np.log(clamped / (1.0 - clamped))
        tracemalloc.start()
        try:
            got = inverse_sigmoid(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(inverse_sigmoid(p.T).view(np.int64), want.T.view(np.int64))
        # the output and one block's temporaries; the whole-matrix formula
        # held three matrices of the output's size
        assert peak < 1.5 * got.nbytes

    def test_inverse_rejects_out_of_range(self):
        # the value prints as a plain float, not as a numpy repr
        with pytest.raises(ValidationError, match=r"at flat index 0: 1\.5$"):
            inverse_sigmoid(1.5)
        with pytest.raises(ValidationError, match=r"at flat index 0: -0\.1$"):
            inverse_sigmoid(-0.1)
        with pytest.raises(ValidationError, match=r"at flat index 1: 2\.0$"):
            inverse_sigmoid(np.array([0.5, 2.0]))

    def test_inverse_rejects_bad_eps(self):
        with pytest.raises(ValidationError):
            inverse_sigmoid(0.5, eps=0.0)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNdtri:
    def test_ends_and_outside_the_domain(self):
        # a top uniform draw of exactly 1.0 maps to +inf, not to an error
        assert ndtri(1.0) == math.inf and ndtri(0.0) == -math.inf
        assert ndtri(-0.0) == -math.inf and ndtri(0.5) == 0.0
        got = ndtri(np.array([-1e-300, 1.0 + 2**-52, -math.inf, math.inf, math.nan]))
        assert np.isnan(got).all()

    def test_symmetric_and_increasing(self):
        # 1 - v is exact for v in [0.5, 1], so the reflection is exact too
        v = 1.0 - np.linspace(1e-300, 0.5, 20_001)
        assert np.array_equal(ndtri(v), -ndtri(1.0 - v))
        assert np.all(np.diff(ndtri(v)) < 0)

    def test_shape_and_blocks(self):
        # more cells than one block; a transposed view reads in its own C order
        u = _uniforms(3, 0, 90_000).reshape(4_500, 20)
        whole = ndtri(u)
        assert whole.shape == u.shape and whole.flags.c_contiguous
        assert _same_bits(ndtri(u.T), whole.T)
        assert _same_bits([ndtri(v) for v in u[:50, 0].tolist()], whole[:50, 0])
        assert isinstance(ndtri(0.25), float)


class TestNdtriMatchesScipy:
    """core.ndtri gives scipy.special.ndtri's bits.  On x86-64 with
    numpy 2.4, a port whose tails use np.log instead of the C library's
    log differs on about one uniform draw in 20,000, and fails here."""

    def test_uniform_draws(self):
        special = pytest.importorskip("scipy.special")
        for seed in (0, 1, 7, 2**63 + 5):
            u = _uniforms(seed, 0, 300_000).reshape(-1, 20)
            assert _same_bits(ndtri(u), special.ndtri(u)), seed

    def test_branch_edges_and_their_neighbours(self):
        special = pytest.importorskip("scipy.special")
        edges = np.array([2.0**-54, math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 0.5,
                          5e-324, 1.0 - 2.0**-53])
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [0.0, 1.0]])
        assert _same_bits(ndtri(u), special.ndtri(u))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(2.0**-54, 1.0), min_size=1, max_size=40))
    def test_any_probability(self, values):
        special = pytest.importorskip("scipy.special")
        u = np.array(values)
        assert _same_bits(ndtri(u), special.ndtri(u))


class TestManifest:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            Manifest(("a",), ("ds",), [0.0], [0.0])

    def test_rejects_negative_start(self):
        with pytest.raises(ValidationError):
            Manifest(("a",), ("ds",), [-1.0], [5.0])

    @pytest.mark.parametrize(
        "start, duration, field",
        [
            (float("nan"), 5.0, "start_s"),
            (float("inf"), 5.0, "start_s"),
            (0.0, float("nan"), "duration_s"),
            (0.0, float("inf"), "duration_s"),
        ],
        ids=["nan-start", "inf-start", "nan-duration", "inf-duration"],
    )
    def test_rejects_non_finite_times(self, start, duration, field):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            Manifest(("a",), ("ds",), [start], [duration])


class TestEvalDataset:
    def test_happy_path_properties(self):
        z = np.zeros((3, 2))
        y = np.array([[0, 1], [1, 0], [0, 0]], dtype=float)
        d = EvalDataset(classes=("a", "b"), logits=z, labels=y, meta=_meta(3))
        assert d.n == 3 and d.c == 2
        assert d.meta.datasets == ("ds",)
        assert list(pos_counts(d)) == [1, 1]

    def test_arrays_are_frozen_and_caller_unaffected(self):
        z = np.zeros((2, 2))
        d = EvalDataset(("a", "b"), z, np.zeros((2, 2)), _meta(2))
        with pytest.raises(ValueError):
            d.logits[0, 0] = 1.0
        z[0, 0] = 99.0  # caller's array stays writable
        assert d.logits[0, 0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            EvalDataset(("a",), np.zeros((2, 1)), np.zeros((3, 1)), _meta(2))

    def test_meta_length_mismatch(self):
        with pytest.raises(ValidationError, match="manifest rows"):
            EvalDataset(("a",), np.zeros((2, 1)), np.zeros((2, 1)), _meta(3))

    def test_non_binary_label_names_position(self):
        # the value prints as a plain float, not as a numpy repr
        y = np.array([[0.0, 0.5]])
        with pytest.raises(ValidationError, match=r"row 0, class b\): 0\.5$"):
            EvalDataset(("a", "b"), np.zeros((1, 2)), y, _meta(1))
        y = np.array([[0.0, 1.0], [1.0, np.nan]])
        with pytest.raises(ValidationError, match=r"row 1, class b\): nan$"):
            EvalDataset(("a", "b"), np.zeros((2, 2)), y, _meta(2))

    def test_non_finite_logit_names_position(self):
        z = np.array([[0.0], [np.nan]])
        with pytest.raises(ValidationError, match=r"row 1, class a"):
            EvalDataset(("a",), z, np.zeros((2, 1)), _meta(2))

    def test_duplicate_class(self):
        with pytest.raises(ValidationError, match="duplicate class"):
            EvalDataset(("a", "a"), np.zeros((1, 2)), np.zeros((1, 2)), _meta(1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.25, 1.5])
    def test_probability_outside_unit_names_position(self, value):
        p = np.array([[0.25, 0.75], [0.0, 1.0]])
        d = EvalDataset(("a", "b"), inverse_sigmoid(p), np.zeros((2, 2)), _meta(2), probs=p)
        p[1, 0] = value
        with pytest.raises(ValidationError,
                           match=rf"outside \[0, 1\] \(row 1, class a\): {value!r}$"):
            dataclasses.replace(d, probs=p)

    def test_duplicate_sample_id_within_dataset(self):
        with pytest.raises(ValidationError, match="duplicate sample_id"):
            meta = Manifest(("s0", "s0"), ("ds", "ds"), [0.0, 5.0], [5.0, 5.0])
            EvalDataset(("a",), np.zeros((2, 1)), np.zeros((2, 1)), meta)

    def test_same_sample_id_in_different_datasets_ok(self):
        meta = Manifest(("s0", "s0"), ("dsA", "dsB"), [0.0, 0.0], [5.0, 5.0])
        d = EvalDataset(("a",), np.zeros((2, 1)), np.zeros((2, 1)), meta)
        assert d.meta.datasets == ("dsA", "dsB")

    def test_confidences_from_logits(self):
        z = np.array([[0.0, 2.0]])
        d = EvalDataset(("a", "b"), z, np.zeros((1, 2)), _meta(1))
        np.testing.assert_array_equal(confidences(d), sigmoid(z))

    def test_confidences_verbatim_probs(self):
        p = np.array([[0.25, 0.75]])
        d = EvalDataset(
            ("a", "b"), inverse_sigmoid(p), np.zeros((1, 2)), _meta(1), probs=p
        )
        assert np.array_equal(confidences(d), p)


class TestLoaders:
    def test_round_trip(self, tmp_path):
        values = np.array([[0.1, -2.0], [3.5, 0.0]])
        labels = np.array([[1, 0], [0, 1]])
        pred, lab, man = write_triple(
            tmp_path, ("a", "b"), ["s0", "s1"], values, labels, simple_meta(["s0", "s1"])
        )
        d = load_dataset(pred, lab, man)
        np.testing.assert_array_equal(d.logits, values)
        np.testing.assert_array_equal(d.labels, labels.astype(float))
        assert d.classes == ("a", "b")
        assert d.probs is None
        assert d.meta.start_s[1] == 5.0

    def test_probabilities_retained_verbatim(self, tmp_path):
        probs = np.array([[0.1, 0.9], [0.5, 0.3]])
        pred, lab, man = write_triple(
            tmp_path, ("a", "b"), ["s0", "s1"], probs, np.zeros((2, 2)),
            simple_meta(["s0", "s1"]),
        )
        d = load_dataset(pred, lab, man, inputs_are_probabilities=True)
        assert np.array_equal(d.probs, probs)
        np.testing.assert_allclose(sigmoid(d.logits), probs, atol=1e-12)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ValidationError, match="nope.csv"):
            load_dataset(str(tmp_path / "nope.csv"), "x", "y")

    def test_header_must_start_with_sample_id(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("id,a\nr0,1.0\n")
        with pytest.raises(ValidationError, match="sample_id"):
            load_dataset(str(p), str(p), str(p))

    def test_header_mismatch_between_files(self, tmp_path):
        pred, lab, man = write_triple(
            tmp_path, ("a", "b"), ["s0"], np.zeros((1, 2)), np.zeros((1, 2)),
            simple_meta(["s0"]),
        )
        other = tmp_path / "l2.csv"
        other.write_text("sample_id,a,c\ns0,0,0\n")
        with pytest.raises(ValidationError, match="class header mismatch"):
            load_dataset(pred, str(other), man)

    def test_ragged_row_reports_row_number(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("sample_id,a,b\ns0,1.0\n")
        with pytest.raises(ValidationError, match=r"row 0"):
            load_dataset(str(p), str(p), str(p))

    def test_non_numeric_cell_names_row_and_class(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("sample_id,a,b\ns0,1.0,oops\n")
        with pytest.raises(ValidationError, match=r"row 0, class b.*'oops'"):
            load_dataset(str(p), str(p), str(p))

    def test_sample_order_mismatch(self, tmp_path):
        pred, lab, man = write_triple(
            tmp_path, ("a",), ["s0", "s1"], np.zeros((2, 1)), np.zeros((2, 1)),
            simple_meta(["s0", "s1"]),
        )
        shuffled = tmp_path / "l2.csv"
        shuffled.write_text("sample_id,a\ns1,0\ns0,0\n")
        with pytest.raises(ValidationError, match="sample order mismatch at row 0"):
            load_dataset(pred, str(shuffled), man)

    def test_manifest_unknown_sample(self, tmp_path):
        pred, lab, _ = write_triple(
            tmp_path, ("a",), ["s0"], np.zeros((1, 1)), np.zeros((1, 1)),
            simple_meta(["s0"]),
        )
        man2 = tmp_path / "m2.json"
        man2.write_text(json.dumps(simple_meta(["sX"])))
        with pytest.raises(ValidationError, match="unknown sample_id"):
            load_dataset(pred, lab, str(man2))

    def test_manifest_must_be_array(self, tmp_path):
        pred, lab, _ = write_triple(
            tmp_path, ("a",), ["s0"], np.zeros((1, 1)), np.zeros((1, 1)),
            simple_meta(["s0"]),
        )
        man2 = tmp_path / "m2.json"
        man2.write_text("{}")
        with pytest.raises(ValidationError, match="JSON array"):
            load_dataset(pred, lab, str(man2))

    def test_manifest_missing_key(self, tmp_path):
        pred, lab, _ = write_triple(
            tmp_path, ("a",), ["s0"], np.zeros((1, 1)), np.zeros((1, 1)),
            simple_meta(["s0"]),
        )
        man2 = tmp_path / "m2.json"
        man2.write_text(json.dumps([{"sample_id": "s0", "dataset_id": "ds"}]))
        with pytest.raises(ValidationError, match="row 0 missing"):
            load_dataset(pred, lab, str(man2))

    def test_non_binary_label_in_file(self, tmp_path):
        pred, _, man = write_triple(
            tmp_path, ("a",), ["s0"], np.zeros((1, 1)), np.zeros((1, 1)),
            simple_meta(["s0"]),
        )
        lab2 = tmp_path / "l2.csv"
        lab2.write_text("sample_id,a\ns0,0.5\n")
        with pytest.raises(ValidationError) as err:
            load_dataset(pred, str(lab2), man)
        assert str(err.value) == f"non-binary label (row 0, class a) in {lab2}: 0.5"

    def test_manifest_integer_ids_read_as_text(self, tmp_path):
        pred, lab, _ = write_triple(
            tmp_path, ("a",), ["7", "8"], np.zeros((2, 1)), np.zeros((2, 1)),
            simple_meta(["7", "8"]),
        )
        man2 = tmp_path / "m2.json"
        man2.write_text(json.dumps([
            {"sample_id": 7, "dataset_id": 3, "start_s": 0, "duration_s": 5},
            {"sample_id": 8, "dataset_id": 3, "start_s": 5.0, "duration_s": 5},
        ]))
        d = load_dataset(pred, lab, str(man2))
        assert d.meta.sample_id == ("7", "8") and d.meta.datasets == ("3",)
        assert d.meta.start_s.tolist() == [0.0, 5.0]

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_utf8_bom_is_skipped(self, tmp_path, quoted):
        header = '"sample_id",a' if quoted else "sample_id,a"
        pred, lab, man = write_triple(
            tmp_path, ("a",), ["s0"], np.zeros((1, 1)), np.ones((1, 1)), simple_meta(["s0"]),
        )
        for path in (pred, lab):
            with open(path) as fh:
                body = fh.read().split("\n", 1)[1]
            with open(path, "w", encoding="utf-8-sig") as fh:
                fh.write(header + "\n" + body)
        d = load_dataset(pred, lab, man)
        assert d.classes == ("a",) and d.meta.sample_id == ("s0",)
        assert d.labels.tolist() == [[1.0]]

    def test_probability_out_of_range(self, tmp_path):
        pred, lab, man = write_triple(
            tmp_path, ("a",), ["s0"], np.array([[1.5]]), np.zeros((1, 1)),
            simple_meta(["s0"]),
        )
        with pytest.raises(ValidationError, match=r"probability outside \[0, 1\] \(row 0, class a\)"):
            load_dataset(pred, lab, man, inputs_are_probabilities=True)


def _outcome(reader, path):
    """What a reader makes of a file: classes, ids and value bits, or the
    type and text of what it raised."""
    try:
        classes, ids, values = reader(path, "predictions")
    except Exception as exc:  # the failure itself is what gets compared
        return ("raised", type(exc), str(exc))
    return ("read", classes, ids, values.dtype, values.shape, values.tobytes())


def _long_lines(n_classes: int, name: str, rows: int) -> bytes:
    """A matrix CSV whose lines are long and whose fields are short: each
    class named by ``name`` and its index, each cell a float's repr."""
    head = ",".join(["sample_id", *(name.format(j) for j in range(n_classes))])
    body = [",".join([f"s{i}", *(repr((i + j) / 7) for j in range(n_classes))])
            for i in range(rows)]
    return ("\n".join([head, *body]) + "\n").encode("ascii")


def _flag_lines(n_classes: int, rows: int) -> bytes:
    """A 0/1 matrix CSV: cell (i, j) is 1 where i + j is a multiple of 3."""
    head = ",".join(["sample_id", *(f"c{j}" for j in range(n_classes))])
    body = [",".join([f"s{i}", *("01"[(i + j) % 3 == 0] for j in range(n_classes))])
            for i in range(rows)]
    return ("\n".join([head, *body]) + "\n").encode("ascii")


# name -> (file bytes, whether the C-parser path reads it)
_READER_CASES = {
    "plain": (b"sample_id,a,b\ns0,1.5,-2\ns1,0,3e-5\n", True),
    "special-values": (b"sample_id,a,b,c,d,e\ns0, 1.5,nan,-inf,1e400,-0.0\n", True),
    "whitespace-around-cells": (b"sample_id,a,b\ns0,\t2.5 , 1.5\x0b\n", True),
    "hash-in-id": (b"sample_id,a\n#s0,1\ns1,2\n", True),
    "no-final-newline": (b"sample_id,a\ns0,1\ns1,2", True),
    "empty-id-in-last-row": (b"sample_id,a\ns0,1\n,2\n", True),
    "quoted-id": (b'sample_id,a\n"s0",1\n', False),
    "quoted-id-with-comma": (b'sample_id,a\n"s,0",1\n', False),
    "quoted-cell": (b'sample_id,a\ns0,"1.5"\n', False),
    "quoted-header": (b'"sample_id",a\ns0,1\n', False),
    "underscore-literal": (b"sample_id,a\ns0,1_0\n", False),
    "non-ascii-digit": ("sample_id,a\ns0,\u0661\n".encode("utf-8"), False),
    "hash-in-cell": (b"sample_id,a\ns0,#1\n", False),
    # loadtxt strips U+001C-U+001F around a number as whitespace; float() refuses them
    "file-separator-before-number": (b"sample_id,a,b\ns0,1.0,\x1c2\ns1,0.5,2\n", False),
    "crlf": (b"sample_id,a\r\ns0,1\r\n", False),
    "trailing-blank-line": (b"sample_id,a\ns0,1\n\n", False),
    "inner-blank-line": (b"sample_id,a\ns0,1\n\ns1,2\n", False),
    "ragged-row": (b"sample_id,a,b\ns0,1\n", False),
    "extra-column": (b"sample_id,a\ns0,1,2\n", False),
    "empty-cell": (b"sample_id,a\ns0,\n", False),
    "header-only": (b"sample_id,a\n", False),
    "empty-file": (b"", False),
    "bad-header": (b"id,a\ns0,1\n", False),
    "duplicate-class": (b"sample_id,a,a\ns0,1,2\n", False),
    "not-utf8": (b"sample_id,a\ns0,\xff\n", False),
    "field-over-csv-limit": (b"sample_id,a\n" + b"s" * 200000 + b",1\n", False),
    "header-field-over-csv-limit": (b"sample_id," + b"a" * 200000 + b"\ns0,1\n", False),
    # the csv field size limit (131,072) holds for each field, not for a line
    "line-over-csv-limit": (_long_lines(9_000, "c{}", 1), True),
    # header and rows each longer than one read of 256 KiB
    "lines-over-two-reads": (_long_lines(17_000, "class_number_{:07d}", 2), True),
    # a chunk of integer cells parses as integers, and as floats where that fails
    "integer-cell-plus-sign": (b"sample_id,a,b\ns0,+1,0\n", True),
    "integer-cell-padded": (b"sample_id,a,b\ns0, 01 ,1\n", True),
    "integer-cell-decimal-point": (b"sample_id,a,b\ns0,1.0,0\n", True),
    "integer-cell-two": (b"sample_id,a,b\ns0,2,1\n", True),
    "integer-cell-over-255": (b"sample_id,a,b\ns0,300,1\n", True),
    "integer-cell-negative": (b"sample_id,a,b\ns0,-1,1\n", True),
    "integer-rows-then-float": (b"sample_id,a,b\ns0,0,1\ns1,1,1\ns2,0,0.5\ns3,1,0\n", True),
    "integer-cell-minus-zero": (b"sample_id,a,b\ns0,-0,1\n", True),
    "fraction-cells": (b"sample_id,a,b\ns0,0.5,0.25\ns1,1,0.75\n", True),
    # a chunk of one-byte 0/1 cells parses from its bytes, any other chunk as floats
    "flag-cells-after-non-ascii-id": ("sample_id,a,b\n\u00e9s0,1,0\ns1,0,1\n\u4e2d,1,1\n"
                                      .encode("utf-8"), True),
    "flag-row-with-letter-cell": (b"sample_id,a,b\ns0,1,0\ns1,a,1\n", False),
    "flag-row-with-non-ascii-cell": ("sample_id,a,b\ns0,1,0\ns1,\u00e9,1\n".encode("utf-8"),
                                     False),
    "flag-row-with-byte-below-zero": (b"sample_id,a,b\ns0,1,0\ns1,/,1\n", False),
    # as many commas and bytes as two rows of two cells, but one cell short on one line
    "flag-rows-ragged-evenly": (b"sample_id,a,b\ns0,1\ns1,0,1,1\n", False),
    "flag-cells-no-final-newline": (b"sample_id,a,b\ns0,1,0\ns1,0,1", True),
    # 321 KB of 0/1 rows: several reads in one part, one or more parts
    "flag-rows-over-two-reads": (_flag_lines(20, 7_000), True),
    "not-utf8-in-header": (b"sample_id,\xe9\ns0,1\n", False),
    "utf8-bom": (b"\xef\xbb\xbfsample_id,a\ns0,1\n", True),
    "utf8-bom-quoted-header": (b'\xef\xbb\xbf"sample_id",a\ns0,1\n', False),
}

_PLAIN_CELLS = ("0", "1", "-2.5", "1e400", "-inf", "nan", "+.5", "-0.0", " 1.5", "2 ")
_ODD_CELLS = (
    "1_0", "", " ", "x", "#", "1#2", "0x1", "\u0661", "1\x002", '"3"', '"1,5"', "1.5\xa0",
    "\x1c2", "2\x1f",
)
_IDS = ("s0", "s 1", "#s", "", '"q"', '"q,1"', "\u00e9", "s\x00")


@st.composite
def _matrix_csv_text(draw):
    """A matrix CSV that is plain most of the time; each part of it turns odd
    (an odd cell or id, a ragged row, another line end, a stray tail) with
    probability 1/8."""

    def odd():
        return draw(st.integers(0, 7)) == 0

    n_classes = draw(st.integers(1, 3))
    lines = ["sample_id," + ",".join(f"c{j}" for j in range(n_classes))]
    plain = st.floats().map(repr) | st.sampled_from(_PLAIN_CELLS)
    for i in range(draw(st.integers(0, 4))):
        width = n_classes + (draw(st.sampled_from((-1, 1))) if odd() else 0)
        cells = [draw(st.sampled_from(_IDS)) if odd() else f"s{i}"]
        cells += [draw(st.sampled_from(_ODD_CELLS) if odd() else plain) for _ in range(width)]
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(("\r\n", "\r"))) if odd() else "\n"
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    if odd():
        text += newline
    if odd():
        text += draw(st.text(st.sampled_from('01.,-e"\r\n #_a'), max_size=8))
    return text


# part counts above one that the *_in_parts tests read and write matrix
# CSVs in; the tests they repeat read and write their small files in one
_SPLITS = (2, _MAX_PARTS)


@contextmanager
def _split_into(parts):
    """Cut every matrix CSV read or write into up to ``parts`` parts,
    however small, as on a host with ``parts`` CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rowfiles, "_PART_CELLS", 1)
        mp.setattr(rowfiles, "_PART_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
        yield


@pytest.fixture(params=_SPLITS, ids=lambda parts: f"{parts}-parts")
def parts(request):
    with _split_into(request.param):
        yield request.param


@pytest.fixture
def part_counts(monkeypatch):
    """The number of spans of each later _in_parts call, in order."""
    counts = []
    in_parts = rowfiles._in_parts

    def counted(task, spans, take, outputs=1):
        counts.append(len(spans))
        return in_parts(task, spans, take, outputs)

    monkeypatch.setattr(rowfiles, "_in_parts", counted)
    return counts


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _same_descriptors():
    """Assert that the block leaves the same file descriptors open as it
    found, where ``/proc/self/fd`` lists them: a pipe end is a bare
    integer, which no ResourceWarning reports."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    assert set(os.listdir("/proc/self/fd")) == before


def _read_plain_csv(path):
    """The plain read of ``_read_matrix_csv`` alone: the file as it reads
    it, or None where it declines and the reference read would follow."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rowfiles, "_read_csv_cells", lambda path, kind: None)
        return _read_matrix_csv(path, "predictions")


def _agrees_with_reference(path):
    assert _outcome(_read_matrix_csv, str(path)) == _outcome(oracle_read_matrix_csv, str(path))


class TestMatrixReader:
    """The C-parser path of ``_read_matrix_csv`` against the csv.reader +
    float() reference: same classes, ids and value bits, or the same error,
    whatever the number of parts the file is read in."""

    @pytest.mark.parametrize("name", sorted(_READER_CASES))
    def test_case_agrees_with_reference(self, tmp_path, name):
        data, fast = _READER_CASES[name]
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        _agrees_with_reference(path)
        assert (_read_plain_csv(str(path)) is not None) == fast

    @pytest.mark.parametrize("name", sorted(_READER_CASES))
    def test_case_agrees_in_parts(self, tmp_path, name, parts):
        self.test_case_agrees_with_reference(tmp_path, name)

    @pytest.mark.parametrize("parts", (1, *_SPLITS))
    @pytest.mark.parametrize("name", sorted(n for n, (_, fast) in _READER_CASES.items() if fast))
    def test_plain_case_equals_reference(self, tmp_path, monkeypatch, name, parts):
        # the plain read alone, with the reference read made to fail
        path = tmp_path / "m.csv"
        path.write_bytes(_READER_CASES[name][0])

        def refused(path, kind):
            raise AssertionError("the plain read declined")

        monkeypatch.setattr(rowfiles, "_read_csv_cells", refused)
        with _split_into(parts):
            assert _outcome(_read_matrix_csv, str(path)) == _outcome(oracle_read_matrix_csv,
                                                                     str(path))

    def test_no_integer_parse_where_numpy_truncates_floats(self, tmp_path, monkeypatch):
        # numpy 1.23 until that deprecation expired parsed a cell that is no
        # 8-bit integer through its float value, truncated, with only a
        # DeprecationWarning: the plain read must not take those integers
        loadtxt = np.loadtxt

        def truncating(lines, *args, dtype=float, **kwargs):
            if dtype is not np.uint8:
                return loadtxt(lines, *args, dtype=dtype, **kwargs)
            values = loadtxt(lines, *args, dtype=np.float64, **kwargs)
            if not np.array_equal(values, np.clip(np.trunc(values), 0, 255), equal_nan=True):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
            return np.trunc(np.nan_to_num(values)).astype(np.int64).astype(np.uint8)

        monkeypatch.setattr(np, "loadtxt", truncating)
        monkeypatch.setattr(rowfiles, "_read_csv_cells", None)  # the plain read alone
        for name in ("fraction-cells", "integer-cell-over-255", "integer-cell-negative",
                     "integer-cell-minus-zero", "integer-rows-then-float", "plain",
                     "flag-cells-after-non-ascii-id", "flag-rows-over-two-reads"):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(_READER_CASES[name][0])
            assert (_outcome(_read_matrix_csv, str(path))
                    == _outcome(oracle_read_matrix_csv, str(path))), name

    @pytest.mark.parametrize("parts", (1, *_SPLITS))
    @pytest.mark.parametrize("name", ["flag-cells-after-non-ascii-id",
                                      "flag-cells-no-final-newline", "flag-rows-over-two-reads"])
    def test_flag_cells_parse_from_their_bytes(self, tmp_path, monkeypatch, name, parts):
        # no numpy parse is asked for: whatever numpy is installed reads them the same
        def refused(what):
            def call(*args, **kwargs):
                raise AssertionError(what)
            return call

        path = tmp_path / "m.csv"
        path.write_bytes(_READER_CASES[name][0])
        want = _outcome(oracle_read_matrix_csv, str(path))
        monkeypatch.setattr(np, "loadtxt", refused("np.loadtxt parsed a 0/1 chunk"))
        monkeypatch.setattr(rowfiles, "_read_csv_cells", refused("the plain read declined"))
        with _split_into(parts):
            assert _outcome(_read_matrix_csv, str(path)) == want

    def test_byte_parse_checks_every_comma(self):
        # the chunk's comma count sends such a line elsewhere first; the
        # byte parse does not rely on it, and loadtxt refuses the cell
        with pytest.raises(ValueError):
            rowfiles._parse_cells(["s0,1;1"], ["s0"], 2)
        assert rowfiles._parse_cells(["s0,1,0", "\u00e9,0,1"], ["s0", "\u00e9"], 2).tolist() == [
            [1, 0], [0, 1]]

    def test_trailing_blank_line_names_the_empty_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"sample_id,a\ns0,1\n\n")
        with pytest.raises(ValidationError, match="row 1: 0 cells"):
            _read_matrix_csv(str(path), "predictions")

    @settings(max_examples=300, deadline=None)
    @given(text=_matrix_csv_text())
    def test_fuzz_agrees_with_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "reader-fuzz.csv"
        path.write_bytes(text.encode("utf-8"))
        _agrees_with_reference(path)

    @pytest.mark.parametrize("parts", _SPLITS)
    @settings(max_examples=300, deadline=None)
    @given(text=_matrix_csv_text())
    def test_fuzz_agrees_in_parts(self, tmp_path_factory, parts, text):
        path = tmp_path_factory.getbasetemp() / "reader-fuzz.csv"
        path.write_bytes(text.encode("utf-8"))
        with _split_into(parts):
            _agrees_with_reference(path)


_ANY_IDS = st.lists(
    st.one_of(st.sampled_from(["", "s,0", 'a"b', "#c", "\x00", "x\r\ny", " ", "\r"]),
              st.text(max_size=6)),
    min_size=1, max_size=6, unique=True,
)
_ANY_CLASSES = st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True)


def _rows_of(ids, values):
    """The ``rows`` of write_rows for one matrix CSV of these rows."""
    return lambda start, stop: [matrix_rows(ids[start:stop], values[start:stop])]


def _writer_text(ids, classes, values) -> bytes:
    """A matrix CSV as csv.writer's default dialect writes it, with \\n line
    ends and each cell its repr."""
    rows = [[sid, *map(repr, row)] for sid, row in zip(ids, values.tolist())]
    lines = []
    for cells in [["sample_id", *classes], *rows]:
        line = io.StringIO(newline="")
        csv.writer(line).writerow(cells)  # the default dialect ends a row in \r\n
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def _round_trip(path, ids, classes):
    # the writer quotes as csv.writer does, and the reader gives back the
    # ids, classes and value bits it was handed
    values = np.random.default_rng(len(ids)).normal(size=(len(ids), len(classes)))
    write_rows(str(path.parent), {path.name: ("CSV", matrix_head(classes), "")}, len(ids),
               values.size, _rows_of(ids, values))
    assert path.read_bytes() == _writer_text(ids, classes, values)
    got_classes, got_ids, got = _read_matrix_csv(str(path), "predictions")
    assert (got_classes, got_ids) == (tuple(classes), ids)
    assert got.view(np.int64).tolist() == values.view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(ids=_ANY_IDS, classes=_ANY_CLASSES)
def test_matrix_csv_round_trips_any_id(tmp_path_factory, ids, classes):
    _round_trip(tmp_path_factory.getbasetemp() / "round-trip.csv", ids, classes)


@pytest.mark.parametrize("parts", _SPLITS)
@settings(max_examples=200, deadline=None)
@given(ids=_ANY_IDS, classes=_ANY_CLASSES)
def test_matrix_csv_round_trips_any_id_in_parts(tmp_path_factory, parts, ids, classes):
    with _split_into(parts):
        _round_trip(tmp_path_factory.getbasetemp() / "round-trip.csv", ids, classes)


def test_matrix_csv_spans_row_blocks(tmp_path):
    # cells are formatted a block at a time, and a block of 3-cell rows
    # ends inside a row; the bytes are those of one csv.writer row per id,
    # across block edges and a partial last block
    n = 2 * (_BLOCK_CELLS // 3) + 3
    ids = [f"s{i}" for i in range(n)]
    values = np.random.default_rng(7).normal(size=(n, 3))
    values.flat[_BLOCK_CELLS - 2 : _BLOCK_CELLS + 2] = [-0.0, 5e-324, 1e16, 1e-5]
    path = tmp_path / "blocks.csv"
    write_rows(str(tmp_path), {"blocks.csv": ("CSV", matrix_head("abc"), "")}, n, values.size,
               _rows_of(ids, values))
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["sample_id", "a", "b", "c"])
    writer.writerows([sid, *map(repr, row)] for sid, row in zip(ids, values.tolist()))
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_matrix_csv_spans_row_blocks_in_parts(tmp_path, parts):
    test_matrix_csv_spans_row_blocks(tmp_path)


def _with_neighbours(values):
    """``values`` and the floats next to each, below and above, all finite."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return near[np.isfinite(near)]


# the formatter's edge cases, each with its negatives
_FLOAT_CASES = {
    "zeros and extremes": [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                           1.7976931348623157e308],
    "powers of two": _with_neighbours(2.0 ** np.arange(-1074, 1024)),
    "powers of ten": _with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "integers": np.arange(10**5 + 1),
    "near 2**53": 2.0**53 + np.arange(-3000, 3001),
    "layout switches": _with_neighbours(_with_neighbours([1e-4, 1e16])),
    # one digit fewer, ties to even and trailing zeros, rare among random bits
    "few digits": np.concatenate([np.arange(10**5) / 8, np.arange(10**4) * 1e-9,
                                  np.arange(10**4) * 1e20,
                                  np.round(np.random.default_rng(3).normal(size=10**5) * 3, 4)]),
}


def _assert_formats_as_repr(values, columns=1):
    """The rows matrix_rows writes for ``values``, ``columns`` cells a row,
    are those of the oracle's one repr call per cell, row by row."""
    values = np.asarray(values, dtype=np.float64)
    values = values[: values.size // columns * columns].reshape(-1, columns)
    ids = [str(i) for i in range(len(values))]
    got = b"".join(matrix_rows(ids, values)).splitlines()
    assert got == oracle_csv_rows(ids, values).splitlines()


@pytest.mark.parametrize("case", _FLOAT_CASES)
def test_floats_format_as_repr(case):
    values = np.asarray(_FLOAT_CASES[case], dtype=np.float64)
    _assert_formats_as_repr(np.concatenate([values, -values]))


def test_random_bit_patterns_format_as_repr():
    bits = np.random.default_rng(0).integers(0, 2**64, 2**20, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 10**6
    _assert_formats_as_repr(values, columns=16)


@settings(max_examples=100, deadline=None)
@given(ids=_ANY_IDS, columns=st.integers(1, 5), block=st.sampled_from([1, 7]), data=st.data())
def test_matrix_csv_is_the_same_in_any_blocks(tmp_path_factory, ids, columns, block, data):
    """Blocks of 1 and of 7 cells, which cut rows anywhere, write the bytes
    of one csv.writer row per id, any id, with each cell its repr."""
    values = data.draw(hnp.arrays(np.float64, (len(ids), columns),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    path = tmp_path_factory.getbasetemp() / "any-blocks.csv"
    classes = [f"c{k}" for k in range(columns)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rowfiles, "_BLOCK_CELLS", block)
        write_rows(str(path.parent), {path.name: ("CSV", matrix_head(classes), "")}, len(ids),
                   values.size, _rows_of(ids, values))
    assert path.read_bytes() == _writer_text(ids, classes, values)


def _formatter_run(values):
    """The lines and C calls that formatting one row of ``values`` runs,
    once the formatter's tables are built."""
    matrix_rows(["r"], values[None, :])
    run = []

    def lines(frame, event, arg):
        run.append((frame.f_code.co_name, frame.f_lineno))
        return lines

    gc.disable()  # a collection may run Python callbacks at any line
    sys.settrace(lines)
    sys.setprofile(lambda frame, event, arg: event == "c_call" and run.append(arg.__name__))
    try:
        matrix_rows(["r"], values[None, :])
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        gc.enable()
    return run


@pytest.mark.parametrize("kind", ["logits", "exponent form", "integral", "short digits"])
def test_formatter_calls_do_not_grow_with_cells(kind):
    """With its layout gathered at once, a block of _BLOCK_CELLS cells runs
    the same lines and calls as a block of 64 that it repeats: no cell,
    whatever its digits or layout, takes a path of its own."""
    rng = np.random.default_rng(1)
    few = {"logits": rng.normal(size=64) * 3, "exponent form": rng.normal(size=64) * 1e-9,
           "integral": rng.integers(-10**6, 10**6, 64).astype(np.float64),
           "short digits": rng.integers(1, 100, 64) / 8}[kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rowfiles, "_GATHER_CELLS", _BLOCK_CELLS)
        assert _formatter_run(np.tile(few, _BLOCK_CELLS // 64)) == _formatter_run(few)


@pytest.mark.parametrize("kind", ["1 to 3 digits", "eighths", "integers", "k * 1e20"])
def test_digits_are_removed_in_the_same_steps_however_many(kind):
    """Every cell takes the same steps, however many of its digits are
    removed or are zeros: a block of values of few shortest digits runs the
    same lines and calls as a block of 17-digit logits."""
    rng = np.random.default_rng(2)
    few, most = {"1 to 3 digits": (np.array([float(f"{i}e-{k}") for i, k in zip(
                     rng.integers(1, 1000, 64), rng.integers(5, 300, 64))]), 3),
                 "eighths": (rng.integers(1, 10**5, 64) / 8, 8),
                 "integers": (rng.integers(1, 10**6, 64).astype(np.float64), 6),
                 "k * 1e20": (rng.integers(1, 10**4, 64) * 1e20, 4)}[kind]
    assert all(len(repr(v).split("e")[0].replace(".", "").strip("0")) <= most
               for v in few.tolist())
    assert _formatter_run(few) == _formatter_run(rng.normal(size=64) * 3)


def test_matrix_rows_refuses_non_finite_cells():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="only finite floats"):
            matrix_rows(["a", "b"], np.array([[1.0, 2.0], [3.0, bad]]))


# a fixture whose ids need CSV quoting and JSON escaping, with times that
# are not integers; tests/golden/synth_fixture.json holds the sha256 of
# each of its files
_GOLDEN_SYNTH = SynthConfig(n=37, c=5, true_t=2.0, true_b=0.5, seed=11,
                            dataset_id='site "\u00c5", nord', clip_duration_s=0.1)


@pytest.mark.parametrize("split", [1, *_SPLITS])
def test_synth_fixture_golden_in_parts(tmp_path, split):
    golden = pathlib.Path(__file__).parent / "golden" / "synth_fixture.json"
    want = json.loads(golden.read_text(encoding="utf-8"))
    with _split_into(split):
        write_fixture(_GOLDEN_SYNTH, str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want


def test_synth_fixture_golden_in_one_row_rounds(tmp_path, monkeypatch):
    monkeypatch.setattr(rowfiles, "_ROUND_CELLS", 1)
    test_synth_fixture_golden_in_parts(tmp_path, _MAX_PARTS)


def _ramp(lo, hi, c):  # a per-class flag value as the benchmark writes it
    return ",".join(f"{lo + (hi - lo) * i / (c - 1):.4g}" for i in range(c))


# the benchmark's fit-10k fixture at its default seed, and the sha256 of each
# of its files as written before synth generated its rows in parts
_FIT_10K = ["synth", "--n", "10000", "--classes", "20", f"--true-t={_ramp(0.6, 4.0, 20)}",
            f"--true-b={_ramp(-1.0, 1.0, 20)}", "--stddev", "2.0", "--seed", "2"]
_FIT_10K_SHA256 = {
    "labels.csv": "81735288983d87bd17e07844c0002ab5473100eb5b85d4481da574bbea465194",
    "manifest.json": "37fa5750b0160c1405620b5eed363c81ce6597134b44d926f266644f3148ce63",
    "predictions.csv": "ab042814bdceb04742a906206ac370e6fe054027eb70140726d63c1241539bf5",
    "truth.json": "8f731bcf4d084aebef8560b67e35fdef28bef4669390b9c2dbd31f550b3c58f7",
}


@pytest.mark.parametrize("split, round_rows", [(1, None), (2, None), (2, 100)],
                         ids=["1-part", "2-parts", "100-row-rounds"])
def test_fit_10k_fixture_pinned(tmp_path, monkeypatch, capsys, split, round_rows):
    rounds = []
    in_parts = rowfiles._in_parts

    def counted(task, spans, take, outputs=1):
        rounds.append(spans)
        return in_parts(task, spans, take, outputs)

    monkeypatch.setattr(rowfiles, "_in_parts", counted)
    if round_rows:  # synth counts the work of a row as C + 2 float cells
        monkeypatch.setattr(rowfiles, "_ROUND_CELLS", round_rows * (20 + 2))
    with _split_into(split):
        assert main([*_FIT_10K, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _FIT_10K_SHA256}
    assert got == _FIT_10K_SHA256
    assert len(rounds) == 10_000 // (round_rows or 10_000)
    assert {len(spans) for spans in rounds} == {split}


def _matrix_file(path, n, bad_row=None, bad_line=None):
    """A plain n x 2 matrix CSV; row ``bad_row`` reads ``bad_line`` instead."""
    lines = ["sample_id,a,b"] + [f"s{i},{i}.5,-{i}" for i in range(n)]
    if bad_row is not None:
        lines[1 + bad_row] = bad_line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParts:
    """Matrix CSVs are formatted and parsed in row parts, one per CPU; the
    bytes, values and errors do not depend on how many."""

    @pytest.mark.parametrize("line, want", [
        ("s99,1.5,x", "non-numeric value (row 99, class b)"),
        ("s99,1.5", "row 99: 2 cells, expected 3"),
    ], ids=["bad-cell", "ragged-row"])
    def test_fault_in_last_part_names_its_global_row(self, tmp_path, parts, line, want):
        path = _matrix_file(tmp_path / "m.csv", 100, bad_row=99, bad_line=line)
        assert _read_plain_csv(path) is None
        with pytest.raises(ValidationError) as got:
            _read_matrix_csv(path, "predictions")
        assert want in str(got.value)
        assert str(got.value) == _outcome(oracle_read_matrix_csv, path)[2]

    def test_parts_follow_the_cpus_up_to_the_cap(self, tmp_path, part_counts):
        files = {"m.csv": ("CSV", matrix_head("ab"), "")}
        rows = _rows_of([f"s{i}" for i in range(100)], np.ones((100, 2)))
        for cpus in (1, 2, 64):
            with _split_into(cpus):
                write_rows(str(tmp_path), files, 100, 200, rows)
                _read_matrix_csv(str(tmp_path / "m.csv"), "predictions")
        assert part_counts == [1, 1, 2, 2, _MAX_PARTS, _MAX_PARTS]

    def test_small_files_are_one_part(self, monkeypatch):
        # a 1-2 MB labels file reads no faster when split, whatever the CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert rowfiles._part_count(2_200_000, rowfiles._PART_BYTES) == 1
        assert rowfiles._part_count(rowfiles._PART_CELLS - 1, rowfiles._PART_CELLS) == 1
        assert rowfiles._part_count(2 * rowfiles._PART_CELLS - 1, rowfiles._PART_CELLS) == 1
        assert rowfiles._part_count(2 * rowfiles._PART_CELLS, rowfiles._PART_CELLS) == 2

    def test_site_sized_synth_uses_every_cpu(self, tmp_path, monkeypatch, part_counts):
        # one 1,000-row, 64-class site of a multi-site fixture, 66,000
        # cells as write_rows counts them, forks a part for a second CPU
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            write_fixture(SynthConfig(n=1000, c=64, seed=5), str(tmp_path / f"{cpus}"))
        assert part_counts == [1, 2]
        for name in ("predictions.csv", "labels.csv", "manifest.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("fault", ["raises", "killed", "no-fork"])
    def test_failed_child_is_redone_here(self, tmp_path, monkeypatch, fault):
        """A child that raises, is killed or cannot be started has its part
        formatted or parsed in this process: the same bytes and values, and
        no child is left behind."""
        n = 3072
        ids = [f"s{i}" for i in range(n)]
        values = np.random.default_rng(3).normal(size=(n, 3))
        head, rows = ("CSV", matrix_head("abc"), ""), _rows_of(ids, values)
        write_rows(str(tmp_path), {"one.csv": head}, n, values.size, rows)
        want = _read_matrix_csv(str(tmp_path / "one.csv"), "predictions")
        parent = os.getpid()

        def failing(task):
            def run(*args):
                if os.getpid() != parent:
                    if fault == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise RuntimeError("child fails")
                return task(*args)
            return run

        if fault == "no-fork":  # the first fork works, every later one fails
            fork, forks = os.fork, []

            def fork_once():
                forks.append(None)
                if len(forks) > 1:
                    raise BlockingIOError(11, "Resource temporarily unavailable")
                return fork()

            monkeypatch.setattr(os, "fork", fork_once)
        else:
            monkeypatch.setattr(rowfiles, "_csv_rows", failing(rowfiles._csv_rows))
            monkeypatch.setattr(rowfiles, "_plain_rows", failing(rowfiles._plain_rows))
        with _split_into(_MAX_PARTS), _same_descriptors():
            write_rows(str(tmp_path), {"parts.csv": head}, n, values.size, rows)
            _assert_no_child_left()
            classes, got_ids, got = _read_matrix_csv(str(tmp_path / "parts.csv"), "predictions")
            _assert_no_child_left()
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert (classes, got_ids) == want[:2]
        assert got.tobytes() == want[2].tobytes()

    def test_child_killed_between_two_outputs_is_redone_here(self, tmp_path):
        """Three files, the last with no rows like truth.json, in 8 parts:
        the child of rows 40:50 is killed after it writes its first output.
        Its part is redone here, the files are those of a one-part run, and
        no child or file descriptor is left behind."""
        parent, done_here = os.getpid(), []
        files = {"a.csv": ("CSV", "a\n", ""), "b.txt": ("text", "b\n", "end\n"),
                 "c.json": ("truth", "{}\n", "")}

        def second(start, stop):  # runs once its first output is written
            if os.getpid() != parent and start == 40:
                os.kill(os.getpid(), signal.SIGKILL)
            if os.getpid() == parent:
                done_here.append(start)
            yield "".join(f"b{i}\n" for i in range(start, stop)).encode()

        def rows(start, stop):
            return [["".join(f"a{i},{i}\n" for i in range(start, stop)).encode()],
                    second(start, stop), []]

        for run, split in (("one", 1), ("parts", _MAX_PARTS)):
            with _split_into(split), _same_descriptors():
                write_rows(str(tmp_path / run), files, 80, 80, rows)
                _assert_no_child_left()
        assert done_here == [0, 0, 40]
        for name in files:
            assert (tmp_path / "parts" / name).read_bytes() == (
                tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "one" / "b.txt").read_bytes().endswith(b"b79\nend\n")

    def test_declining_part_stops_and_reaps_the_others(self, tmp_path):
        path = _matrix_file(tmp_path / "m.csv", 400, bad_row=0, bad_line='"s0",1,2')
        with _split_into(_MAX_PARTS), _same_descriptors():
            assert _read_plain_csv(path) is None
            _assert_no_child_left()

    @pytest.mark.parametrize("split", [1, _MAX_PARTS])
    def test_part_without_text_raises_and_leaves_no_directory(self, tmp_path, monkeypatch,
                                                               split):
        """A rows callback that returns None for rows 5:10 of 10, in two
        rounds of five rows: a TypeError, and the new directory is gone."""
        monkeypatch.setattr(rowfiles, "_ROUND_CELLS", 5)

        def rows(start, stop):
            if start >= 5:
                return None
            return [["".join(f"r{i}\n" for i in range(start, stop)).encode()]]

        out = tmp_path / "new"
        with _split_into(split), _same_descriptors(), pytest.raises(TypeError):
            write_rows(str(out), {"m.txt": ("text", "head\n", "tail\n")}, 10, 10, rows)
        _assert_no_child_left()
        assert not out.exists()

    @pytest.mark.parametrize("split", [1, _MAX_PARTS])
    @pytest.mark.parametrize("texts", [1, 3], ids=["short", "long"])
    def test_part_with_a_text_too_few_or_too_many_raises(self, tmp_path, split, texts):
        """Two files, and a rows callback that returns one text or three for
        the part that ends at row 10, in one part or in a child: a
        ValueError, the files already there keep their bytes, and the new
        directory is gone."""
        files = {"a.txt": ("text", "A\n", ""), "b.txt": ("text", "B\n", "end\n")}

        def rows(start, stop):
            text = ["".join(f"r{i}\n" for i in range(start, stop)).encode()]
            return [text] * (texts if stop == 10 else 2)

        old, new = tmp_path / "old", tmp_path / "new" / "out"
        old.mkdir()
        for name in files:
            (old / name).write_bytes(b"kept\n")
        for out in (old, new):
            with _split_into(split), _same_descriptors(), pytest.raises(ValueError):
                write_rows(str(out), files, 10, 10, rows)
            _assert_no_child_left()
        assert sorted(os.listdir(old)) == sorted(files)
        assert all((old / name).read_bytes() == b"kept\n" for name in files)
        assert not (tmp_path / "new").exists()

    def test_parent_part_that_raises_reaps_every_child(self, tmp_path, monkeypatch):
        n = 2000
        ids = [f"s{i}" for i in range(n)]
        values = np.zeros((n, 2))
        parent = os.getpid()
        rows = rowfiles._csv_rows

        def fail_here(*args):
            if os.getpid() == parent:
                raise MemoryError
            return rows(*args)

        monkeypatch.setattr(rowfiles, "_csv_rows", fail_here)
        with _split_into(_MAX_PARTS), _same_descriptors(), pytest.raises(MemoryError):
            write_rows(str(tmp_path), {"m.csv": ("CSV", matrix_head("ab"), "")}, n, values.size,
                       _rows_of(ids, values))
        _assert_no_child_left()

    def test_synth_above_the_floor_prints_once(self, tmp_path):
        """A synth run large enough to split its CSVs, as one subprocess:
        every line it prints appears once, and the files are those written
        in one part."""
        n, c = 2 * rowfiles._PART_CELLS // 10 + 1, 10
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = tmp_path / "fx"
        done = subprocess.run(
            [sys.executable, "-m", "mlcalib", "synth", "--n", str(n), "--classes", str(c),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        names = ("predictions.csv", "labels.csv", "manifest.json", "truth.json")
        assert done.stdout.splitlines() == [f"wrote {out / name}" for name in names]
        assert done.stderr == ""
        with _split_into(1):
            write_fixture(SynthConfig(n=n, c=c), str(tmp_path / "one"))
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_every_fork_leaves_one_thread(self, tmp_path):
        """synth and evaluate in three parts, in a fresh interpreter with no
        thread-count variable set: each part, the caller's first included,
        runs in a process of one thread.  A BLAS pool that numpy starts on
        import (OpenBLAS) is stopped at the first fork and not restarted, so
        Python 3.12 has no threads to warn of when it forks."""
        code = """if True:
            import os, sys
            from mlcalib import rowfiles
            from mlcalib.cli import main
            log = os.open(sys.argv[2], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            def note(what):  # one append per line, whichever process writes it
                os.write(log, f"{what} {os.getpid()} {len(os.listdir('/proc/self/task'))}\\n".encode())
            note("import")
            in_parts = rowfiles._in_parts
            def noted(task, spans, take, outputs=1):
                return in_parts(lambda span: (note("part"), task(span))[1], spans, take, outputs)
            rowfiles._in_parts = noted
            rowfiles._PART_CELLS = rowfiles._PART_BYTES = 1
            os.sched_getaffinity = lambda pid: set(range(3))
            fx = os.path.join(sys.argv[1], "fx")
            assert main(["synth", "--n", "30", "--classes", "2", "--out", fx]) == 0
            assert main(["evaluate", *(f"--{kind}={fx}/{kind}.{ext}" for kind, ext in
                         (("predictions", "csv"), ("labels", "csv"), ("manifest", "json"))),
                         "--out", os.path.join(sys.argv[1], "ev")]) == 0
        """
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {key: value for key, value in os.environ.items() if key not in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.abspath(src)
        log = tmp_path / "threads.log"
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(log)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        [(_, parent, _), *parts] = [line.split() for line in log.read_text().splitlines()]
        # synth writes its rows in one round, evaluate reads two CSVs: 3 x 3 parts
        assert len(parts) == 9 and sum(pid == parent for _, pid, _ in parts) == 3
        assert {threads for _, _, threads in parts} == {"1"}
