import dataclasses
import os
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlcalib import metrics
from mlcalib.core import EvalDataset, Manifest, ValidationError, confidences, inverse_sigmoid
from mlcalib.metrics import (
    CalibrationScores,
    aggregate_multilabel,
    bin_class,
    calibration_scores,
    cmap,
    per_class_scores,
)
from mlcalib.protocol import (
    SplitSpec,
    frequent_rare_split,
    run_benchmark,
    split_first_minutes,
)
from mlcalib.report import (
    NOT_APPLICABLE,
    Report,
    ReportRow,
    dumps_canonical,
    emit_report,
    report_to_dict,
)
from mlcalib.scaling import T_MIN, FitConfig, apply_scaling
from mlcalib.synth import LatentSpec, SynthConfig, generate

from oracles import (
    oracle_average_precision,
    oracle_bin_sums,
    oracle_bin_sums_scores,
    oracle_frequent_rare,
    oracle_relative_improvement,
    oracle_split_first_minutes,
    oracle_weighted_scores,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _clips(n, dataset_id="ds", duration=5.0, offset=0.0):
    return Manifest(
        tuple(f"{dataset_id}-{i}" for i in range(n)),
        (dataset_id,) * n,
        [offset + i * duration for i in range(n)],
        np.full(n, duration),
    )


def _tiny(n, c, dataset_id="ds", seed=3, classes=None):
    r = np.random.default_rng(seed)
    z = r.normal(scale=2.0, size=(n, c))
    y = (r.random((n, c)) < 0.5).astype(float)
    y[0, :] = 1.0  # every class has a positive
    return EvalDataset(
        classes=classes or tuple(f"c{j}" for j in range(c)),
        logits=z,
        labels=y,
        meta=_clips(n, dataset_id),
    )


def _split_outcome(split, d, minutes):
    """The (calibration, evaluation) rows of a split, or its error text."""
    try:
        cal, ev = split(d, minutes)
    except ValidationError as exc:
        return ("raised", str(exc))
    return ("split", cal.dtype, cal.tolist(), ev.dtype, ev.tolist())


# ids that differ only by case, an accent (composed or combining) or
# trailing NULs, which numpy's fixed-width strings would drop
_SAMPLE_IDS = ("s", "S", "s\x00", "s\x00\x00", "\u00e9", "e\u0301", "e", "E", "", "\x00")
# start ties and -0.0; durations whose running sums round, some so long
# that a total carried over from another dataset would shift the sums of
# this one; windows that running sums of 5 s clips reach exactly
_STARTS = st.sampled_from((0.0, -0.0, 5.0, 5.0, 7.5)) | st.floats(0.0, 60.0)
_DURATIONS = st.sampled_from((5.0, 5.0, 5.0, 4.4, 0.1, 0.7, 1e6 + 0.3)) | st.floats(1e-3, 30.0)
_MINUTES = st.sampled_from((0.0, -1.0, 1 / 12, 1 / 6, 0.25, 0.01)) | st.floats(1e-4, 1.0)


@st.composite
def _timelines(draw):
    """A manifest of 2 to 10 clips in each of one to three dataset_ids,
    the rows of the datasets interleaved."""
    pairs = draw(st.permutations([
        (ds, sid)
        for ds in draw(st.sampled_from((("A",), ("A", "B"), ("B", "a", "A"))))
        for sid in draw(
            st.lists(st.sampled_from(_SAMPLE_IDS), min_size=2, max_size=10, unique=True)
        )
    ]))
    n = len(pairs)
    meta = Manifest(
        tuple(sid for _, sid in pairs),
        tuple(ds for ds, _ in pairs),
        draw(st.lists(_STARTS, min_size=n, max_size=n)),
        draw(st.lists(_DURATIONS, min_size=n, max_size=n)),
    )
    return EvalDataset(("c0",), np.zeros((n, 1)), np.zeros((n, 1)), meta)


class TestSplitFirstMinutes:
    def test_even_split_at_ten_minutes(self):
        d = _tiny(240, 1)
        cal, ev = split_first_minutes(d, 10.0)
        assert list(cal) == list(range(120))
        assert list(ev) == list(range(120, 240))

    def test_partition(self):
        d = _tiny(100, 2)
        cal, ev = split_first_minutes(d, 3.3)
        merged = np.sort(np.concatenate([cal, ev]))
        assert np.array_equal(merged, np.arange(100))
        assert np.intersect1d(cal, ev).size == 0

    def test_interleaved_datasets_split_independently(self):
        meta = Manifest(
            tuple(f"s{i}" for i in range(40)),
            tuple("A" if i % 2 == 0 else "B" for i in range(40)),
            [(i // 2) * 5.0 for i in range(40)],
            np.full(40, 5.0),
        )
        d = EvalDataset(("c0",), np.zeros((40, 1)), np.zeros((40, 1)), meta)
        cal, ev = split_first_minutes(d, 1.0)  # 60 s -> 12 clips per dataset
        cal_a = [i for i in cal if d.meta.dataset_id[i] == "A"]
        cal_b = [i for i in cal if d.meta.dataset_id[i] == "B"]
        assert len(cal_a) == len(cal_b) == 12

    def test_exclusive_boundary(self):
        # clip starting exactly at the window edge evaluates
        d = _tiny(3, 1)  # 5 s clips
        cal, ev = split_first_minutes(d, 10.0 / 60.0)  # 10 s window
        assert list(cal) == [0, 1]
        assert list(ev) == [2]

    def test_window_consuming_whole_dataset_rejected(self):
        d = _tiny(10, 1)
        with pytest.raises(ValidationError, match="consumes entire dataset"):
            split_first_minutes(d, 60.0)

    def test_orders_by_start_not_row_position(self):
        meta = Manifest(("late", "early"), ("ds", "ds"), [100.0, 0.0], [5.0, 5.0])
        d = EvalDataset(("c0",), np.zeros((2, 1)), np.zeros((2, 1)), meta)
        cal, ev = split_first_minutes(d, 5.0 / 60.0)
        assert list(cal) == [1] and list(ev) == [0]

    def test_rejects_nonpositive_minutes(self):
        with pytest.raises(ValidationError):
            split_first_minutes(_tiny(5, 1), 0.0)

    @settings(max_examples=400, deadline=None)
    @given(d=_timelines(), minutes=_MINUTES)
    def test_matches_running_total_oracle(self, d, minutes):
        assert _split_outcome(split_first_minutes, d, minutes) == _split_outcome(
            oracle_split_first_minutes, d, minutes
        )

    def test_running_total_restarts_per_dataset(self):
        # B's second clip starts 5 s into B, on the edge of a 5 s window;
        # measured as a difference of totals carried over A's 14.4 s, it
        # would start 4.999999999999998 s in and calibrate
        meta = Manifest(("a0", "a1", "a2", "b0", "b1"), ("A", "A", "A", "B", "B"),
                        [0.0, 4.4, 9.4, 0.0, 5.0], [4.4, 5.0, 5.0, 5.0, 5.0])
        d = EvalDataset(("c0",), np.zeros((5, 1)), np.zeros((5, 1)), meta)
        cal, ev = split_first_minutes(d, 1 / 12)
        assert (cal.tolist(), ev.tolist()) == ([0, 1, 3], [2, 4])
        assert _split_outcome(split_first_minutes, d, 1 / 12) == _split_outcome(
            oracle_split_first_minutes, d, 1 / 12
        )



class TestFrequentRareSplit:
    def test_prefix_example(self):
        a = frequent_rare_split({"a": 50, "b": 30, "c": 20}, 0.5)
        assert a.frequent == ("a",) and a.rare == ("b", "c")
        assert a.k == 1 and a.mass_fraction == pytest.approx(0.5)

    def test_near_one_fraction_takes_everything(self):
        a = frequent_rare_split({"a": 50, "b": 30, "c": 20}, 0.999)
        assert a.frequent == ("a", "b", "c") and a.rare == ()

    def test_tie_broken_by_ascending_name(self):
        a = frequent_rare_split({"z": 10, "a": 10, "m": 10}, 0.34)
        assert a.frequent == ("a", "m")

    def test_zero_count_classes_excluded(self):
        a = frequent_rare_split({"a": 10, "empty": 0}, 0.5)
        assert "empty" not in a.frequent + a.rare

    def test_partition_of_positive_classes(self):
        counts = {f"c{j}": j for j in range(10)}
        a = frequent_rare_split(counts, 0.7)
        assert set(a.frequent) | set(a.rare) == {f"c{j}" for j in range(1, 10)}
        assert set(a.frequent) & set(a.rare) == set()

    def test_no_positives_rejected(self):
        with pytest.raises(ValidationError):
            frequent_rare_split({"a": 0}, 0.5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            frequent_rare_split({"a": 1}, 1.0)

    @pytest.mark.parametrize("count", [float("nan"), -5, 2.7, float("inf")])
    def test_bad_count_names_the_class(self, count):
        with pytest.raises(ValidationError, match=f"^count of class 'b' must be an integer >= 0, "
                                                  f"got {count}$"):
            frequent_rare_split({"a": 10, "b": count}, 0.5)

    def test_integral_float_counts_count_as_integers(self):
        # labels.sum(axis=0) gives float counts
        floats = frequent_rare_split({"a": 3.0, "b": np.float64(1.0)}, 0.5)
        assert floats == frequent_rare_split({"a": 3, "b": 1}, 0.5)


class TestRunBenchmarkBasics:
    def test_base_row_equals_direct_composition(self):
        d = _tiny(60, 3)
        result = run_benchmark(d, m_bins=10, include_per_class=True)
        assert len(result.rows) == 1
        row = result.rows[0]
        probs = confidences(d)
        assert row.cmap == cmap(d, probs)
        direct = aggregate_multilabel(per_class_scores(d, probs, 10), scope="ds")
        assert row.scores.ece == direct.ece
        assert row.scores.mcs == direct.mcs
        assert row.n_samples == 60
        assert row.method == "base"
        assert len(row.per_class) == 3

    def test_curve_matches_pooled_binning(self):
        d = _tiny(60, 3)
        result = run_benchmark(d, m_bins=10)
        probs = confidences(d)
        direct = bin_class(probs.ravel(), d.labels.ravel(), 10)
        got = result.curves[0].curve
        for a, b in zip(got.bins, direct.bins):
            assert (a.count, a.conf, a.acc) == (b.count, b.conf, b.acc)

    @pytest.mark.parametrize(
        "kwargs, bound",
        [({}, 3.5),
         ({"split": SplitSpec("first-minutes", 200), "methods": [("ps", "per-class")]}, 4.0)],
        ids=["base", "ps-per-class"],
    )
    def test_peak_holds_one_whole_matrix_at_a_time(self, kwargs, bound):
        d, _ = generate(SynthConfig(n=20000, c=20, true_t=2.0, true_b=0.5, seed=1))
        tracemalloc.start()
        try:
            run_benchmark(d, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # each part's rows of every method's confidences and of the labels,
        # and the binning's one index matrix per chunk: about 3.1 and 3.6
        # times the logits; with a second index matrix per chunk the run
        # peaks at 4.1 and 4.5 times, and one that also keeps every
        # method's whole-dataset matrix for the scoring at 5.1 and 5.9
        assert peak < bound * d.logits.nbytes

    def test_methods_without_split_rejected(self):
        with pytest.raises(ValidationError, match="requires a calibration split"):
            run_benchmark(_tiny(10, 1), methods=[("ts", "global")])

    def test_no_datasets_rejected(self):
        with pytest.raises(ValidationError):
            run_benchmark([])

    def test_nan_probability_rejected(self):
        # the dataset refuses the cell, so no run gets to bin it
        d = _tiny(10, 2)
        probs = confidences(d).copy()
        probs[3, 1] = np.nan
        with pytest.raises(ValidationError, match=r"outside \[0, 1\] \(row 3, class c1\): nan$"):
            run_benchmark(dataclasses.replace(d, probs=probs))

    def test_frequent_rare_reweighting_consistency(self):
        d = _tiny(200, 6, seed=9)
        row = run_benchmark(d, m_bins=10).rows[0]
        total = row.scores.weight
        freq_w = row.frequent_scores.weight
        rare_w = row.rare_scores.weight if row.rare_scores else 0.0
        assert freq_w + rare_w == total
        rare_ece = row.rare_scores.ece if row.rare_scores else 0.0
        recombined = (freq_w * row.frequent_scores.ece + rare_w * rare_ece) / total
        assert recombined == pytest.approx(row.scores.ece, abs=1e-12)


class TestScopes:
    def test_all_scope_appears_with_two_datasets(self):
        a = _tiny(40, 2, dataset_id="A", seed=1)
        b = _tiny(30, 2, dataset_id="B", seed=2)
        rows = run_benchmark([a, b]).rows
        assert [r.scope for r in rows] == ["All", "A", "B"]
        assert rows[0].n_samples == 70

    def test_single_dataset_has_no_all_scope(self):
        rows = run_benchmark(_tiny(20, 2)).rows
        assert [r.scope for r in rows] == ["ds"]

    def test_dataset_named_all_alone_is_its_own_scope(self):
        rows = run_benchmark(_tiny(20, 2, dataset_id="All")).rows
        assert [r.scope for r in rows] == ["All"]

    def test_dataset_named_all_next_to_others_rejected(self):
        a = _tiny(20, 2, dataset_id="All", seed=1)
        b = _tiny(20, 2, dataset_id="B", seed=2)
        with pytest.raises(ValidationError, match="'All' is reserved"):
            run_benchmark([a, b])

    def test_merged_manifest_equals_separate_datasets(self):
        # one EvalDataset holding two dataset_ids == two EvalDataset objects
        a = _tiny(40, 2, dataset_id="A", seed=1)
        b = _tiny(30, 2, dataset_id="B", seed=2)
        merged = EvalDataset(
            a.classes,
            np.vstack([a.logits, b.logits]),
            np.vstack([a.labels, b.labels]),
            Manifest(
                a.meta.sample_id + b.meta.sample_id,
                a.meta.dataset_id + b.meta.dataset_id,
                np.concatenate([a.meta.start_s, b.meta.start_s]),
                np.concatenate([a.meta.duration_s, b.meta.duration_s]),
            ),
        )
        r1 = run_benchmark([a, b]).rows
        r2 = run_benchmark(merged).rows
        for x, y in zip(r1, r2):
            assert (x.scope, x.scores.ece, x.scores.mcs) == (y.scope, y.scores.ece, y.scores.mcs)

    def test_all_scope_pools_by_class_identity(self):
        a = _tiny(40, 2, dataset_id="A", seed=1)
        b = _tiny(30, 2, dataset_id="B", seed=2)
        rows = run_benchmark([a, b], m_bins=10).rows
        all_row = rows[0]
        # manual pooling: concatenate each class column across datasets
        pa, pb = confidences(a), confidences(b)
        per_class = []
        from mlcalib.metrics import ClassMetrics, average_precision

        for j, name in enumerate(a.classes):
            conf = np.concatenate([pa[:, j], pb[:, j]])
            lab = np.concatenate([a.labels[:, j], b.labels[:, j]])
            curve = bin_class(conf, lab, 10)
            n_pos = int(lab.sum())
            per_class.append(
                ClassMetrics(name, average_precision(conf, lab),
                             calibration_scores(curve, weight=n_pos), n_pos)
            )
        want = aggregate_multilabel(per_class, scope="All")
        assert all_row.scores.ece == want.ece
        assert all_row.scores.mcs == want.mcs
        assert all_row.cmap == float(np.mean([m.ap for m in per_class]))

    def test_mixed_class_pipeline_golden(self):
        # pins the bytes of every scope, the All scope's pooled curve
        # included, when the datasets' class tuples overlap but differ
        want = pathlib.Path(GOLDEN, "pipeline_report.json").read_bytes()
        assert _mixed_class_report() == want
        # fitted runs: the calibration blocks flatten (held-out, classes
        # differ) or stack (first-minutes, classes shared)
        want = pathlib.Path(GOLDEN, "pipeline_fit_reports.json").read_bytes()
        assert _fitted_reports() == want

    def test_mixed_class_csv_golden(self):
        # the --format csv rendering of the mixed-class run, plus a row whose
        # frequent and rare cells are null and whose improvement is a marker
        report = _mixed_class_run()
        marker = ReportRow(
            model="m", scope="s", method="ts/global", n_samples=6, cmap=None,
            scores=CalibrationScores.from_components(0.1, 0.0, scope="s", weight=10.0),
            rel_improvement_mcs=NOT_APPLICABLE,
        )
        _, text = emit_report(dataclasses.replace(report, rows=(*report.rows, marker)), "csv")
        want = pathlib.Path(GOLDEN, "report.csv").read_bytes()
        assert text.encode("utf-8") == want


def _fitted_reports() -> bytes:
    """Two fitted reports with per-class tables and params documents.

    First-minutes, ts/per-class and ps/global, over two datasets that share
    the classes ("x","y") and interleave scopes A and B.  Held-out B,
    ps/global, over datasets with classes ("x","y"), ("p","x","r") and
    ("x","y"), where B's rows sit in the second and third, so the global
    fit runs over one flattened column.  Logits carry 2 decimals; labels
    are drawn at sigmoid(z / 2 + 0.3)."""
    r = np.random.default_rng(11)

    def dataset(classes, ids):
        n, c = len(ids), len(classes)
        z = np.round(r.normal(scale=2.0, size=(n, c)), 2)
        labels = (r.random((n, c)) < 1.0 / (1.0 + np.exp(-(z / 2.0 + 0.3)))).astype(float)
        labels[0, :], labels[1, :] = 1.0, 0.0
        meta = Manifest(
            tuple(f"{ds}-{i}" for i, ds in enumerate(ids)), tuple(ids),
            5.0 * np.arange(n), np.full(n, 5.0),
        )
        return EvalDataset(classes, z, labels, meta)

    runs = [
        (
            [
                dataset(("x", "y"), ["A"] * 24),
                dataset(("x", "y"), ["B", "A", "B", "B", "A", "B"] * 4),
            ],
            SplitSpec(kind="first-minutes", minutes=0.5),
            [("ts", "per-class"), ("ps", "global")],
        ),
        (
            [
                dataset(("x", "y"), ["A"] * 12),
                dataset(("p", "x", "r"), ["B", "C"] * 7),
                dataset(("x", "y"), ["B", "A", "B", "A"] * 3),
            ],
            SplitSpec(kind="held-out-dataset", calib_dataset="B"),
            [("ps", "global")],
        ),
    ]
    docs = []
    for datasets, split, methods in runs:
        result = run_benchmark(
            datasets, m_bins=10, split=split, methods=methods,
            include_per_class=True, model_tag="golden",
        )
        params = {}
        for label, (p, trace) in result.params.items():
            params[label] = dict(p.to_json_dict(), trace=trace.to_json_dict())
        report = Report(
            config={"bins": 10}, rows=result.rows, curves=result.curves, params=params,
            split_summary=result.split_summary, version="0.0.0-test",
        )
        docs.append(report_to_dict(report))
    return (dumps_canonical(docs) + "\n").encode()


def _mixed_class_report() -> bytes:
    return (dumps_canonical(report_to_dict(_mixed_class_run())) + "\n").encode()


def _mixed_class_run() -> Report:
    """Evaluate-only report over three datasets with class tuples
    ("x","y"), ("p","x","r"), ("x","y"); the third interleaves its own scope
    C with rows of scope A.  Confidences are 2-decimal probabilities with
    bin edges mixed in, so the bytes depend on binning and summation only."""
    r = np.random.default_rng(7)
    edges = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])

    def dataset(classes, ids):
        n, c = len(ids), len(classes)
        probs = np.round(r.random((n, c)), 2)
        probs.flat[r.choice(n * c, size=4, replace=False)] = r.choice(edges, size=4)
        labels = (r.random((n, c)) < 0.4).astype(float)
        labels[0, :] = 1.0
        meta = Manifest(
            tuple(f"{ds}-{i}" for i, ds in enumerate(ids)), tuple(ids),
            5.0 * np.arange(n), np.full(n, 5.0),
        )
        return EvalDataset(classes, inverse_sigmoid(probs), labels, meta, probs=probs)

    datasets = [
        dataset(("x", "y"), ["A"] * 12),
        dataset(("p", "x", "r"), ["B"] * 9),
        dataset(("x", "y"), ["C", "A", "C", "C", "A", "C", "A", "C"]),
    ]
    result = run_benchmark(datasets, m_bins=10, include_per_class=True, model_tag="golden")
    return Report(
        config={"bins": 10}, rows=result.rows, curves=result.curves, params={},
        version="0.0.0-test",
    )


class TestHeldOutSplit:
    def test_calib_dataset_excluded_from_rows(self):
        a = _tiny(50, 2, dataset_id="A", seed=1)
        b = _tiny(50, 2, dataset_id="B", seed=2)
        result = run_benchmark(
            [a, b],
            split=SplitSpec(kind="held-out-dataset", calib_dataset="B"),
            methods=[("ts", "global")],
            fit_cfg=FitConfig(steps=50),
        )
        assert [r.scope for r in result.rows] == ["A", "A"]
        assert [r.method for r in result.rows] == ["base", "ts/global"]
        assert result.split_summary["n_calibration"] == 50
        assert result.split_summary["n_evaluation"] == 50

    def test_unknown_calib_dataset(self):
        with pytest.raises(ValidationError, match="not found"):
            run_benchmark(
                _tiny(10, 1),
                split=SplitSpec(kind="held-out-dataset", calib_dataset="nope"),
                methods=[("ts", "global")],
            )

    def test_holding_out_the_only_dataset(self):
        with pytest.raises(ValidationError, match="nothing left to evaluate"):
            run_benchmark(
                _tiny(10, 1),
                split=SplitSpec(kind="held-out-dataset", calib_dataset="ds"),
                methods=[("ts", "global")],
            )

    def test_global_fit_across_mismatched_classes(self):
        # different class vocabularies: only global fitting is possible,
        # via flattening each dataset onto its own classes
        a = _tiny(50, 2, dataset_id="A", seed=1, classes=("x", "y"))
        b = _tiny(50, 3, dataset_id="B", seed=2, classes=("p", "q", "r"))
        result = run_benchmark(
            [a, b],
            split=SplitSpec(kind="held-out-dataset", calib_dataset="B"),
            methods=[("ps", "global")],
            fit_cfg=FitConfig(steps=50),
        )
        params, _ = result.params["ps/global"]
        assert params.scope == "global"
        assert float(params.temperature) > 0

    def test_per_class_with_mismatched_classes_rejected(self):
        a = _tiny(50, 2, dataset_id="A", seed=1, classes=("x", "y"))
        b = _tiny(50, 3, dataset_id="B", seed=2, classes=("p", "q", "r"))
        with pytest.raises(ValidationError, match="per-class fitting requires matching classes"):
            run_benchmark(
                [a, b],
                split=SplitSpec(kind="held-out-dataset", calib_dataset="B"),
                methods=[("ps", "per-class")],
                fit_cfg=FitConfig(steps=50),
            )

    def test_per_class_with_matching_classes_allowed(self):
        a = _tiny(50, 2, dataset_id="A", seed=1)
        b = _tiny(50, 2, dataset_id="B", seed=2)
        result = run_benchmark(
            [a, b],
            split=SplitSpec(kind="held-out-dataset", calib_dataset="B"),
            methods=[("ps", "per-class")],
            fit_cfg=FitConfig(steps=50),
        )
        params, _ = result.params["ps/per-class"]
        assert params.tau.shape == (2,)


@pytest.fixture(scope="module")
def overconfident():
    cfg = SynthConfig(
        n=3000, c=4, true_t=1.0, true_b=-2.0, seed=5,
        latent=LatentSpec(means=(-1.0, 0.0, 0.5, 1.0), stddev=3.0),
    )
    ds, _ = generate(cfg)
    return ds


class TestFirstMinutesPipeline:
    def test_per_class_ps_cuts_mcs_by_ninety_percent(self, overconfident):
        result = run_benchmark(
            overconfident,
            split=SplitSpec(kind="first-minutes", minutes=10.0),
            methods=[("ps", "per-class")],
            fit_cfg=FitConfig(steps=10000),
        )
        base, calibrated = result.rows
        assert base.scores.mcs > 0  # overconfident by construction
        assert abs(calibrated.scores.mcs) <= 0.1 * abs(base.scores.mcs)
        assert calibrated.rel_improvement_mcs >= 90.0

    def test_base_on_remainder_close_to_full(self, overconfident):
        full = run_benchmark(overconfident).rows[0]
        remainder = run_benchmark(
            overconfident,
            split=SplitSpec(kind="first-minutes", minutes=10.0),
        ).rows[0]
        assert abs(full.scores.mcs - remainder.scores.mcs) <= 0.01

    def test_deterministic_end_to_end(self, overconfident):
        kwargs = dict(
            split=SplitSpec(kind="first-minutes", minutes=10.0),
            methods=[("ts", "global")],
            fit_cfg=FitConfig(steps=100),
        )
        r1 = run_benchmark(overconfident, **kwargs)
        r2 = run_benchmark(overconfident, **kwargs)
        for a, b in zip(r1.rows, r2.rows):
            assert a.scores.ece == b.scores.ece
            assert a.scores.mcs == b.scores.mcs
        p1, _ = r1.params["ts/global"]
        p2, _ = r2.params["ts/global"]
        assert np.array_equal(p1.tau, p2.tau)


class TestSplitSpecValidation:
    def test_first_minutes_needs_minutes(self):
        with pytest.raises(ValidationError):
            SplitSpec(kind="first-minutes")

    def test_held_out_needs_dataset(self):
        with pytest.raises(ValidationError):
            SplitSpec(kind="held-out-dataset")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SplitSpec(kind="bootstrap")


def _oracle_scopes(datasets, split: dict):
    """Each scope's name and (dataset index, evaluation rows) parts, in
    report order, under a split as run_benchmark's split_summary gives it."""
    by_id = {}
    for k, d in enumerate(datasets):
        if split.get("kind") == "first-minutes":
            evaluation = oracle_split_first_minutes(d, split["minutes"])[1].tolist()
        else:
            evaluation = [i for i, name in enumerate(d.meta.dataset_id)
                          if name != split.get("calib_dataset")]
        for ds_id in sorted({d.meta.dataset_id[i] for i in evaluation}):
            rows = [i for i in evaluation if d.meta.dataset_id[i] == ds_id]
            by_id.setdefault(ds_id, []).append((k, rows))
    scopes = [(ds_id, by_id[ds_id]) for ds_id in sorted(by_id)]
    if len(scopes) > 1:
        scopes.insert(0, ("All", [part for _, parts in scopes for part in parts]))
    return scopes


def _check_refusal(datasets, split, refused):
    """The oracle refuses the same run as run_benchmark, with the same
    ValidationError: the weighted aggregate of the first scope, in report
    order, whose evaluation rows hold no positive label."""
    with pytest.raises(ValidationError) as oracle:
        for scope, parts in _oracle_scopes(datasets, dataclasses.asdict(split)):
            n_pos = {}
            for k, rows in parts:
                for j, name in enumerate(datasets[k].classes):
                    n_pos[name] = n_pos.get(name, 0) + int(datasets[k].labels[rows, j].sum())
            oracle_weighted_scores([(n, 0.0, 0.0) for n in n_pos.values()], scope)
    assert str(refused) == str(oracle.value)


def _check_against_oracles(datasets, result, m_bins):
    """Every row and curve of a per-class run_benchmark result against the
    loop oracles, computed scope by scope from the datasets: a dataset_id
    scope holds its evaluation rows in dataset order (those of
    oracle_split_first_minutes for a first-minutes split, the rows of
    every other dataset_id for a held-out one), "All" holds the dataset_id
    scopes in sorted order, and a class's column concatenates its rows.
    A row's aggregates come from the oracle's per-class numbers in the
    row's class order, its subsets from run_benchmark's default target
    fraction, 0.5, and a fit's |MCS| improvement from the oracle's Base
    MCS of the same scope; every comparison is exact."""
    scopes = _oracle_scopes(datasets, result.split_summary or {})
    confs = {"base": [confidences(d) for d in datasets]}
    for label, (params, _) in result.params.items():
        confs[label] = [apply_scaling(d.logits, params) for d in datasets]
    want_order = [(scope, label) for scope, _ in scopes for label in confs]
    assert [(r.scope, r.method) for r in result.rows] == want_order
    assert [(c.scope, c.method) for c in result.curves] == want_order
    base_mcs = {}  # scope -> the oracle's MCS of its Base row, which comes first
    for row, entry in zip(result.rows, result.curves):
        parts = dict(scopes)[row.scope]
        chunks = [
            (datasets[k].classes, confs[row.method][k][rows], datasets[k].labels[rows])
            for k, rows in parts
        ]
        assert row.n_samples == sum(len(rows) for _, rows in parts)
        names = list(dict.fromkeys(n for classes, _, _ in chunks for n in classes))
        assert [m.class_id for m in row.per_class] == names
        aps = []
        classes = {}  # class_id -> the oracle's (n_pos, ocs, ucs), in row order
        for got in row.per_class:
            cols = [(c[:, cl.index(got.class_id)], y[:, cl.index(got.class_id)])
                    for cl, c, y in chunks if got.class_id in cl]
            conf = np.concatenate([c for c, _ in cols])
            labels = np.concatenate([y for _, y in cols])
            want, _ = oracle_bin_sums_scores(conf, labels, m_bins)
            assert (got.scores.ocs, got.scores.ucs) == (want["ocs"], want["ucs"])
            assert got.ap == oracle_average_precision(conf, labels)
            n_pos = int(labels.sum())
            assert got.n_pos == n_pos
            classes[got.class_id] = (n_pos, want["ocs"], want["ucs"])
            if got.ap is not None:
                aps.append(got.ap)
        assert row.cmap == (float(np.mean(aps)) if aps else None)
        overall = oracle_weighted_scores(classes.values(), row.scope)
        assert dataclasses.asdict(row.scores) == overall
        frequent, rare, k, mass = oracle_frequent_rare(
            {name: n_pos for name, (n_pos, _, _) in classes.items()}, 0.5)
        assert (row.frequent_classes, row.frequent_k, row.frequent_mass_fraction,
                row.rare_classes) == (frequent, k, mass, rare)
        subset = {side: oracle_weighted_scores(
            [t for name, t in classes.items() if name in picked], f"{row.scope}:{side}")
            for side, picked in (("frequent", frequent), ("rare", rare)) if picked}
        assert dataclasses.asdict(row.frequent_scores) == subset["frequent"]
        assert (row.rare_scores and dataclasses.asdict(row.rare_scores)) == subset.get("rare")
        if row.method == "base":
            base_mcs[row.scope] = overall["mcs"]
            assert (row.rel_improvement_mcs, row.params_ref) == (None, None)
        else:
            rel = oracle_relative_improvement(base_mcs[row.scope], overall["mcs"])
            assert row.rel_improvement_mcs == (NOT_APPLICABLE if rel is None else rel)
            assert row.params_ref == row.method
        # the pooled curve adds each chunk's row-major sums in chunk order
        sums = [oracle_bin_sums(c.ravel(), y.ravel(), m_bins) for _, c, y in chunks]
        for m, b in enumerate(entry.curve.bins):
            count, conf_sum, pos_sum = (s[m] for s in sums[0])
            for counts, conf_sums, pos_sums in sums[1:]:
                count, conf_sum, pos_sum = (
                    count + counts[m], conf_sum + conf_sums[m], pos_sum + pos_sums[m])
            assert b.count == count
            want = (conf_sum / count, pos_sum / count) if count else (None, None)
            assert (b.conf, b.acc) == want


# clip durations and first-minutes windows, in multiples of 1/64 s: every
# running total is exact, so clips often start right at a window's end
_CLIP_GRID = [0.25, 0.46875, 0.9375, 1.875]
_SPLITS = [SplitSpec("held-out-dataset", calib_dataset="cal"),
           *(SplitSpec("first-minutes", minutes=m) for m in (1 / 64, 1 / 32, 1 / 16, 1 / 8))]


@st.composite
def _scoped_datasets(draw):
    """One to three datasets whose rows interleave one to four dataset_ids
    plus "cal", with one to five classes in tuples that differ or, when so
    drawn, one tuple that all share.  Confidences are verbatim
    probabilities from a grid with ties, 0.0, 1.0 and bin edges.  With
    ``separable`` the "cal" rows are labelled by the sign of their logits,
    so a held-out fit ends at T_MIN and maps most evaluation cells to
    exactly 0 or 1, creating ties that Base does not have.  A dataset may
    hold one degenerate column: a class with no positive, no negative, or
    one confidence throughout.  Each dataset_id's rows end with an 8 s clip
    and then one positive, which every split of _SPLITS evaluates, for the
    first class that is not drawn to hold no positive.  Sometimes some
    dataset_ids are silent: their rows hold no positive, so their scopes,
    and All if every id is silent, have none."""
    ids = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
    separable = draw(st.booleans())
    shared = draw(st.booleans())
    silent = set(draw(st.lists(st.sampled_from(ids), max_size=2))) if draw(
        st.integers(0, 3)) == 0 else set()
    grid = [0.0, 0.1, 0.2, 1 / 3, 0.4, 0.5, 2 / 3, 0.7, 0.8, 0.9, 1.0]
    datasets = []
    for k in range(draw(st.integers(1, 3))):
        if k == 0 or not shared:
            classes = tuple(draw(st.permutations("abcde"))[: draw(st.integers(1, 5))])
        rows = draw(st.lists(st.sampled_from([*ids, "cal"]), min_size=1, max_size=12))
        if k == 0:
            rows += ids + ["cal", "cal"]  # every id has rows, and the fit both labels
        names = sorted(set(rows))
        rows += names + names  # each name's 8 s clip, then its last clip
        n, c, tail = len(rows), len(classes), len(names)
        probs = np.array(draw(st.lists(st.sampled_from(grid), min_size=n * c, max_size=n * c)))
        probs = probs.reshape(n, c)
        labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * c,
                                        max_size=n * c))).reshape(n, c)
        degenerate = draw(st.sampled_from([None, None, "no-positive", "no-negative", "constant"]))
        column = draw(st.integers(0, c - 1))
        if degenerate == "constant":
            probs[:, column] = draw(st.sampled_from(grid))
        logits = inverse_sigmoid(probs)
        cal = np.array(rows) == "cal"
        if separable:
            labels[cal] = (logits[cal] > 0).astype(float)
        if k == 0:
            pair = slice(n - 2 * tail - 2, n - 2 * tail)  # the two "cal" rows added above
            labels[pair, 0], logits[pair, 0], probs[pair, 0] = (1.0, 0.0), (2.0, -2.0), (1.0, 0.0)
        if degenerate in ("no-positive", "no-negative"):
            labels[:, column] = float(degenerate == "no-negative")
        first = next((j for j in range(c) if (degenerate, j) != ("no-positive", column)), None)
        if first is not None:
            labels[n - tail :, first] = 1.0  # a positive in every scope
        labels[np.isin(rows, list(silent))] = 0.0
        durations = np.array(draw(st.lists(st.sampled_from(_CLIP_GRID), min_size=n, max_size=n)))
        durations[n - 2 * tail : n - tail] = 8.0  # longer than any window of _SPLITS
        meta = Manifest(tuple(f"s{i}" for i in range(n)), tuple(rows),
                        np.arange(n, dtype=float), durations)
        datasets.append(EvalDataset(classes, logits, labels, meta, probs=probs))
    return datasets


@settings(max_examples=60, deadline=None)
@given(
    datasets=_scoped_datasets(),
    m_bins=st.sampled_from([1, 2, 3, 5, 10]),
    method=st.sampled_from(["ts", "ps"]),
    split=st.sampled_from(_SPLITS),
    per_class=st.booleans(),
)
def test_run_benchmark_matches_oracles_scope_by_scope(datasets, m_bins, method, split,
                                                      per_class):
    # a per-class fit needs one class tuple across the datasets
    scope = "per-class" if per_class and len({d.classes for d in datasets}) == 1 else "global"
    try:
        result = run_benchmark(datasets, m_bins=m_bins, split=split, methods=[(method, scope)],
                               include_per_class=True)
    except ValidationError as exc:  # a scope without positives, until it can be scored
        _check_refusal(datasets, split, exc)
        return
    _check_against_oracles(datasets, result, m_bins)


@pytest.mark.parametrize("separable, sorts", [
    (True, [(6,), (6,), (3,), (3,), (3,)]),
    (False, [(6,), (3,), (3,)]),
], ids=["separable", "not-separable"])
def test_fitted_order_reuse_and_fallback(monkeypatch, separable, sorts):
    # held-out "cal" rows labelled by the sign of their logits make the fit
    # end at T_MIN: evaluation logits above about 0.04 all map to 1.0, and
    # those new ties sit in descending position in Base's order, so a
    # fitted column holding them is sorted again.  Otherwise Base's order
    # is reused.
    z = np.array([[0.5, -1.0], [2.0, 1.0], [1.0, 3.0], [-0.7, 0.2], [3.0, -2.0], [-3.0, 2.5],
                  [1.5, -1.5], [-1.5, 1.5], [0.3, 0.6], [-0.3, -0.6]])
    y = np.array([[1, 0], [1, 1], [0, 1], [0, 0], [1, 0], [0, 1], [1, 0], [0, 1],
                  [0, 1], [1, 0]], dtype=float)
    y[6:] = (z[6:] > 0) if separable else [[1, 0], [1, 0], [0, 1], [1, 1]]
    rows = ("p", "q", "p", "q", "p", "q", "cal", "cal", "cal", "cal")
    d = EvalDataset(("a", "b"), z, y, Manifest(tuple(f"s{i}" for i in range(10)), rows,
                                               np.arange(10.0), np.ones(10)))
    calls = []  # the length of each column a block sort ranks

    def counted(block):
        calls.extend([block.shape[1:]] * block.shape[0])
        return descending(block)

    descending = metrics._descending
    monkeypatch.setattr(metrics, "_descending", counted)
    result = run_benchmark(d, m_bins=5, split=SplitSpec("held-out-dataset", calib_dataset="cal"),
                           methods=[("ts", "global")], include_per_class=True)
    t = float(result.params["ts/global"][0].temperature)
    assert (t == pytest.approx(T_MIN)) == separable
    # per class, one sort of each scope's column (All: 6 rows, p and q: 3
    # each), plus each fallback: the fitted All column, and the one 3-row
    # scope whose three fitted 1.0s tie (p for class a, q for class b).  A
    # block ranks a scope's classes together, so the order is the blocks'.
    assert sorted(calls) == sorted(sorts * 2)
    _check_against_oracles([d], result, 5)


@settings(max_examples=40, deadline=None)
@given(
    datasets=_scoped_datasets(),
    m_bins=st.sampled_from([1, 3, 10]),
    block_cells=st.sampled_from([1, 4, 16, 40]),
)
def test_small_blocks_of_mixed_class_datasets_match_oracles(datasets, m_bins, block_cells):
    # datasets of different class sets: a scope's classes fall into groups
    # of the chunks that hold them, each ranked in blocks of a few cells,
    # and each chunk is binned a few cells at a time
    assume(len({frozenset(d.classes) for d in datasets}) > 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BLOCK_CELLS", block_cells)
        try:
            result = run_benchmark(datasets, m_bins=m_bins, split=_SPLITS[0],
                                   methods=[("ts", "global")], include_per_class=True)
        except ValidationError as exc:  # a scope without positives
            _check_refusal(datasets, _SPLITS[0], exc)
            return
    _check_against_oracles(datasets, result, m_bins)


def test_small_blocks_mixing_kept_and_stable_orders_match_oracles(monkeypatch):
    # blocks of two classes (four in a one-site scope), each holding columns
    # of distinct confidences, whose default order is kept, and columns of
    # ties and of -0.0 next to 0.0, which the default argsort breaks the
    # other way
    rng = np.random.default_rng(7)
    n, c = 60, 6
    probs = rng.random((n, c))
    probs[:, 1::2] = rng.choice([0.0, -0.0, 0.25, 0.5], size=(n, c // 2))
    labels = (rng.random((n, c)) < 0.4).astype(float)
    labels[:3] = 1.0  # a positive of every class in every scope
    rows = ("p", "q", "cal") * (n // 3)
    d = EvalDataset(tuple("abcdef"), inverse_sigmoid(probs), labels,
                    Manifest(tuple(f"s{i}" for i in range(n)), rows, np.arange(float(n)),
                             np.ones(n)), probs=probs)
    kept = []
    keeps_order = metrics._keeps_order

    def recorded(block, order):
        kept.append(keeps_order(block, order))
        return kept[-1]

    monkeypatch.setattr(metrics, "_keeps_order", recorded)
    monkeypatch.setattr(metrics, "_BLOCK_CELLS", 2 * 40)  # All: 40 evaluation rows
    result = run_benchmark(d, m_bins=5, split=SplitSpec("held-out-dataset", calib_dataset="cal"),
                           methods=[("ts", "global")], include_per_class=True)
    assert any(k.any() and not k.all() for k in kept)
    _check_against_oracles([d], result, 5)
