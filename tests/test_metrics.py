import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlcalib import metrics
from mlcalib.core import EvalDataset, Manifest, ValidationError
from mlcalib.metrics import (
    CalibrationScores,
    ClassMetrics,
    aggregate_multilabel,
    average_precision,
    bin_class,
    calibration_scores,
    cmap,
    per_class_scores,
    pooled_reliability,
    score_scopes,
)

import oracles


def _dataset(probs, labels):
    n, c = probs.shape
    meta = Manifest(
        sample_id=tuple(f"s{i}" for i in range(n)),
        dataset_id=("ds",) * n,
        start_s=5.0 * np.arange(n),
        duration_s=np.full(n, 5.0),
    )
    classes = tuple(f"c{j}" for j in range(c))
    logits = np.where(probs <= 0, -40.0, np.where(probs >= 1, 40.0, 0.0))
    return EvalDataset(classes=classes, logits=logits, labels=labels, meta=meta, probs=probs)


class TestBinning:
    def test_two_bin_worked_example(self):
        curve = bin_class([0.2, 0.3, 0.8, 0.9], [0, 1, 1, 1], 2)
        lo, hi = curve.bins
        assert (lo.count, lo.conf, lo.acc) == (2, 0.25, 0.5)
        assert (hi.count, hi.acc) == (2, 1.0)
        assert hi.conf == pytest.approx(0.85)
        scores = calibration_scores(curve)
        assert scores.ece == pytest.approx(0.20)
        assert scores.mcs == pytest.approx(-0.20)

    def test_last_bin_closed_at_one(self):
        curve = bin_class([1.0], [1], 10)
        assert curve.bins[-1].count == 1

    def test_zero_lands_in_first_bin(self):
        curve = bin_class([0.0], [0], 10)
        assert curve.bins[0].count == 1

    def test_boundary_goes_to_upper_bin(self):
        # bins are [lower, upper), so 0.5 with M=2 belongs to the second bin
        curve = bin_class([0.5], [0], 2)
        assert curve.bins[1].count == 1

    def test_single_bin(self):
        curve = bin_class([0.1, 0.9], [0, 1], 1)
        assert curve.bins[0].count == 2
        assert curve.bins[0].conf == pytest.approx(0.5)

    def test_empty_bins_have_no_summaries(self):
        curve = bin_class([0.95], [1], 15)
        assert sum(1 for b in curve.bins if b.count > 0) == 1
        empty = curve.bins[0]
        assert empty.count == 0 and empty.conf is None and empty.acc is None

    def test_indices_and_edges(self):
        curve = bin_class([0.5], [0], 4)
        assert [b.index for b in curve.bins] == [1, 2, 3, 4]
        assert curve.bins[0].lower == 0.0 and curve.bins[-1].upper == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            bin_class([1.2], [0], 5)

    @pytest.mark.parametrize("call", ["bin_class", "per_class_scores", "pooled_reliability",
                                      "score_scopes"])
    def test_rejects_nan_confidence(self, call):
        # NaN fails every comparison, so a range test written as "below 0 or
        # above 1" would let it through to count toward n and no bin's gap
        probs = np.array([[0.2, 0.9], [np.nan, 0.4]])
        labels = np.array([[0.0, 1.0], [1.0, 0.0]])
        # the dataset refuses a NaN probability, so it holds 0.5 there, and
        # each call is handed the NaN matrix as its confidences
        d = _dataset(np.nan_to_num(probs, nan=0.5), labels)
        # the library entries name the cell; the kernel's own guard does not
        cell = r"probability outside \[0, 1\] \(row 1, class c0\): nan$"
        binning = {
            "bin_class": (lambda: bin_class(probs[:, 0], labels[:, 0], 5),
                          r"probability outside \[0, 1\] \(row 1\): nan$"),
            "per_class_scores": (lambda: per_class_scores(d, probs, 5), cell),
            "pooled_reliability": (lambda: pooled_reliability(d, probs, 5), cell),
            "score_scopes": (lambda: score_scopes([(d.classes, labels, [probs])],
                                                  [("pooled", 0, 1)], 5),
                             r"confidences must lie in \[0, 1\]"),
        }
        run, message = binning[call]
        with pytest.raises(ValidationError, match=message):
            run()

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            bin_class([0.5], [0], 0)

    @pytest.mark.parametrize("m_bins", [2.5, 3.0, True, np.True_, np.float64(3.0), "3", None],
                             ids=repr)
    def test_rejects_non_integer_m(self, m_bins):
        # a bool is no bin count either, Python's or numpy's
        want = re.escape(f"M must be an integer, got {m_bins!r}") + "$"
        with pytest.raises(ValidationError, match=want):
            bin_class([0.5], [1], m_bins)

    def test_numpy_integer_m(self):
        assert bin_class([0.5], [1], np.int64(3)) == bin_class([0.5], [1], 3)

    def test_scores_on_empty_curve_rejected(self):
        curve = bin_class(np.array([]), np.array([]), 5)
        with pytest.raises(ValidationError, match="empty scope"):
            calibration_scores(curve)


# each cell that is bad somewhere: as a label, as a probability, as a score
BAD_CELLS = [2.0, -1.0, 0.5, np.nan, np.inf, -np.inf]


class TestEntriesCheckCells:
    """Each library entry names the first bad cell of its scores or labels,
    the same rule as EvalDataset's: labels 0 or 1, confidences in [0, 1]
    and AP scores finite."""

    @pytest.mark.parametrize("value", BAD_CELLS)
    @pytest.mark.parametrize("entry", ["average_precision", "bin_class"])
    def test_bad_label(self, entry, value):
        call = average_precision if entry == "average_precision" else (
            lambda s, y: bin_class(s, y, 5))
        want = re.escape(f"non-binary label (row 2): {value!r}") + "$"
        with pytest.raises(ValidationError, match=want):
            call([0.9, 0.5, 0.1], [0.0, 1.0, value])

    @pytest.mark.parametrize("scores, labels, name", [
        (["a", "b"], [0, 1], "scores"),
        ([[0.5, 0.1], [0.2]], [0, 1], "scores"),
        ([0.5, 0.1], ["x", 1], "labels"),
        ([0.5, 0.1], [[0], [1, 0]], "labels"),
    ])
    def test_names_the_argument_that_is_no_array_of_numbers(self, scores, labels, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an array of numbers: "):
            average_precision(scores, labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ap_score(self, value):
        with pytest.raises(ValidationError, match=re.escape("non-finite value (row 1)") + "$"):
            average_precision([0.9, value, 0.1], [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("value", [2.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["bin_class", "cmap", "per_class_scores",
                                       "pooled_reliability"])
    def test_bad_confidence(self, entry, value):
        labels = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = _dataset(np.array([[0.2, 0.9], [0.6, 0.4]]), labels)
        probs = np.array([[0.2, 0.9], [0.6, value]])  # the bad cell: row 1, class c1
        calls = {
            "bin_class": lambda: bin_class(probs[:, 1], labels[:, 1], 5),
            "cmap": lambda: cmap(d, probs),
            "per_class_scores": lambda: per_class_scores(d, probs, 5),
            "pooled_reliability": lambda: pooled_reliability(d, probs, 5),
        }
        at = "(row 1)" if entry == "bin_class" else "(row 1, class c1)"
        want = re.escape(f"probability outside [0, 1] {at}: {value!r}") + "$"
        with pytest.raises(ValidationError, match=want):
            calls[entry]()


class TestAveragePrecision:
    def test_worked_example(self):
        ap = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_no_positives_is_none(self):
        assert average_precision([0.5, 0.4], [0, 0]) is None

    def test_ties_broken_by_original_index(self):
        # two tied scores: the earlier row ranks first, so AP is decided
        ap = average_precision([0.5, 0.5], [0, 1])
        assert ap == pytest.approx(0.5)
        ap2 = average_precision([0.5, 0.5], [1, 0])
        assert ap2 == pytest.approx(1.0)

    def test_exact_monotone_rescale_is_invariant(self, rng):
        # halving is exact in binary floating point, so ranking and AP
        # survive bit-for-bit even through ties
        scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=200)
        labels = (rng.random(200) < 0.3).astype(float)
        if labels.sum() == 0:
            labels[0] = 1.0
        assert average_precision(scores, labels) == average_precision(0.5 * scores, labels)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            average_precision([0.5], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            average_precision([], [])


class TestCmap:
    def test_skips_positive_free_classes(self, rng):
        probs = rng.random((50, 3))
        labels = np.zeros((50, 3))
        labels[:10, 0] = 1.0
        labels[:5, 1] = 1.0
        d = _dataset(probs, labels)
        expected = np.mean(
            [
                average_precision(probs[:, 0], labels[:, 0]),
                average_precision(probs[:, 1], labels[:, 1]),
            ]
        )
        assert cmap(d, probs) == pytest.approx(float(expected))

    def test_undefined_without_any_positive(self, rng):
        probs = rng.random((10, 2))
        d = _dataset(probs, np.zeros((10, 2)))
        with pytest.raises(ValidationError, match="cmAP undefined"):
            cmap(d, probs)


class TestScores:
    def test_identities_exact_by_construction(self, rng):
        conf = rng.random(500)
        labels = (rng.random(500) < conf).astype(float)
        s = calibration_scores(bin_class(conf, labels, 15))
        assert s.ece == s.ocs + s.ucs
        assert s.mcs == s.ocs - s.ucs
        assert abs(s.mcs) <= s.ece

    def test_from_components_rejects_negative(self):
        with pytest.raises(ValidationError):
            CalibrationScores.from_components(-0.1, 0.0)

    def test_published_row_consistency(self):
        # identity check on percent-scale table rows
        s = CalibrationScores.from_components(4.84, 0.41)
        assert s.ece == pytest.approx(5.25, abs=0.01)
        assert s.mcs == pytest.approx(4.43, abs=0.01)
        s2 = CalibrationScores.from_components(7.32, 0.30)
        assert s2.ece == pytest.approx(7.62, abs=0.01)

    def test_overconfident_sign(self):
        # confidences high, labels all negative -> conf > acc -> MCS > 0
        s = calibration_scores(bin_class([0.9, 0.8], [0, 0], 5))
        assert s.mcs > 0 and s.ucs == 0.0 and s.ece == s.ocs


class TestAggregation:
    def test_weighted_mean_example(self):
        a = ClassMetrics("a", None, CalibrationScores.from_components(0.1, 0.0, weight=4), 4)
        b = ClassMetrics("b", None, CalibrationScores.from_components(0.3, 0.0, weight=1), 1)
        agg = aggregate_multilabel([a, b])
        assert agg.ece == pytest.approx(0.14)
        assert agg.weight == 5.0

    def test_identities_survive_aggregation(self, rng):
        per_class = []
        for j in range(7):
            conf = rng.random(100)
            labels = (rng.random(100) < 0.4).astype(float)
            curve = bin_class(conf, labels, 10)
            n_pos = int(labels.sum())
            per_class.append(
                ClassMetrics(f"c{j}", None, calibration_scores(curve, weight=n_pos), n_pos)
            )
        agg = aggregate_multilabel(per_class)
        assert agg.ece == agg.ocs + agg.ucs
        assert agg.mcs == agg.ocs - agg.ucs

    def test_zero_weight_classes_drop_out(self):
        a = ClassMetrics("a", None, CalibrationScores.from_components(0.2, 0.0, weight=3), 3)
        b = ClassMetrics("b", None, CalibrationScores.from_components(0.9, 0.0, weight=0), 0)
        agg = aggregate_multilabel([a, b])
        assert agg.ece == pytest.approx(0.2)

    def test_all_empty_rejected(self):
        b = ClassMetrics("b", None, CalibrationScores.from_components(0.9, 0.0, weight=0), 0)
        with pytest.raises(ValidationError):
            aggregate_multilabel([b])

    def test_no_classes_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_multilabel([])


class TestPooled:
    def test_equals_binning_the_raveled_matrix(self, rng):
        probs = rng.random((40, 3))
        labels = (rng.random((40, 3)) < probs).astype(float)
        d = _dataset(probs, labels)
        pooled = pooled_reliability(d, probs, 10)
        direct = bin_class(probs.ravel(), labels.ravel(), 10)
        assert pooled.n == direct.n == 120
        for a, b in zip(pooled.bins, direct.bins):
            assert (a.count, a.conf, a.acc) == (b.count, b.conf, b.acc)


class TestOracleAgreement:
    """Bit-for-bit equality against the loop-based oracle implementations."""

    def test_binning_matches_oracle_bitwise(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 51))
            m = int(rng.choice([1, 2, 5, 15]))
            conf = rng.random(n)
            labels = (rng.random(n) < 0.5).astype(float)
            curve = bin_class(conf, labels, m)
            bins, total = oracles.oracle_curve(conf, labels, m)
            assert curve.n == total
            for got, want in zip(curve.bins, bins):
                assert got.count == want["count"]
                assert got.conf == want["conf"]
                assert got.acc == want["acc"]

    def test_scores_match_oracle_bitwise(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 51))
            conf = rng.random(n)
            labels = (rng.random(n) < 0.4).astype(float)
            curve = bin_class(conf, labels, 15)
            scores = calibration_scores(curve)
            want, _ = oracles.oracle_bin_sums_scores(conf, labels, 15)
            assert scores.ece == want["ece"]
            assert scores.mcs == want["mcs"]
            assert scores.ocs == want["ocs"]
            assert scores.ucs == want["ucs"]

    def test_scope_chunks_match_oracle_bitwise(self, rng):
        # classes overlap across chunks: a class's column is its chunks'
        # columns in order; the pooled curve adds per-chunk row-major sums
        for _ in range(30):
            chunks = []
            for _ in range(int(rng.integers(1, 4))):
                classes = tuple(rng.choice(list("abcd"), size=int(rng.integers(1, 4)), replace=False))
                n = int(rng.integers(1, 20))
                conf = rng.random((n, len(classes)))
                labels = (rng.random((n, len(classes))) < 0.4).astype(float)
                chunks.append((classes, conf, labels))
            m = int(rng.choice([1, 2, 5, 15]))
            [[(per_class, pooled)]] = score_scopes([(cl, y, [c]) for cl, c, y in chunks],
                                                   [("pooled", 0, len(chunks))], m)
            for got in per_class:
                cols = [(c[:, cl.index(got.class_id)], y[:, cl.index(got.class_id)])
                        for cl, c, y in chunks if got.class_id in cl]
                conf = np.concatenate([c for c, _ in cols])
                labels = np.concatenate([y for _, y in cols])
                want, _ = oracles.oracle_bin_sums_scores(conf, labels, m)
                assert (got.scores.ocs, got.scores.ucs) == (want["ocs"], want["ucs"])
                assert got.ap == oracles.oracle_average_precision(conf, labels)
                assert got.n_pos == int(labels.sum())
            sums = [oracles.oracle_bin_sums(c.ravel(), y.ravel(), m) for _, c, y in chunks]
            for j, b in enumerate(pooled.bins):
                count, conf_sum, pos_sum = sums[0][0][j], sums[0][1][j], sums[0][2][j]
                for counts, conf_sums, pos_sums in sums[1:]:
                    count += counts[j]
                    conf_sum += conf_sums[j]
                    pos_sum += pos_sums[j]
                assert b.count == count
                if count:
                    assert (b.conf, b.acc) == (conf_sum / count, pos_sum / count)

    def test_ap_matches_oracle_bitwise(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 51))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # force ties
            labels = (rng.random(n) < 0.5).astype(float)
            assert average_precision(scores, labels) == oracles.oracle_average_precision(
                scores, labels
            )


@settings(max_examples=200, deadline=None)
@given(
    conf=hnp.arrays(
        np.float64,
        st.integers(1, 60),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    ),
    m_bins=st.sampled_from([1, 2, 5, 10, 15]),
    data=st.data(),
)
def test_score_identities_property(conf, m_bins, data):
    labels = np.array(
        data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(conf), max_size=len(conf))),
        dtype=np.float64,
    )
    s = calibration_scores(bin_class(conf, labels, m_bins))
    assert s.ece == s.ocs + s.ucs
    assert s.mcs == s.ocs - s.ucs
    assert abs(s.mcs) <= s.ece
    assert 0.0 <= s.ece <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 80),
    seed=st.integers(0, 2**31 - 1),
    m_bins=st.sampled_from([5, 15]),
)
def test_binning_permutation_invariance(n, seed, m_bins):
    # bin membership is order-free; summed conf/acc may differ only by
    # accumulation order, so equality is to rounding, not bitwise
    r = np.random.default_rng(seed)
    conf = r.random(n)
    labels = (r.random(n) < 0.5).astype(float)
    perm = r.permutation(n)
    a = bin_class(conf, labels, m_bins)
    b = bin_class(conf[perm], labels[perm], m_bins)
    for x, y in zip(a.bins, b.bins):
        assert x.count == y.count
        if x.count:
            assert x.conf == pytest.approx(y.conf, abs=1e-12)
            assert x.acc == pytest.approx(y.acc, abs=1e-12)


def test_bin_index_is_the_binary_search():
    # every bin count, at every edge, one ulp either side of it, at 0 and
    # at 1: the last of the edges not above the cell, the last bin closed
    for m in range(1, metrics.MAX_BINS + 1):
        edges = metrics._bin_edges(m)
        cells = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        cells = np.append(cells[(cells >= 0.0) & (cells <= 1.0)], [0.0, 1.0])
        want = np.clip(np.searchsorted(edges, cells, side="right") - 1, 0, m - 1)
        np.testing.assert_array_equal(metrics._bin_index(cells, m), want, err_msg=f"M={m}")


_TIES = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 5e-324, np.nan])


@settings(max_examples=200, deadline=None)
@given(scores=hnp.arrays(np.float64, st.integers(0, 300),
                         elements=st.one_of(_TIES, st.floats(allow_nan=True))))
def test_descending_is_the_stable_argsort(scores):
    # forced ties: repeated values, -0.0 next to 0.0, and NaN; the default
    # argsort breaks ties either way, so both the kept and the redone order
    # are reached.  The scores are a block of one row.
    want = np.argsort(-scores, kind="stable")
    np.testing.assert_array_equal(metrics._descending(scores[None]), want[None])
