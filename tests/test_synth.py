import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcalib import synth
from mlcalib.core import (Manifest, ValidationError, confidences, dumps_canonical, load_dataset,
                          sigmoid)
from mlcalib.metrics import aggregate_multilabel, per_class_scores, pooled_reliability, calibration_scores
from mlcalib.synth import LatentSpec, SynthConfig, generate, latent_means, write_fixture


def _analytic_prevalence(mean, sd, t, b):
    """E[sigmoid((mean + sd*x)/t + b)] for x ~ N(0,1), by quadrature."""
    from scipy.integrate import quad
    from scipy.stats import norm

    val, _ = quad(lambda x: sigmoid((mean + sd * x) / t + b) * norm.pdf(x), -12, 12)
    return float(val)


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        cfg = SynthConfig(n=500, c=3, true_t=2.0, true_b=0.5, seed=42)
        d1, t1 = generate(cfg)
        d2, t2 = generate(cfg)
        assert np.array_equal(d1.logits, d2.logits)
        assert np.array_equal(d1.labels, d2.labels)
        assert t1 == t2

    def test_different_seed_different_draws(self):
        d1, _ = generate(SynthConfig(n=100, c=2, seed=1))
        d2, _ = generate(SynthConfig(n=100, c=2, seed=2))
        assert not np.array_equal(d1.logits, d2.logits)

    def test_counter_based_prefix_property(self):
        # the first rows of a longer run equal the shorter run exactly
        small, _ = generate(SynthConfig(n=50, c=4, seed=7))
        large, _ = generate(SynthConfig(n=200, c=4, seed=7))
        assert np.array_equal(large.logits[:50], small.logits)
        assert np.array_equal(large.labels[:50], small.labels)


class TestShape:
    def test_layout_and_names(self):
        d, truth = generate(SynthConfig(n=12, c=3, dataset_id="demo"))
        assert d.n == 12 and d.c == 3
        assert d.classes == ("class_000", "class_001", "class_002")
        assert d.meta.sample_id[0] == "demo-000000"
        assert d.meta.start_s[3] == 15.0
        assert d.meta.duration_s[3] == 5.0
        assert set(np.unique(d.labels)) <= {0.0, 1.0}
        assert truth["true_T"] == [1.0, 1.0, 1.0]

    def test_seed_derived_means_in_documented_range(self):
        m = latent_means(SynthConfig(n=1, c=64, seed=3))
        assert m.shape == (64,)
        assert np.all(m >= -3.0) and np.all(m <= 1.0)

    def test_explicit_means_and_vector_stddev(self):
        cfg = SynthConfig(
            n=2000, c=2, seed=0,
            latent=LatentSpec(means=(-1.0, 2.0), stddev=(0.5, 3.0)),
        )
        d, truth = generate(cfg)
        assert truth["latent_means"] == [-1.0, 2.0]
        assert d.logits[:, 0].std() < d.logits[:, 1].std()
        assert abs(d.logits[:, 0].mean() + 1.0) < 0.1

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n=0, c=1)
        with pytest.raises(ValidationError):
            SynthConfig(n=1, c=0)
        with pytest.raises(ValidationError):
            SynthConfig(n=1, c=1, true_t=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(n=1, c=1, clip_duration_s=0.0)
        with pytest.raises(ValidationError):
            generate(SynthConfig(n=1, c=2, true_b=(0.0, 1.0, 2.0)))
        with pytest.raises(ValidationError):
            generate(SynthConfig(n=1, c=1, latent=LatentSpec(stddev=0.0)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_logits_rejected_before_drawing(self, tmp_path, monkeypatch):
        # only the highest draw below 1.0 overflows: 1.7e308 + 2e307 x 8.13
        cfg = SynthConfig(n=5, c=2, latent=LatentSpec(means=(0.0, 1.7e308), stddev=2e307))
        monkeypatch.setattr(synth, "_uniforms", None)  # no row is drawn
        want = ("the logits of class_001 overflow: latent mean 1.7e+308 + stddev 2e+307 x "
                "8.125890664701908 is not finite")
        for build in (generate, lambda cfg: write_fixture(cfg, str(tmp_path / "fx"))):
            with pytest.raises(ValidationError) as got:
                build(cfg)
            assert str(got.value) == want
        assert not (tmp_path / "fx").exists()


class TestStatistics:
    def test_prevalence_matches_quadrature(self):
        cfg = SynthConfig(
            n=20000, c=3, true_t=2.0, true_b=-0.5, seed=11,
            latent=LatentSpec(means=(-2.0, 0.0, 1.0), stddev=2.0),
        )
        d, truth = generate(cfg)
        for j in range(3):
            p = _analytic_prevalence(truth["latent_means"][j], 2.0, 2.0, -0.5)
            got = d.labels[:, j].mean()
            sd = np.sqrt(p * (1 - p) / cfg.n)
            assert abs(got - p) <= 4 * sd, f"class {j}: {got} vs {p}"

    def test_identity_generator_is_calibrated(self):
        d, _ = generate(SynthConfig(n=10000, c=5, seed=23))
        curve = pooled_reliability(d, confidences(d), 15)
        scores = calibration_scores(curve)
        assert scores.ece <= 0.01
        assert abs(scores.mcs) <= 0.01

    def test_negative_bias_means_overconfident(self):
        d, _ = generate(SynthConfig(n=8000, c=4, true_b=-2.0, seed=31))
        agg = aggregate_multilabel(per_class_scores(d, confidences(d), 15))
        assert agg.mcs > 0


class TestFixtureFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = SynthConfig(n=300, c=4, true_t=0.7, true_b=1.0, seed=9)
        paths = write_fixture(cfg, str(tmp_path / "fix"))
        direct, truth = generate(cfg)
        loaded = load_dataset(paths["predictions"], paths["labels"], paths["manifest"])
        assert np.array_equal(loaded.logits, direct.logits)
        assert np.array_equal(loaded.labels, direct.labels)
        assert loaded.classes == direct.classes
        assert loaded.meta.sample_id == direct.meta.sample_id
        assert loaded.meta.dataset_id == direct.meta.dataset_id
        assert np.array_equal(loaded.meta.start_s, direct.meta.start_s)
        assert np.array_equal(loaded.meta.duration_s, direct.meta.duration_s)

    def test_truth_sidecar_content(self, tmp_path):
        cfg = SynthConfig(n=10, c=2, true_t=(2.0, 0.5), true_b=-1.0, seed=4)
        paths = write_fixture(cfg, str(tmp_path / "fix"))
        truth = json.loads(pathlib.Path(paths["truth"]).read_text())
        assert truth["true_T"] == [2.0, 0.5]
        assert truth["true_b"] == [-1.0, -1.0]
        assert truth["seed"] == 4
        assert len(truth["latent_means"]) == 2

    def test_written_files_are_deterministic(self, tmp_path):
        cfg = SynthConfig(n=50, c=2, seed=13)
        p1 = write_fixture(cfg, str(tmp_path / "a"))
        p2 = write_fixture(cfg, str(tmp_path / "b"))
        for key in ("predictions", "labels", "manifest", "truth"):
            assert pathlib.Path(p1[key]).read_bytes() == pathlib.Path(p2[key]).read_bytes()


def _escaped(**chars):
    """Text that JSON escapes: a quote, a backslash, control characters, DEL
    and text outside ASCII, among other characters (``chars`` limits them)."""
    special = st.sampled_from('"\\\x00\x1f\n\t\x7f\u00e9\u20ac\U0001f426')
    return st.text(st.one_of(special, st.characters(**chars)), max_size=6)


_TIMES = st.one_of(st.sampled_from([0.0, 0.1, 1e-7, 1e300, 5e-324]),
                   st.floats(0.0, 1e308, allow_nan=False))


def _manifest_doc(meta):
    return [{"sample_id": sid, "dataset_id": did, "start_s": start, "duration_s": duration}
            for sid, did, start, duration in zip(meta.sample_id, meta.dataset_id,
                                                 meta.start_s.tolist(),
                                                 meta.duration_s.tolist())]


class TestManifestTemplate:
    """The manifest rows come from one template, with the bytes that
    dumps_canonical gives for the list of row objects."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rows_match_dumps_canonical(self, data):
        ids = data.draw(st.lists(_escaped(), min_size=1, max_size=6, unique=True))
        names = data.draw(st.lists(_escaped(), min_size=1, max_size=3, unique=True))
        n = len(ids)
        meta = Manifest(
            sample_id=ids,
            dataset_id=[data.draw(st.sampled_from(names)) for _ in ids],
            start_s=data.draw(st.lists(_TIMES, min_size=n, max_size=n)),
            duration_s=data.draw(st.lists(_TIMES.filter(bool), min_size=n, max_size=n)),
        )
        cut = data.draw(st.integers(0, n))  # where a second part starts

        def rows(start, stop):
            return synth._manifest_rows(
                meta.sample_id[start:stop], map(json.dumps, meta.dataset_id[start:stop]),
                meta.start_s[start:stop].tolist(), meta.duration_s[start:stop].tolist(), start > 0)

        parts = rows(0, cut) + rows(cut, n)
        text = b"[\n" + b"".join(parts) + b"\n]\n"
        assert text == (dumps_canonical(_manifest_doc(meta)) + "\n").encode("utf-8")

    @settings(max_examples=40, deadline=None)
    # a lone surrogate is not UTF-8 text, which a dataset_id must be
    @given(dataset_id=_escaped(exclude_categories=("Cs",)),
           duration=st.sampled_from([0.1, 1e-7, 1e300, 2.5]))
    def test_fixture_manifest_matches_dumps_canonical(self, tmp_path_factory, dataset_id,
                                                      duration):
        cfg = SynthConfig(n=7, c=2, dataset_id=dataset_id, clip_duration_s=duration)
        out = tmp_path_factory.mktemp("fx")
        paths = write_fixture(cfg, str(out))
        dataset, _ = generate(cfg)
        want = (dumps_canonical(_manifest_doc(dataset.meta)) + "\n").encode("utf-8")
        assert pathlib.Path(paths["manifest"]).read_bytes() == want
