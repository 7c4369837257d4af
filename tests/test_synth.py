import pathlib

import numpy as np
import pytest

from mlcalib.core import ValidationError, load_dataset, confidences, sigmoid
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
        import json

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
