import json
import os
import pathlib
import re

import numpy as np
import pytest

from mlcalib.core import NumericalError, ValidationError, dumps_canonical, sigmoid
from mlcalib.scaling import (
    T_MAX,
    T_MIN,
    FitConfig,
    ScalingParams,
    apply_scaling,
    bce_nll,
    fit,
    gradients,
    load_params,
    save_params,
)
from mlcalib.synth import LatentSpec, SynthConfig, generate


def _global_params(method="ps", tau=0.0, bias=0.0):
    return ScalingParams(
        method=method, scope="global", tau=np.float64(tau), bias=np.float64(bias)
    )


# the three scaling entries that take labels; bce_nll and gradients at a global map
ENTRIES = {
    "fit": lambda z, y: fit(z, y, method="ps", scope="per-class"),
    "bce_nll": lambda z, y: bce_nll(z, y, _global_params()),
    "gradients": lambda z, y: gradients(z, y, _global_params()),
}
_Z = np.array([[0.5, -0.3], [1.0, 0.2], [-1.0, 0.4]])
_Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("value", [2.0, -1.0, 0.5, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_labels_are_hard_zero_or_one(entry, value):
    # a soft label such as 0.5 is refused too, the rule EvalDataset keeps
    y = _Y.copy()
    y[2, 1] = value
    want = re.escape(f"non-binary label (row 2, class 1): {value!r}") + "$"
    with pytest.raises(ValidationError, match=want):
        ENTRIES[entry](_Z, y)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [*sorted(ENTRIES), "apply_scaling"])
def test_non_finite_logit_is_a_numerical_error(entry, value):
    # apply_scaling takes no labels, but its logits follow the same rule
    z = _Z.copy()
    z[1, 0] = value
    run = ENTRIES.get(entry, lambda z, y: apply_scaling(z, ScalingParams.identity()))
    with pytest.raises(NumericalError, match=re.escape("non-finite value (row 1, class 0)") + "$"):
        run(z, _Y)


def _synth(true_t, true_b, seed=29, n=10000, c=5):
    cfg = SynthConfig(
        n=n,
        c=c,
        true_t=true_t,
        true_b=true_b,
        seed=seed,
        latent=LatentSpec(means=(-2.0, -1.0, 0.0, 1.0, 2.0)[:c], stddev=4.0),
    )
    ds, _ = generate(cfg)
    return ds


class TestParams:
    def test_temperature_is_exp_tau(self):
        p = _global_params(tau=np.log(2.0))
        assert float(p.temperature) == pytest.approx(2.0)

    def test_ts_with_bias_rejected(self):
        with pytest.raises(ValidationError, match="bias"):
            _global_params(method="ts", bias=0.5)

    def test_per_class_needs_matching_class_names(self):
        with pytest.raises(ValidationError, match="class name"):
            ScalingParams(
                method="ps", scope="per-class", tau=np.zeros(3), bias=np.zeros(3),
                classes=("a", "b"),
            )

    def test_global_must_be_scalar(self):
        with pytest.raises(ValidationError, match="scalar"):
            ScalingParams(method="ps", scope="global", tau=np.zeros(2), bias=np.zeros(2))

    def test_identity_leaves_confidences_unchanged(self, rng):
        z = rng.normal(size=(20, 3))
        p = ScalingParams.identity()
        assert np.array_equal(apply_scaling(z, p), sigmoid(z))

    def test_json_round_trip_is_bit_exact(self, tmp_path):
        p = ScalingParams(
            method="ps", scope="per-class",
            tau=np.array([0.123456789012345678, -1.1]),
            bias=np.array([0.9876543210987654, 0.3]),
            classes=("a", "b"), fitted_on="first-minutes=10",
        )
        path = str(tmp_path / "params.json")
        save_params(p, None, path)
        q = load_params(path)
        assert np.array_equal(q.tau, p.tau) and np.array_equal(q.bias, p.bias)
        assert q.classes == p.classes and q.fitted_on == p.fitted_on
        assert (q.method, q.scope) == (p.method, p.scope)

    def test_save_into_a_missing_directory_creates_it(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "params.json"
        doc = save_params(ScalingParams.identity("ps"), None, str(path))
        assert path.read_bytes() == (dumps_canonical(doc) + "\n").encode("utf-8")
        assert os.listdir(path.parent) == ["params.json"]


class TestApply:
    def test_scalar_evaluation(self):
        p = _global_params(tau=np.log(2.0))
        out = apply_scaling(np.array([[2.0]]), p)
        assert out[0, 0] == pytest.approx(0.7310585786, abs=1e-9)

    def test_z_zero_maps_to_half_for_any_t(self):
        for t in (0.25, 1.0, 7.0):
            p = _global_params(method="ts", tau=np.log(t))
            assert apply_scaling(np.array([[0.0]]), p)[0, 0] == 0.5

    def test_smoothing_direction(self, rng):
        z = rng.normal(scale=3.0, size=(50, 2))
        z[np.abs(z) < 1e-6] = 1.0
        raw = sigmoid(z)
        smooth = apply_scaling(z, _global_params(method="ts", tau=np.log(2.0)))
        sharp = apply_scaling(z, _global_params(method="ts", tau=np.log(0.5)))
        assert np.all(np.abs(smooth - 0.5) < np.abs(raw - 0.5))
        assert np.all(np.abs(sharp - 0.5) >= np.abs(raw - 0.5))

    def test_global_ranking_preserved(self, rng):
        z = rng.normal(scale=4.0, size=(100, 4))
        p = _global_params(tau=0.7, bias=-1.2)
        scaled = apply_scaling(z, p)
        raw = sigmoid(z)
        assert np.array_equal(
            np.argsort(raw.ravel(), kind="stable"),
            np.argsort(scaled.ravel(), kind="stable"),
        )
        for j in range(4):
            assert np.array_equal(
                np.argsort(raw[:, j], kind="stable"),
                np.argsort(scaled[:, j], kind="stable"),
            )

    def test_per_class_dimension_mismatch(self):
        p = ScalingParams(
            method="ps", scope="per-class", tau=np.zeros(2), bias=np.zeros(2),
            classes=("a", "b"),
        )
        with pytest.raises(ValidationError, match="dimension"):
            apply_scaling(np.zeros((3, 4)), p)


class TestNll:
    def test_ln2_at_half(self):
        nll = bce_nll(np.array([[0.0]]), np.array([[1.0]]), ScalingParams.identity())
        assert nll == pytest.approx(np.log(2.0), abs=1e-9)

    def test_saturated_correct_is_tiny(self):
        z = np.array([[40.0, -40.0]])
        y = np.array([[1.0, 0.0]])
        assert bce_nll(z, y, ScalingParams.identity()) < 1e-12

    def test_flipping_balanced_labels_keeps_ln2(self):
        z = np.zeros((10, 1))
        y = np.array([[1.0]] * 5 + [[0.0]] * 5)
        a = bce_nll(z, y, ScalingParams.identity())
        b = bce_nll(z, 1.0 - y, ScalingParams.identity())
        assert a == b == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamp_prevents_infinite_loss(self):
        # saturated AND wrong: the loss is softplus(800) = 800, and it stays
        # finite because softplus is computed without forming sigmoid(800)
        nll = bce_nll(np.array([[800.0]]), np.array([[0.0]]), ScalingParams.identity())
        assert np.isfinite(nll)


class TestGradients:
    def test_b_gradient_closed_form(self):
        g_tau, g_b = gradients(
            np.array([[0.0]]), np.array([[1.0]]), _global_params()
        )
        assert float(g_b) == pytest.approx(-0.5, abs=1e-12)

    def test_stationary_at_saturated_fit(self):
        z = np.array([[40.0, -40.0], [40.0, -40.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        g_tau, g_b = gradients(z, y, _global_params())
        assert np.hypot(float(g_tau), float(g_b)) <= 1e-6

    @pytest.mark.parametrize("method,scope", [
        ("ts", "global"), ("ps", "global"), ("ts", "per-class"), ("ps", "per-class"),
    ])
    def test_matches_central_finite_differences(self, method, scope, rng):
        h = 1e-5
        for _ in range(25):
            n, c = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            z = rng.normal(scale=3.0, size=(n, c))
            y = (rng.random((n, c)) < 0.5).astype(float)
            classes = tuple(f"c{j}" for j in range(c))
            if scope == "global":
                tau = np.float64(rng.normal(scale=0.5))
                bias = np.float64(rng.normal(scale=0.5)) if method == "ps" else np.float64(0.0)
                params = ScalingParams(method, scope, tau, bias)
            else:
                tau = rng.normal(scale=0.5, size=c)
                bias = rng.normal(scale=0.5, size=c) if method == "ps" else np.zeros(c)
                params = ScalingParams(method, scope, tau, bias, classes=classes)
            g_tau, g_b = gradients(z, y, params)

            def nll_at(tau_v, bias_v):
                p = ScalingParams(method, scope, tau_v, bias_v,
                                  classes=classes if scope == "per-class" else None)
                return bce_nll(z, y, p)

            if scope == "global":
                fd_tau = (nll_at(tau + h, bias) - nll_at(tau - h, bias)) / (2 * h)
                assert float(g_tau) == pytest.approx(fd_tau, abs=1e-6)
                if method == "ps":
                    fd_b = (nll_at(tau, bias + h) - nll_at(tau, bias - h)) / (2 * h)
                    assert float(g_b) == pytest.approx(fd_b, abs=1e-6)
            else:
                for j in range(c):
                    e = np.zeros(c)
                    e[j] = h
                    fd_tau = (nll_at(tau + e, bias) - nll_at(tau - e, bias)) / (2 * h)
                    assert g_tau[j] == pytest.approx(fd_tau, abs=1e-6)
                    if method == "ps":
                        fd_b = (nll_at(tau, bias + e) - nll_at(tau, bias - e)) / (2 * h)
                        assert g_b[j] == pytest.approx(fd_b, abs=1e-6)

    def test_matches_central_differences_at_saturated_logits(self):
        # the sigmoid saturates at +-40 logits, where a copy of the loss
        # that clamps p has no slope in tau; the solver's loss does
        z = np.array([[40.0], [-35.0], [0.3], [-0.2]])
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        h = 1e-5
        g_tau, g_b = gradients(z, y, _global_params(tau=0.0, bias=0.1))
        fd_tau = (bce_nll(z, y, _global_params(tau=h, bias=0.1))
                  - bce_nll(z, y, _global_params(tau=-h, bias=0.1))) / (2 * h)
        fd_b = (bce_nll(z, y, _global_params(tau=0.0, bias=0.1 + h))
                - bce_nll(z, y, _global_params(tau=0.0, bias=0.1 - h))) / (2 * h)
        assert float(g_tau) == pytest.approx(fd_tau, abs=1e-6)
        assert float(g_b) == pytest.approx(fd_b, abs=1e-6)
        assert float(g_tau) == pytest.approx(-18.696, abs=1e-3)


class TestFit:
    def test_recovers_temperature(self):
        ds = _synth(true_t=2.0, true_b=0.0)
        params, trace = fit(
            ds.logits, ds.labels, method="ps", scope="global",
            cfg=FitConfig(steps=5000),
        )
        assert 1.9 <= float(params.temperature) <= 2.1
        assert trace.nll_final <= trace.nll_initial

    def test_identity_recovery_on_calibrated_data(self):
        ds = _synth(true_t=1.0, true_b=0.0)
        params, trace = fit(ds.logits, ds.labels, method="ps", scope="global")
        assert 0.95 <= float(params.temperature) <= 1.05
        assert abs(float(params.bias)) <= 0.05

    def test_recovers_injected_bias(self):
        ds = _synth(true_t=1.0, true_b=-1.0)
        params, _ = fit(
            ds.logits, ds.labels, method="ps", scope="global",
            cfg=FitConfig(steps=5000),
        )
        assert -1.1 <= float(params.bias) <= -0.9

    def test_ts_never_moves_bias(self):
        ds = _synth(true_t=1.0, true_b=-1.0, n=2000)
        params, _ = fit(ds.logits, ds.labels, method="ts", scope="global",
                        cfg=FitConfig(steps=500))
        assert float(params.bias) == 0.0
        assert params.method == "ts"

    def test_per_class_zero_positive_column_keeps_identity(self, rng):
        z = rng.normal(size=(400, 3))
        y = (rng.random((400, 3)) < 0.5).astype(float)
        y[:, 1] = 0.0
        params, _ = fit(z, y, method="ps", scope="per-class",
                        classes=("a", "b", "c"), cfg=FitConfig(steps=200))
        assert params.tau[1] == 0.0 and params.bias[1] == 0.0
        assert params.tau[0] != 0.0 and params.tau[2] != 0.0

    def test_per_class_single_column_equals_global_bitwise(self, rng):
        z = rng.normal(scale=2.0, size=(500, 1))
        y = (rng.random((500, 1)) < 0.4).astype(float)
        cfg = FitConfig(steps=300)
        pc, trace_pc = fit(z, y, method="ps", scope="per-class", classes=("a",), cfg=cfg)
        gl, trace_gl = fit(z, y, method="ps", scope="global", cfg=cfg)
        assert float(pc.tau[0]) == float(gl.tau)
        assert float(pc.bias[0]) == float(gl.bias)
        assert trace_pc.nll_final == trace_gl.nll_final

    def test_descent_and_history(self, rng):
        z = rng.normal(scale=2.0, size=(200, 2))
        y = (rng.random((200, 2)) < 0.3).astype(float)
        params, trace = fit(z, y, cfg=FitConfig(steps=50, record_history=True))
        assert trace.nll_final <= trace.nll_initial + 1e-9
        assert 1 <= trace.iterations < 50 and trace.converged
        assert len(trace.nll_history) == trace.iterations + 1
        assert trace.nll_history[0] == trace.nll_initial
        assert trace.nll_history[-1] == trace.nll_final
        steps = np.diff(trace.nll_history)
        assert np.all(steps <= 1e-15), steps  # never increases, up to rounding

    def test_history_is_the_minimized_loss_on_saturated_logits(self):
        # saturated logits, and a fit that ends with T on its upper edge:
        # the history must be the loss the solver decreases, not a copy of
        # it that saturates
        z = np.array([[101.4], [-116.4], [24.6], [69.8], [77.5], [20.6], [-85.5]])
        y = np.array([[0.0], [1.0], [0.0], [0.0], [1.0], [0.0], [0.0]])
        _, trace = fit(z, y, method="ps", scope="global", cfg=FitConfig(record_history=True))
        assert trace.nll_history[0] == trace.nll_initial
        assert trace.nll_history[-1] == trace.nll_final
        steps = np.diff(trace.nll_history)
        assert np.all(steps <= 0.0), steps

    def test_deterministic(self, rng):
        z = rng.normal(size=(100, 2))
        y = (rng.random((100, 2)) < 0.5).astype(float)
        a, ta = fit(z, y, cfg=FitConfig(steps=100))
        b, tb = fit(z, y, cfg=FitConfig(steps=100))
        assert np.array_equal(a.tau, b.tau) and np.array_equal(a.bias, b.bias)
        assert ta.nll_final == tb.nll_final

    def test_non_finite_logits_raise_numerical_error(self):
        z = np.array([[np.nan], [0.0]])
        y = np.array([[1.0], [0.0]])
        with pytest.raises(NumericalError):
            fit(z, y, cfg=FitConfig(steps=5))

    def test_no_negative_column_keeps_identity(self, rng):
        z = rng.normal(size=(300, 2))
        y = (rng.random((300, 2)) < 0.5).astype(float)
        y[:, 0] = 1.0
        params, trace = fit(z, y, scope="per-class", classes=("a", "b"))
        assert params.tau[0] == 0.0 and params.bias[0] == 0.0
        assert params.tau[1] != 0.0
        assert trace.fallback == (0,) and trace.converged

    def test_anti_correlated_column_ends_at_t_max(self, rng):
        # labels drawn from sigmoid(-z): the optimum has a = 1/T < 0
        z = rng.normal(scale=2.0, size=(500, 1))
        y = (rng.random((500, 1)) < sigmoid(-z)).astype(float)
        params, trace = fit(z, y, method="ps", scope="global")
        assert float(params.temperature) == pytest.approx(T_MAX, rel=1e-12)
        _, g_b = gradients(z, y, params)
        assert abs(float(g_b)) < 1e-9  # b refitted at the clamped T
        assert trace.clamped == (0,) and trace.fallback == () and trace.converged

    def test_separable_column_ends_at_t_min(self, rng):
        # every positive scores above every negative: a = 1/T runs to infinity
        z = rng.normal(scale=2.0, size=(400, 2))
        y = (rng.random((400, 2)) < sigmoid(z)).astype(float)
        y[:, 1] = (z[:, 1] > 0.5).astype(float)
        params, trace = fit(z, y, method="ps", scope="per-class", classes=("a", "b"))
        assert params.temperature[1] == pytest.approx(T_MIN, rel=1e-12)
        gap_mid = 0.5 * (z[y[:, 1] == 0, 1].max() + z[y[:, 1] == 1, 1].min())
        assert -params.bias[1] * params.temperature[1] == pytest.approx(gap_mid, abs=1e-3)
        assert trace.clamped == (1,) and trace.converged
        assert trace.nll_final < trace.nll_initial

    def test_boundary_tie_column_ends_at_t_min(self):
        # the lowest positive ties with the highest negative (at 0): the
        # infimum is still at a -> inf, with the tied rows at b = logit(1/2)
        z = np.array([[1.45], [1.45], [0.0], [0.0]])
        y = np.array([[1.0], [1.0], [1.0], [0.0]])
        for method in ("ps", "ts"):
            params, trace = fit(z, y, method=method, scope="global")
            assert float(params.temperature) == pytest.approx(T_MIN, rel=1e-12)
            assert float(params.bias) == pytest.approx(0.0, abs=1e-9)
            assert trace.clamped == (0,) and trace.converged
        # tied away from 0, two positives to one negative: b = 2/T + logit(2/3)
        z = np.array([[-2.0], [-2.0], [-2.0], [0.0], [3.0]])
        y5 = np.array([[1.0], [1.0], [0.0], [1.0], [1.0]])
        params, trace = fit(z, y5, method="ps", scope="global")
        assert float(params.temperature) == pytest.approx(T_MIN, rel=1e-12)
        assert float(params.bias) == pytest.approx(2.0 / T_MIN + np.log(2.0), abs=1e-9)
        assert trace.clamped == (0,) and trace.converged
        # a column whose scores all tie does not depend on a that way
        params, trace = fit(np.ones((4, 1)), y, method="ps", scope="global")
        assert trace.clamped == () and trace.converged
        assert float(apply_scaling(np.ones((1, 1)), params)[0, 0]) == pytest.approx(0.75)

    def test_trace_records_newton_convergence(self):
        ds = _synth(true_t=4.0, true_b=2.0, n=2000)
        params, trace = fit(ds.logits, ds.labels, method="ps", scope="global")
        assert trace.converged
        assert 1 <= trace.iterations < trace.steps == 1000
        doc = trace.to_json_dict()
        assert doc["iterations"] == trace.iterations and doc["converged"] is True
        assert doc["fallback"] == [] and doc["clamped"] == []

    def test_no_labels_rejected(self):
        with pytest.raises(ValidationError):
            fit(np.zeros((0, 1)), np.zeros((0, 1)))

    def test_fitted_params_round_trip_with_trace(self, tmp_path):
        ds = _synth(true_t=1.0, true_b=0.0, n=1000)
        params, trace = fit(ds.logits, ds.labels, cfg=FitConfig(steps=100),
                            fitted_on="test-fixture")
        path = str(tmp_path / "p.json")
        save_params(params, trace, path)
        loaded = load_params(path)
        assert float(loaded.tau) == float(params.tau)
        assert float(loaded.bias) == float(params.bias)
        assert loaded.fitted_on == "test-fixture"


class TestStationarityAtDocumentedBudget:
    """The documented solver budget (1000 iterations) is asserted to reach
    a near-stationary point on the recovery fixtures.  The Newton solver stops on convergence, so the
    gradient at its endpoint is small wherever the optimum lies.
    """

    @pytest.mark.parametrize("true_t,true_b", [
        (2.0, 0.0),   # optimum at tau = ln 2 ~ 0.69, away from the start
        (1.0, 0.0),   # optimum at the initialization
        (1.0, -1.0),  # optimum at b = -1.0, away from the start
    ])
    def test_final_gradient_norm(self, true_t, true_b):
        ds = _synth(true_t=true_t, true_b=true_b)
        params, _ = fit(
            ds.logits, ds.labels, method="ps", scope="global",
            cfg=FitConfig(steps=1000),
        )
        g_tau, g_b = gradients(ds.logits, ds.labels, params)
        norm = float(np.hypot(float(g_tau), float(g_b)))
        assert norm < 1e-3, (
            f"gradient norm {norm:.6f} after 1000 steps "
            f"(fitted T={float(params.temperature):.3f}, b={float(params.bias):.3f})"
        )


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _fit_params_docs() -> bytes:
    """The params documents, traces included, of the four fits (ts and ps,
    global and per-class) on one 40 x 4 fixture.  Column 0 is ordinary,
    column 1 holds no positive, column 2 is separable and column 3
    anti-correlated.  Logits carry 2 decimals; ps/per-class records its
    NLL history."""
    r = np.random.default_rng(17)
    n = 40
    z = np.round(r.normal(scale=2.0, size=(n, 4)), 2)
    y = (r.random((n, 4)) < 1.0 / (1.0 + np.exp(-(z / 2.0 + 0.3)))).astype(float)
    y[:, 1] = 0.0
    y[:, 2] = (z[:, 2] > 0.5).astype(float)
    y[:, 3] = (r.random(n) < 1.0 / (1.0 + np.exp(2.0 * z[:, 3]))).astype(float)
    docs = []
    for method in ("ts", "ps"):
        for scope in ("global", "per-class"):
            cfg = FitConfig(record_history=(method, scope) == ("ps", "per-class"))
            params, trace = fit(z, y, method=method, scope=scope, cfg=cfg,
                                classes=("ordinary", "empty", "separable", "anti"),
                                fitted_on=f"{method}/{scope}")
            docs.append(dict(params.to_json_dict(), trace=trace.to_json_dict()))
    return (dumps_canonical(docs) + "\n").encode()


def test_fit_params_golden():
    """Pins every fit's parameters and trace, bit for bit, over fallback,
    separable and anti-correlated columns."""
    want = pathlib.Path(GOLDEN, "fit_params.json").read_bytes()
    assert _fit_params_docs() == want


def test_fit_params_golden_documents_load():
    """Every document save_params writes loads back, its T included."""
    with open(os.path.join(GOLDEN, "fit_params.json"), encoding="utf-8") as fh:
        docs = json.load(fh)
    for doc in docs:
        loaded = ScalingParams.from_json_dict(doc).to_json_dict()
        assert dumps_canonical(loaded) == dumps_canonical({k: doc[k] for k in loaded})
