"""Post hoc temperature and Platt scaling fitted by NLL minimization.

Temperature scaling maps logits through sigmoid(z / T); Platt scaling adds
a bias, sigmoid(z / T + b).  Parameters are stored as tau = ln T, so
T > 0 by construction.  The fit is damped Newton with Armijo backtracking
on the inverse temperature a = 1/T and b, in which binary cross-entropy
is convex (Platt 1999; Lin, Lin & Weng 2007); it stops on convergence,
usually within ten iterations.  One kernel, ``_column_losses``, gives
each column's BCE, which the solver minimizes and :func:`bce_nll` and the
fit's trace report; one, ``_slopes``, gives its gradient and Hessian in
(a, b): the solver steps on it and :func:`gradients` is its chain rule
into (tau, b).  Global parameters are
0-d arrays and per-class ones vectors, so only the choice of columns to
solve depends on the scope.  A params document's fields are read through
``core.json_field``.  Everything is deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (NumericalError, ValidationError, check_cells, check_pair, dumps_canonical,
                   json_field, read_json, sigmoid)
from .rowfiles import write_rows

TS = "ts"
PS = "ps"
GLOBAL = "global"
PER_CLASS = "per-class"

# Newton confines T to [T_MIN, T_MAX]: a separable column has no finite
# optimum (T -> 0) and an anti-correlated one none with T > 0.
T_MIN = 1e-3
T_MAX = 1e3
_A_MIN = 1.0 / T_MAX
_A_MAX = 1.0 / T_MIN
# the tau range a fit can produce, computed as fit computes tau
_TAU_MIN = float(-np.log(_A_MAX) + 0.0)
_TAU_MAX = float(-np.log(_A_MIN) + 0.0)
_NEWTON_TOL = 1e-10  # squared Newton decrement per row at which a column stops
_NEWTON_RIDGE = 1e-12  # Hessian damping per row, keeps constant columns solvable
_ARMIJO = 1e-4  # sufficient-decrease fraction of the backtracking line search
_MIN_STEP = 2.0**-40  # backtracking gives up below this fraction of its first step
_T_RTOL = 1e-12  # how far a params document's T may stray from exp(tau)


@dataclass(frozen=True)
class ScalingParams:
    """Fitted scaling parameters.

    ``tau`` is the log-temperature (T = exp(tau)); ``bias`` is identically
    zero for temperature scaling.  Global scope stores scalars (0-d arrays),
    per-class scope stores one value per class, aligned with ``classes``.
    """

    method: str
    scope: str
    tau: np.ndarray
    bias: np.ndarray
    classes: tuple | None = None
    fitted_on: str = ""

    def __post_init__(self):
        if self.method not in (TS, PS):
            raise ValidationError(f"method must be '{TS}' or '{PS}', got {self.method!r}")
        if self.scope not in (GLOBAL, PER_CLASS):
            raise ValidationError(
                f"scope must be '{GLOBAL}' or '{PER_CLASS}', got {self.scope!r}"
            )
        tau = np.array(self.tau, dtype=np.float64, copy=True)
        bias = np.array(self.bias, dtype=np.float64, copy=True)
        if self.scope == GLOBAL:
            if tau.ndim != 0 or bias.ndim != 0:
                raise ValidationError("global params must hold scalar tau and bias")
        else:
            if tau.ndim != 1 or bias.shape != tau.shape:
                raise ValidationError("per-class params must hold 1-d tau and bias")
            if self.classes is None or len(self.classes) != tau.shape[0]:
                raise ValidationError(
                    "per-class params must carry one class name per parameter"
                )
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(bias))):
            raise ValidationError("non-finite scaling parameter")
        if self.method == TS and np.any(bias != 0.0):
            raise ValidationError("temperature scaling must keep bias at 0")
        tau.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "bias", bias)
        if self.classes is not None:
            object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def temperature(self) -> np.ndarray:
        return np.exp(self.tau)

    @classmethod
    def identity(cls, method: str = TS, scope: str = GLOBAL, classes=None):
        """T = 1, b = 0: leaves confidences unchanged.  Scalars without
        ``classes``, one zero per class with them."""
        zeros = np.zeros(() if classes is None else len(classes))
        return cls(method, scope, zeros, zeros, classes=classes)

    def to_json_dict(self) -> dict:
        doc = {"method": self.method, "scope": self.scope}
        if self.classes is not None:
            doc["classes"] = list(self.classes)
        # .tolist() of a 0-d array is a float, of a 1-d one a list of them
        doc["tau"] = self.tau.tolist()
        doc["T"] = np.exp(self.tau).tolist()
        doc["b"] = self.bias.tolist()
        doc["fitted_on"] = self.fitted_on
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict):
        """The params read back from a document ``to_json_dict`` wrote.  Its
        ``T``, when present, must be ``exp(tau)`` within a relative _T_RTOL."""
        where = "params document"
        arrays = {}
        for key in ("tau", "b", "T") if "T" in doc else ("tau", "b"):
            try:
                arrays[key] = np.asarray(json_field(doc, key, where, "numbers"), dtype=np.float64)
            except OverflowError:
                raise ValidationError(
                    f"params {key} holds an integer too large for a float") from None
        tau = arrays["tau"]
        outside = (tau < _TAU_MIN) | (tau > _TAU_MAX)
        if np.any(outside):
            raise ValidationError(
                f"params tau must lie in [{_TAU_MIN!r}, {_TAU_MAX!r}] "
                f"(T in [{T_MIN:g}, {T_MAX:g}]), got {float(tau[outside][0])!r}"
            )
        params = cls(
            method=json_field(doc, "method", where, "string"),
            scope=json_field(doc, "scope", where, "string"),
            tau=tau,
            bias=arrays["b"],
            classes=json_field(doc, "classes", where, "strings") if "classes" in doc else None,
            fitted_on=json_field(doc, "fitted_on", where, "string") if "fitted_on" in doc else "",
        )
        temperature = params.temperature
        if "T" in doc and not (arrays["T"].shape == tau.shape and np.all(
                np.abs(arrays["T"] - temperature) <= _T_RTOL * temperature)):
            raise ValidationError(
                f"params T must equal exp(tau) within a relative {_T_RTOL:g}, got "
                f"T = {json.dumps(doc['T'])} for tau = {json.dumps(doc['tau'])}"
            )
        return params


@dataclass(frozen=True)
class FitTrace:
    """Solver provenance: budget, endpoints, convergence, degenerate columns.

    ``steps`` is the configured iteration cap and ``iterations`` the number
    actually run.  ``converged`` is True when every fitted column met the
    stopping test.  ``fallback`` and ``clamped`` hold column indices (into
    ``classes`` for per-class scope; global scope fits one column, 0):
    fallback columns lack positives or negatives and keep identity
    parameters, clamped columns end with T on an edge of [T_MIN, T_MAX].
    The NLLs are :func:`bce_nll`, the loss the solver minimizes, and
    ``nll_history``, when recorded, holds it before the first and after
    every iteration.
    """

    steps: int
    nll_initial: float
    nll_final: float
    nll_history: tuple | None = None
    iterations: int = 0
    converged: bool = False
    fallback: tuple = ()
    clamped: tuple = ()

    def to_json_dict(self) -> dict:
        doc = {
            "steps": self.steps,
            "iterations": self.iterations,
            "converged": self.converged,
            "fallback": list(self.fallback),
            "clamped": list(self.clamped),
            "nll_initial": self.nll_initial,
            "nll_final": self.nll_final,
        }
        if self.nll_history is not None:
            doc["nll_history"] = list(self.nll_history)
        return doc


@dataclass(frozen=True)
class FitConfig:
    """Solver settings.

    ``steps`` (at least 1) caps the Newton iterations; the fit usually
    stops on convergence well before.
    """

    steps: int = 1000
    record_history: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")


def _check_dims(logits: np.ndarray, params: ScalingParams):
    if params.scope == PER_CLASS and logits.shape[1] != params.tau.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {logits.shape[1]} classes in logits, "
            f"{params.tau.shape[0]} per-class parameters"
        )


def _columns(m: np.ndarray, scope: str) -> np.ndarray:
    """The columns a fit solves, one per parameter: each class column for
    per-class scope, the flattened matrix as one column for global scope."""
    return m if scope == PER_CLASS else m.reshape(-1, 1)


def apply_scaling(logits, params: ScalingParams) -> np.ndarray:
    """Rescale logits and map to probabilities: sigmoid(z / T + b).

    Per-class parameters broadcast over rows; with T = 1, b = 0 the output
    equals sigmoid of the raw logits.  A non-finite logit is a
    NumericalError.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValidationError(f"logits must be 2-d, got shape {z.shape}")
    _check_dims(z, params)
    check_cells(z, "finite", error=NumericalError)
    with np.errstate(over="ignore"):  # z / T past the floats is +-inf, of sigmoid 1 or 0
        s = z / np.exp(params.tau)
    s += params.bias  # in place: the scaled logits are one matrix
    return sigmoid(s)


def bce_nll(logits, labels, params: ScalingParams) -> float:
    """Mean binary cross-entropy of scaled confidences against labels: the
    fit's own loss, ``_column_losses`` over ``z.size`` cells, which stays
    finite and free of cancellation on saturated logits.  Labels must be
    0 or 1, and a non-finite logit is a NumericalError."""
    z, y = check_pair(logits, labels, "finite", 2, error=NumericalError)
    _check_dims(z, params)
    return _mean_loss(z, y, params)


def _mean_loss(z, y, params: ScalingParams) -> float:
    """bce_nll of checked matrices: fit's NLLs, which check nothing again."""
    losses = _column_losses(_columns(z, params.scope), _columns(y, params.scope),
                            np.exp(-params.tau), params.bias)
    return float(np.sum(losses) / z.size)


def gradients(logits, labels, params: ScalingParams):
    """Analytic gradients of bce_nll with respect to (tau, bias).

    The chain rule of the solver's own slopes (``_slopes``): with
    a = 1/T = exp(-tau) and n = N*C cells, d/dtau = -a * g_a / n and
    d/db = g_b / n, over the flattened matrix for global scope and per
    column for per-class scope.  Shapes match the parameter shapes (0-d
    arrays global, C-vectors per class).
    """
    z, y = check_pair(logits, labels, "finite", 2, error=NumericalError)
    _check_dims(z, params)
    a = np.exp(-params.tau)
    g_a, g_b = _slopes(_columns(z, params.scope), _columns(y, params.scope), a, params.bias)[:2]
    shape = params.tau.shape
    return (-a * g_a.reshape(shape) / z.size, g_b.reshape(shape) / z.size)


def _slopes(z, y, a, b):
    """Each column's BCE gradient and Hessian sums at the logits a*z + b:
    (g_a, g_b, h_aa, h_ab, h_bb), the derivatives in (a, b)."""
    p = sigmoid(a * z + b)
    resid = p - y
    w = p * (1.0 - p)
    wz = w * z
    return (np.sum(resid * z, axis=0), np.sum(resid, axis=0),
            np.sum(wz * z, axis=0), np.sum(wz, axis=0), np.sum(w, axis=0))


def _column_losses(z, y, a, b):
    """Per-column BCE sums of the logits a*z + b, free of cancellation on
    saturated logits (softplus(s) - s = softplus(-s))."""
    s = a * z + b
    loss = y * np.logaddexp(0.0, -s) + (1.0 - y) * np.logaddexp(0.0, s)
    return np.sum(loss, axis=0)


def _newton(z, y, fit_bias, fit_cols, cap, history):
    """Damped Newton on each column's BCE in (a, b), a = 1/T kept in
    [1 / T_MAX, 1 / T_MIN].

    Columns are independent 2x2 problems (1-D in a when ``fit_bias`` is
    False) solved side by side from column sums.  Each iteration takes
    the Newton step with Armijo backtracking; a step that would leave the
    range of a is shortened to land on its edge, and a column that starts
    separable, or whose a sits on an edge the Newton step points past,
    refits b alone.  A column stops
    once its squared Newton decrement is at most _NEWTON_TOL per row (it
    then takes that last, full step) or once backtracking finds no
    decrease.  Columns outside ``fit_cols`` keep a = 1, b = 0.
    ``history``, if given, is called with (tau, b) after every iteration.

    Returns a, b, the iteration count and the per-column converged mask.
    """
    n, k = z.shape
    # A column whose positives all score at or above its negatives (at or
    # above 0 and at or below 0 without a bias) has its infimum at
    # a -> inf, which Newton would only creep towards.  Its loss minimized
    # over b is convex and non-increasing in a, so the constrained optimum
    # has a on the edge: a is pinned there, b starts at the gap's middle
    # and is refitted for the rows tied at the gap.  A column whose scores
    # all tie (all 0 without a bias) does not depend on a that way and is
    # solved as any other.
    pos = y > 0.5
    top_neg = np.max(np.where(pos, -np.inf, z), axis=0)
    low_pos = np.min(np.where(pos, z, np.inf), axis=0)
    if fit_bias:
        spread = np.min(z, axis=0) < np.max(z, axis=0)
        separable = fit_cols & spread & (top_neg <= low_pos)
        b = np.where(separable, -_A_MAX * 0.5 * (top_neg + low_pos), 0.0)
    else:
        spread = np.any(z != 0.0, axis=0)
        separable = fit_cols & spread & (top_neg <= 0.0) & (low_pos >= 0.0)
        b = np.zeros(k)
    a = np.where(separable, _A_MAX, 1.0)
    active = fit_cols.copy()
    converged = np.zeros(k, dtype=bool)
    tol = _NEWTON_TOL * n
    ridge = _NEWTON_RIDGE * n
    f = _column_losses(z, y, a, b)
    iterations = 0
    while iterations < cap and np.any(active):
        iterations += 1
        g_a, g_b, h_aa, h_ab, h_bb = _slopes(z, y, a, b)
        h_aa += ridge
        if fit_bias:
            h_bb += ridge
            det = h_aa * h_bb - h_ab * h_ab
            d_a = (h_ab * g_b - h_bb * g_a) / det
            d_b = (h_ab * g_a - h_aa * g_b) / det
        else:
            g_b = h_bb = d_b = np.zeros(k)
            d_a = -g_a / h_aa
        if not (np.all(np.isfinite(d_a)) and np.all(np.isfinite(d_b))):
            raise NumericalError(f"non-finite Newton step at iteration {iterations}")
        edge = separable | ((a <= _A_MIN) & (d_a < 0.0)) | ((a >= _A_MAX) & (d_a > 0.0))
        if np.any(edge):
            d_a = np.where(edge, 0.0, d_a)
            if fit_bias:
                d_b = np.where(edge, -g_b / h_bb, d_b)
        decrement = -(g_a * d_a + g_b * d_b)
        # a step that would leave the range stops on its edge, exactly
        target = np.where(d_a < 0.0, _A_MIN, _A_MAX)
        with np.errstate(divide="ignore", invalid="ignore"):
            room = (target - a) / d_a
        hit = (d_a != 0.0) & (room < 1.0)
        t = np.where(hit, room, 1.0)

        def trial(t):
            a_t = np.where(hit & (t == room), target, np.clip(a + t * d_a, _A_MIN, _A_MAX))
            return a_t, b + t * d_b

        done = active & (decrement <= tol)
        a_t, b_t = trial(t)
        a = np.where(done, a_t, a)
        b = np.where(done, b_t, b)
        converged |= done
        active &= ~done

        searching = active.copy()
        t_floor = t * _MIN_STEP
        while np.any(searching):
            a_t, b_t = trial(t)
            f_t = _column_losses(z, y, a_t, b_t)
            ok = searching & (
                f_t <= f + _ARMIJO * (g_a * (a_t - a) + g_b * (b_t - b))
            )
            a = np.where(ok, a_t, a)
            b = np.where(ok, b_t, b)
            f = np.where(ok, f_t, f)
            searching &= ~ok
            t = np.where(searching, 0.5 * t, t)
            stalled = searching & (t < t_floor)
            active &= ~stalled
            searching &= ~stalled
        if history is not None:
            history(-np.log(a), b)
    return a, b, iterations, converged


def fit(
    logits,
    labels,
    method: str = PS,
    scope: str = GLOBAL,
    cfg: FitConfig | None = None,
    classes=None,
    fitted_on: str = "",
):
    """Fit scaling parameters by minimizing the BCE objective.

    The solver is damped Newton on the inverse temperature a = 1/T and b
    (see ``_newton``), where BCE is convex; it starts from T = 1, b = 0
    and stops on convergence, with ``cfg.steps`` as its iteration cap.
    Per-class scope solves every column on its own; global scope solves
    the flattened matrix as one column.

    Columns without a positive or without a negative have no finite
    optimum (b runs off to -inf or +inf) and keep identity parameters.  A
    column whose optimum lies outside T in [T_MIN, T_MAX] (anti-correlated
    scores, a* <= 0, or separable ones, a* -> inf, ties at the class
    boundary included) ends with T on that edge and b refitted.  Both
    cases are recorded in the trace.  Labels must be 0 or 1.  Non-finite
    logits, and logits so large that scaling them overflows, raise
    NumericalError.  Returns the fitted ScalingParams and a FitTrace.
    """
    if cfg is None:
        cfg = FitConfig()
    z, y = check_pair(logits, labels, "finite", 2, error=NumericalError)
    if scope != PER_CLASS:
        classes = None
    elif classes is None:
        classes = tuple(f"class_{c}" for c in range(z.shape[1]))
    elif len(classes) != z.shape[1]:
        raise ValidationError(
            f"dimension mismatch: {z.shape[1]} columns, {len(classes)} class names"
        )
    # the identity start; building it checks method and scope
    start = replace(ScalingParams.identity(method, scope, classes), fitted_on=fitted_on)
    if z.size == 0:
        raise ValidationError("cannot fit on an empty calibration set")
    z_cols, y_cols = _columns(z, scope), _columns(y, scope)
    n_pos = y_cols.sum(axis=0)
    fit_cols = (n_pos > 0) & (n_pos < y_cols.shape[0])

    def as_params(tau_v, bias_v):
        # a ts fit never moves b off +0.0
        shape = start.tau.shape
        return replace(start, tau=np.reshape(tau_v, shape), bias=np.reshape(bias_v, shape))

    try:  # logits near the float maximum overflow once scaled: one error, no warnings
        with np.errstate(over="raise", invalid="raise"):
            nll_initial = _mean_loss(z, y, start)
            history = record = None
            if cfg.record_history:
                history = [nll_initial]

                def record(tau_v, bias_v):
                    history.append(_mean_loss(z, y, as_params(tau_v, bias_v)))

            a, bias, iterations, col_converged = _newton(
                z_cols, y_cols, method == PS, fit_cols, cfg.steps, record
            )
            tau = -np.log(a) + 0.0  # +0.0 (not -0.0) for a = 1
            params = as_params(tau, bias)
            nll_final = _mean_loss(z, y, params)
    except FloatingPointError:
        raise NumericalError("the calibration logits are too large to scale") from None
    at_edge = (a <= _A_MIN) | (a >= _A_MAX)
    trace = FitTrace(
        steps=cfg.steps,
        nll_initial=nll_initial,
        nll_final=nll_final,
        nll_history=tuple(history) if history is not None else None,
        iterations=iterations,
        converged=bool(np.all(col_converged[fit_cols])),
        fallback=tuple(int(j) for j in np.flatnonzero(~fit_cols)),
        clamped=tuple(int(j) for j in np.flatnonzero(fit_cols & at_edge)),
    )
    return params, trace


def dump_params(params: ScalingParams, trace: FitTrace | None):
    """The params JSON document of ``params`` and its fit ``trace``, and
    its text; each float prints as its repr, so the round trip is
    bit-exact."""
    doc = params.to_json_dict()
    if trace is not None:
        doc["trace"] = trace.to_json_dict()
    return doc, dumps_canonical(doc) + "\n"


def save_params(params: ScalingParams, trace: FitTrace | None, path: str) -> dict:
    """Write the document of :func:`dump_params` to ``path``, its directory
    created if needed, and return it."""
    doc, text = dump_params(params, trace)
    write_rows(os.path.dirname(path), {os.path.basename(path): ("params", text, "")})
    return doc


def load_params(path: str) -> ScalingParams:
    doc = read_json(path, "params")
    if not isinstance(doc, dict):
        raise ValidationError(f"params file {path} must hold a JSON object")
    return ScalingParams.from_json_dict(doc)
