"""Synthetic multi-label fixtures with known ground-truth miscalibration.

Logits are drawn from per-class normal latents; labels are Bernoulli draws
at sigmoid(z / true_T + true_b).  The dataset "reports" sigmoid(z), so
true_T = 1, true_b = 0 is perfectly calibrated by construction and any
other setting has analytically known miscalibration.  Randomness comes
from a counter-based generator (splitmix64 over (seed, stream, index)), so
generation is reproducible element-wise and order-independent.  Each
latent is mean + stddev * ``core.ndtri(u)`` of one uniform draw u: the
inverse normal CDF, ported from Cephes with the same bits as
``scipy.special.ndtri``, so the package needs only numpy.

:func:`write_fixture` writes the four files through ``rowfiles.write_rows``,
in rounds of row parts.  Each part draws the uniforms of its own rows
[a, b), at the counters [a * C, b * C), builds their logits and labels,
and formats its text of every file, so no process holds an N x C matrix.
predictions.csv holds the ``repr`` of each logit.  labels.csv is written
from a bool matrix, whose text comes from one uint8 matrix per part: a
``0`` or ``1`` byte per cell, with the commas and line ends between them.
manifest.json's rows come from ``core.manifest_rows``, which gets the
plain ids and times of each part's rows, and truth.json from
``core.dumps_canonical``, so this module formats no JSON; each float of
either is its ``repr``, as in predictions.csv.
:func:`generate` builds its dataset from the same rows, times included.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .core import (MANIFEST_ENDS, EvalDataset, Manifest, ValidationError, check_cells,
                   dumps_canonical, manifest_rows, ndtri, sigmoid)
from .rowfiles import free_bytes, matrix_head, matrix_rows, write_rows

_STREAM_LOGITS = 0
_STREAM_LABELS = 1
_STREAM_MEANS = 2

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the algorithm; keep numpy quiet about it
    with np.errstate(over="ignore"):
        z = x + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _uniforms(seed: int, stream: int, count: int, start: int = 0) -> np.ndarray:
    """count uniforms in (0, 1], keyed by (seed, stream, i) for the
    counters i in ``start:start + count``: the top 53 bits of each
    splitmix64 word, plus one half, times 2**-53.  The lowest is 2**-54;
    the top one, (2**53 - 1 + 0.5) * 2**-53, rounds to exactly 1.0, where
    :func:`~mlcalib.core.ndtri` gives +inf."""
    base = _splitmix64(_splitmix64(np.array(seed, dtype=_U64)) ^ _U64(stream))
    idx = np.arange(start, start + count, dtype=_U64)
    bits = _splitmix64(base ^ idx)
    return ((bits >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


# the lowest draw of _uniforms and the highest below 1.0
_DRAW_ENDS = np.array([2.0**-54, 1.0 - 2.0**-52])


@dataclass(frozen=True)
class LatentSpec:
    """Per-class normal logit distribution.

    ``means`` and ``stddev`` are each a scalar or a per-class vector.
    ``means`` of None derives means deterministically from the seed,
    uniform in [-3, 1], which yields the long-tailed prevalence profile
    typical of multi-label benchmarks.
    """

    means: float | tuple | None = None
    stddev: float = 2.0


@dataclass(frozen=True)
class SynthConfig:
    n: int
    c: int
    true_t: float | tuple = 1.0
    true_b: float | tuple = 0.0
    seed: int = 0
    dataset_id: str = "synth"
    clip_duration_s: float = 5.0
    latent: LatentSpec = LatentSpec()

    def __post_init__(self):
        # every setting is checked before anything is generated, by name
        if self.n < 1 or self.c < 1:
            raise ValidationError(f"N and C must be >= 1, got N={self.n}, C={self.c}")
        # past this, numpy refuses generate's N x C arrays with a ValueError,
        # and the uniforms' counters near the end of their uint64 range
        if self.n * self.c > np.iinfo(np.intp).max // 16:
            raise ValidationError(f"N x C is over the largest array, got N={self.n}, C={self.c}")
        if not 0 <= self.seed < 2**64:  # the generator keys on a uint64
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")
        try:  # a byte that is not UTF-8 reaches argv as a lone surrogate
            self.dataset_id.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(
                f"dataset_id must be UTF-8 text, got {self.dataset_id!r}") from None
        for name, value, positive in (
            ("true_T", self.true_t, True),
            ("true_b", self.true_b, False),
            ("clip_duration_s", self.clip_duration_s, True),
            ("latent stddev", self.latent.stddev, True),
            ("latent means", () if self.latent.means is None else self.latent.means, False),
        ):
            arr = np.asarray(value, dtype=np.float64)
            if not np.all(np.isfinite(arr) & (arr > 0 if positive else True)):
                rule = "finite and > 0" if positive else "finite"
                raise ValidationError(f"{name} must be {rule}, got {value}")
        # the last clip starts at (N - 1) x clip_duration_s, which must stay finite
        if self.n - 1 > sys.float_info.max / self.clip_duration_s:
            raise ValidationError(
                f"clip_duration_s is too large for N={self.n}: the last start, "
                f"{self.n - 1} x {self.clip_duration_s}, is not finite"
            )


def _per_class(value, c: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(c, float(arr))
    if arr.shape != (c,):
        raise ValidationError(f"{name} must be scalar or length-{c}, got shape {arr.shape}")
    return arr.copy()


def latent_means(cfg: SynthConfig) -> np.ndarray:
    """Resolved per-class latent means (explicit or seed-derived)."""
    if cfg.latent.means is not None:
        return _per_class(cfg.latent.means, cfg.c, "latent means")
    u = _uniforms(cfg.seed, _STREAM_MEANS, cfg.c)
    return -3.0 + 4.0 * u


@dataclass(frozen=True)
class _Plan:
    """The per-class settings of a fixture, resolved and checked."""

    classes: tuple
    means: np.ndarray
    stddev: np.ndarray
    true_t: np.ndarray
    true_b: np.ndarray
    width: int  # digits of the row number in each sample id


def _plan(cfg: SynthConfig) -> _Plan:
    """Resolve the per-class settings, and check that each class's logits
    of the lowest and highest draws below 1.0 are finite: then only the top
    draw, 1.0, can give a non-finite logit."""
    plan = _Plan(
        classes=tuple(f"class_{c:03d}" for c in range(cfg.c)),
        means=latent_means(cfg),
        stddev=_per_class(cfg.latent.stddev, cfg.c, "latent stddev"),
        true_t=_per_class(cfg.true_t, cfg.c, "true_T"),
        true_b=_per_class(cfg.true_b, cfg.c, "true_b"),
        width=max(6, len(str(cfg.n - 1))),
    )
    quantiles = ndtri(_DRAW_ENDS)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = plan.means + plan.stddev * quantiles[:, None]
    bad = ~np.isfinite(ends)
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, j]))
        raise ValidationError(
            f"the logits of {plan.classes[j]} overflow: latent mean {float(plan.means[j])!r} + "
            f"stddev {float(plan.stddev[j])!r} x {float(quantiles[k])!r} is not finite"
        )
    return plan


def _rows(cfg: SynthConfig, plan: _Plan, start: int, stop: int):
    """Rows ``start:stop`` of the fixture, from the counters ``start * C``
    to ``stop * C`` of each stream: (sample ids, start times, logits, bool
    labels).  A non-finite logit is an error that names its row and class."""
    c, count = cfg.c, (stop - start) * cfg.c
    z = plan.means + plan.stddev * ndtri(
        _uniforms(cfg.seed, _STREAM_LOGITS, count, start * c).reshape(-1, c))
    check_cells(z, "finite", plan.classes, row=start)
    with np.errstate(over="ignore"):  # z / T past the floats is +-inf, of sigmoid 1 or 0
        p_true = sigmoid(z / plan.true_t + plan.true_b)
    labels = _uniforms(cfg.seed, _STREAM_LABELS, count, start * c).reshape(-1, c) < p_true
    ids = [f"{cfg.dataset_id}-{i:0{plan.width}d}" for i in range(start, stop)]
    return ids, np.arange(start, stop) * float(cfg.clip_duration_s), z, labels


def _truth(cfg: SynthConfig, plan: _Plan) -> dict:
    return {
        "n": cfg.n,
        "c": cfg.c,
        "seed": cfg.seed,
        "dataset_id": cfg.dataset_id,
        "clip_duration_s": cfg.clip_duration_s,
        "classes": list(plan.classes),
        "latent_means": plan.means.tolist(),
        "latent_stddev": plan.stddev.tolist(),
        "true_T": plan.true_t.tolist(),
        "true_b": plan.true_b.tolist(),
    }


def generate(cfg: SynthConfig):
    """Build the synthetic EvalDataset and its ground-truth record.

    Returns (dataset, truth) where truth carries everything needed to
    reproduce or verify the fixture: sizes, seed, latent spec, and the
    generating (true_T, true_b).  The rows are those :func:`write_fixture`
    writes.
    """
    plan = _plan(cfg)
    ids, start_s, z, labels = _rows(cfg, plan, 0, cfg.n)
    meta = Manifest(sample_id=tuple(ids), dataset_id=(cfg.dataset_id,) * cfg.n,
                    start_s=start_s, duration_s=np.full(cfg.n, cfg.clip_duration_s))
    dataset = EvalDataset(classes=plan.classes, logits=z, labels=labels.astype(np.float64),
                          meta=meta)
    return dataset, _truth(cfg, plan)


def write_fixture(cfg: SynthConfig, out_dir: str) -> dict:
    """Generate and write the standard file triple plus a truth sidecar.

    Creates predictions.csv (logits), labels.csv, manifest.json, and
    truth.json under out_dir; returns the path map.  Each part generates
    and formats its own rows, and every file is replaced only once all of
    them are written (see ``rowfiles.write_rows``).  Settings whose logits
    overflow, and files larger than the free space under out_dir, fail
    before anything is generated.
    """
    plan = _plan(cfg)
    head = matrix_head(plan.classes)
    need = _least_bytes(cfg, plan, head)
    free = free_bytes(out_dir)
    if free is not None and need > free:
        raise ValidationError(f"N={cfg.n}, C={cfg.c} needs at least {need} bytes of files, "
                              f"but {out_dir} has {free} bytes free")

    def rows(start, stop):
        ids, start_s, z, labels = _rows(cfg, plan, start, stop)
        manifest = manifest_rows(ids, itertools.repeat(cfg.dataset_id), start_s.tolist(),
                                 itertools.repeat(float(cfg.clip_duration_s)), start > 0)
        return [matrix_rows(ids, z), matrix_rows(ids, labels), manifest, []]

    files = {"predictions.csv": ("CSV", head, ""), "labels.csv": ("CSV", head, ""),
             "manifest.json": ("manifest", *MANIFEST_ENDS),
             "truth.json": ("truth", dumps_canonical(_truth(cfg, plan)) + "\n", "")}
    # a row's labels and its manifest entry each format in about the time
    # of one float cell of its logits
    paths = write_rows(out_dir, files, cfg.n, cfg.n * (cfg.c + 2), rows)
    return {name.split(".")[0]: path for name, path in paths.items()}


def _least_bytes(cfg: SynthConfig, plan: _Plan, head: str) -> int:
    """A lower bound on the size of a fixture's files: every sample id has
    the same length, every logit prints in at least 3 characters and every
    time in at least 1."""
    first = f"{cfg.dataset_id}-{0:0{plan.width}d}"
    [entry] = manifest_rows([first], [cfg.dataset_id], [0], [0])
    row = 2 * (len(first.encode("utf-8")) + 1) + 6 * cfg.c + len(entry) + 2
    return 2 * len(head) + cfg.n * row
