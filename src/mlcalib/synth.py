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

:func:`write_fixture` writes each file through ``core.write_rows``, in row
parts.  predictions.csv holds the ``repr`` of each logit.  labels.csv is
written from a bool matrix, whose text comes from one uint8 matrix per
part: a ``0`` or ``1`` byte per cell, with the commas and line ends
between them.  Each manifest row is one string template filled with the
``json.dumps`` of its ids and the ``.17g`` text of its times: the bytes
``dumps_canonical`` gives for the list of row objects, without building
them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .core import (EvalDataset, Manifest, ValidationError, dumps_canonical, ndtri, output_file,
                   output_paths, sigmoid, write_matrix_csv, write_rows)

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


def _uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1], keyed by (seed, stream, i): the top 53
    bits of each splitmix64 word, plus one half, times 2**-53.  The lowest
    is 2**-54; the top one, (2**53 - 1 + 0.5) * 2**-53, rounds to exactly
    1.0, where :func:`~mlcalib.core.ndtri` gives +inf."""
    base = _splitmix64(_splitmix64(np.array(seed, dtype=_U64)) ^ _U64(stream))
    idx = np.arange(count, dtype=_U64)
    bits = _splitmix64(base ^ idx)
    return ((bits >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class LatentSpec:
    """Per-class normal logit distribution.

    ``means`` is one mean per class; None derives means deterministically
    from the seed, uniform in [-3, 1], which yields the long-tailed
    prevalence profile typical of multi-label benchmarks.  ``stddev`` is a
    scalar or per-class vector.
    """

    means: tuple | None = None
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
        # past this, numpy refuses the N x C arrays with a ValueError, not a MemoryError
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
        return _per_class(tuple(cfg.latent.means), cfg.c, "latent means")
    u = _uniforms(cfg.seed, _STREAM_MEANS, cfg.c)
    return -3.0 + 4.0 * u


def generate(cfg: SynthConfig):
    """Build the synthetic EvalDataset and its ground-truth record.

    Returns (dataset, truth) where truth carries everything needed to
    reproduce or verify the fixture: sizes, seed, latent spec, and the
    generating (true_T, true_b).
    """
    means = latent_means(cfg)
    stddev = _per_class(cfg.latent.stddev, cfg.c, "latent stddev")
    true_t = _per_class(cfg.true_t, cfg.c, "true_T")
    true_b = _per_class(cfg.true_b, cfg.c, "true_b")

    count = cfg.n * cfg.c
    u_z = _uniforms(cfg.seed, _STREAM_LOGITS, count).reshape(cfg.n, cfg.c)
    u_y = _uniforms(cfg.seed, _STREAM_LABELS, count).reshape(cfg.n, cfg.c)
    z = means + stddev * ndtri(u_z)
    p_true = sigmoid(z / true_t + true_b)
    labels = (u_y < p_true).astype(np.float64)

    width = max(6, len(str(cfg.n - 1)))
    meta = Manifest(
        sample_id=tuple(f"{cfg.dataset_id}-{i:0{width}d}" for i in range(cfg.n)),
        dataset_id=(cfg.dataset_id,) * cfg.n,
        start_s=np.arange(cfg.n) * cfg.clip_duration_s,
        duration_s=np.full(cfg.n, cfg.clip_duration_s),
    )
    classes = tuple(f"class_{c:03d}" for c in range(cfg.c))
    dataset = EvalDataset(classes=classes, logits=z, labels=labels, meta=meta)
    truth = {
        "n": cfg.n,
        "c": cfg.c,
        "seed": cfg.seed,
        "dataset_id": cfg.dataset_id,
        "clip_duration_s": cfg.clip_duration_s,
        "classes": list(classes),
        "latent_means": [float(m) for m in means],
        "latent_stddev": [float(s) for s in stddev],
        "true_T": [float(t) for t in true_t],
        "true_b": [float(b) for b in true_b],
    }
    return dataset, truth


def write_fixture(cfg: SynthConfig, out_dir: str) -> dict:
    """Generate and write the standard file triple plus a truth sidecar.

    Creates predictions.csv (logits), labels.csv, manifest.json, and
    truth.json under out_dir; returns the path map.
    """
    dataset, truth = generate(cfg)
    files = {"predictions.csv": "CSV", "labels.csv": "CSV", "manifest.json": "manifest",
             "truth.json": "truth"}
    paths = {name.split(".")[0]: path for name, path in output_paths(out_dir, files).items()}
    meta = dataset.meta
    write_matrix_csv(paths["predictions"], dataset.classes, meta.sample_id, dataset.logits)
    # bool cells print as 0 and 1, as labels files carry them
    write_matrix_csv(paths["labels"], dataset.classes, meta.sample_id, dataset.labels == 1.0)
    # a manifest row formats in about the time of one float cell of a CSV
    write_rows(paths["manifest"], "manifest", "[\n", cfg.n, cfg.n,
               lambda start, stop: _manifest_rows(meta, start, stop), "\n]\n")
    with output_file(paths["truth"], "truth") as fh:
        fh.write(dumps_canonical(truth) + "\n")
    return paths


# one manifest row as dumps_canonical writes it in a list: JSON strings for
# the ids, 17 significant digits for the times
_MANIFEST_ROW = ('  {{\n    "sample_id": {},\n    "dataset_id": {},\n'
                 '    "start_s": {:.17g},\n    "duration_s": {:.17g}\n  }}')


def _manifest_rows(meta: Manifest, start: int, stop: int) -> list:
    """The text of rows ``start:stop`` of manifest.json, the same bytes as
    dumps_canonical gives for the list of row objects: every row but the
    first starts with the comma that ends the one before."""
    if start == stop:
        return []
    datasets = [json.dumps(name) for name in meta.datasets]
    rows = map(_MANIFEST_ROW.format, map(json.dumps, meta.sample_id[start:stop]),
               map(datasets.__getitem__, meta.codes[start:stop].tolist()),
               meta.start_s[start:stop].tolist(), meta.duration_s[start:stop].tolist())
    return [((",\n" if start else "") + ",\n".join(rows)).encode("utf-8")]
