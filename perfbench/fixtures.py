"""Fixture builder: drives only ``mlcalib synth``.

A fixture is one predictions / labels / manifest triple.  Multi-site
fixtures are synthesised one site at a time and concatenated, so the
program sees a single file triple whose manifest carries several
dataset_ids.  Every fixture is fingerprinted (bytes, N x C, sha256) so that
two runs can show their inputs were identical for a given seed.
"""

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass

import procs

TRIPLE = ("predictions.csv", "labels.csv", "manifest.json")
PARAMS = "params.json"


@dataclass(frozen=True)
class Site:
    dataset_id: str
    n: int
    seed: int


@dataclass(frozen=True)
class FixtureSpec:
    sites: tuple
    classes: int
    true_t: str
    true_b: str
    stddev: float = 2.0
    # also write params.json holding the generating (T, b) of each class
    truth_params: bool = False

    @property
    def n(self):
        return sum(site.n for site in self.sites)

    @property
    def cells(self):
        return self.n * self.classes

    def synth_args(self, site, out_dir):
        return [
            "synth",
            "--n", str(site.n),
            "--classes", str(self.classes),
            f"--true-t={self.true_t}",
            f"--true-b={self.true_b}",
            "--stddev", repr(self.stddev),
            "--seed", str(site.seed),
            "--dataset-id", site.dataset_id,
            "--out", out_dir,
        ]


def build(spec, out_dir, env, log_path, spans_out=None):
    """Synthesise the fixture into out_dir in one child interpreter.

    With ``spans_out`` the child is traced.  Returns the synth child's
    ChildRun; a non-zero code means the fixture is unusable.
    """
    os.makedirs(out_dir)
    single = len(spec.sites) == 1
    parts = [out_dir] if single else [os.path.join(out_dir, "parts", s.dataset_id) for s in spec.sites]
    plan = {
        "commands": [spec.synth_args(site, part) for site, part in zip(spec.sites, parts)],
        "trace": spans_out is not None,
        "spans_out": spans_out,
    }
    plan_path = out_dir.rstrip("/") + ".plan.json"
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    child = procs.run(procs.in_process(plan_path), env, log_path)
    if child.code != 0:
        return child
    if not single:
        _concatenate(parts, out_dir)
        shutil.rmtree(os.path.join(out_dir, "parts"))
    if spec.truth_params:
        _write_truth_params(spec, out_dir)
    return child


def _concatenate(parts, out_dir):
    for name in ("predictions.csv", "labels.csv"):
        with open(os.path.join(out_dir, name), "w", newline="") as out:
            for k, part in enumerate(parts):
                with open(os.path.join(part, name), newline="") as fh:
                    header = fh.readline()
                    if k == 0:
                        out.write(header)
                    shutil.copyfileobj(fh, out)
    bodies = []
    for part in parts:
        with open(os.path.join(part, "manifest.json")) as fh:
            text = fh.read()
        bodies.append(text[text.index("[") + 1 : text.rindex("]")].strip("\n"))
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="") as out:
        out.write("[\n" + ",\n".join(bodies) + "\n]\n")


def per_class(text, c):
    values = [float(v) for v in str(text).split(",")]
    return values * c if len(values) == 1 else values


def _write_truth_params(spec, out_dir):
    with open(os.path.join(out_dir, "predictions.csv")) as fh:
        classes = fh.readline().rstrip("\n").split(",")[1:]
    t = per_class(spec.true_t, spec.classes)
    b = per_class(spec.true_b, spec.classes)
    doc = {
        "method": "ps",
        "scope": "per-class",
        "classes": classes,
        "tau": [math.log(v) for v in t],
        "T": t,
        "b": b,
        "fitted_on": "generator truth",
    }
    with open(os.path.join(out_dir, PARAMS), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fingerprint(spec, out_dir):
    names = TRIPLE + ((PARAMS,) if spec.truth_params else ())
    files = {}
    for name in names:
        path = os.path.join(out_dir, name)
        files[name] = {"bytes": os.path.getsize(path), "sha256": sha256(path)}
    return {
        "n": spec.n,
        "c": spec.classes,
        "cells": spec.cells,
        "bytes": sum(f["bytes"] for f in files.values()),
        "files": files,
    }
