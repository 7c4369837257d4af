"""Result serialization (JSON/CSV) and reliability-diagram rendering (SVG).

All emitters are pure functions of their inputs and byte-deterministic:
JSON floats carry 17 significant digits (lossless float64 round trip), CSV
floats are fixed at 4 decimals, and the SVG is assembled from format
strings with no timestamps or environment-dependent content.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, ValidationError, read_json
from .metrics import BinStats, CalibrationScores, ReliabilityCurve, calibration_scores

try:
    _VERSION = importlib.metadata.version("mlcalib")
except importlib.metadata.PackageNotFoundError:  # uninstalled source tree
    _VERSION = "0.0.0"

SCHEMA_VERSION = 1
NOT_APPLICABLE = "n/a (already perfect)"

CSV_COLUMNS = (
    "model",
    "scope",
    "method",
    "n_samples",
    "cmap",
    "ece",
    "mcs",
    "ocs",
    "ucs",
    "weight",
    "frequent_k",
    "frequent_mass_fraction",
    "frequent_ece",
    "frequent_mcs",
    "rare_ece",
    "rare_mcs",
    "mcs_rel_improvement_pct",
)


def relative_improvement(base_mcs: float, new_mcs: float) -> float:
    """Percent change in |MCS|: positive means closer to perfect calibration.

    Defined as 100 * (|base| - |new|) / |base|.  The definition is
    magnitude-based, so a sign flip past zero counts only as the magnitude
    change.  Raises for base_mcs = 0, where the ratio is undefined.
    """
    if base_mcs == 0.0:
        raise ValidationError("base MCS is 0 (already perfect)")
    return 100.0 * (abs(base_mcs) - abs(new_mcs)) / abs(base_mcs)


@dataclass(frozen=True)
class ReportRow:
    """One (scope, method) result row."""

    model: str
    scope: str
    method: str
    n_samples: int
    cmap: float | None
    scores: CalibrationScores
    frequent_classes: tuple | None = None
    frequent_k: int | None = None
    frequent_mass_fraction: float | None = None
    frequent_scores: CalibrationScores | None = None
    rare_classes: tuple | None = None
    rare_scores: CalibrationScores | None = None
    per_class: tuple | None = None
    rel_improvement_mcs: float | str | None = None
    params_ref: str | None = None


@dataclass(frozen=True)
class CurveEntry:
    scope: str
    method: str
    curve: ReliabilityCurve


@dataclass(frozen=True)
class Report:
    config: dict
    rows: tuple
    curves: tuple
    params: dict
    split_summary: dict | None = None
    tool: str = "mlcalib"
    version: str = _VERSION


def _scores_dict(s: CalibrationScores) -> dict:
    return {"ece": s.ece, "mcs": s.mcs, "ocs": s.ocs, "ucs": s.ucs, "weight": s.weight}


def _row_dict(row: ReportRow) -> dict:
    doc = {
        "model": row.model,
        "scope": row.scope,
        "method": row.method,
        "n_samples": row.n_samples,
        "cmap": row.cmap,
    }
    doc.update(_scores_dict(row.scores))
    if row.frequent_scores is not None:
        doc["frequent"] = {
            "k": row.frequent_k,
            "mass_fraction": row.frequent_mass_fraction,
            "classes": list(row.frequent_classes),
        }
        doc["frequent"].update(_scores_dict(row.frequent_scores))
    else:
        doc["frequent"] = None
    if row.rare_scores is not None:
        doc["rare"] = {"classes": list(row.rare_classes)}
        doc["rare"].update(_scores_dict(row.rare_scores))
    else:
        doc["rare"] = None
    if row.per_class is not None:
        doc["per_class"] = [
            {
                "class": m.class_id,
                "ap": m.ap,
                "n_pos": m.n_pos,
                "ece": m.scores.ece,
                "mcs": m.scores.mcs,
                "ocs": m.scores.ocs,
                "ucs": m.scores.ucs,
            }
            for m in row.per_class
        ]
    else:
        doc["per_class"] = None
    doc["mcs_rel_improvement_pct"] = row.rel_improvement_mcs
    doc["params_ref"] = row.params_ref
    return doc


_BIN_FIELDS = ("index", "lower", "upper", "count", "conf", "acc")


def _curve_dict(entry: CurveEntry) -> dict:
    return {
        "scope": entry.scope,
        "method": entry.method,
        "n": entry.curve.n,
        "bins": [{key: getattr(b, key) for key in _BIN_FIELDS} for b in entry.curve.bins],
    }


def report_field(doc, key: str, where: str):
    """``doc[key]`` of an entry read back from a report; a missing key is a
    ValidationError naming it and the kind of entry (``where``)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"report {where} lacks key {key!r}")
    return doc[key]


def curve_from_dict(doc: dict) -> ReliabilityCurve:
    """Rebuild the curve of one ``curves`` entry of a report document."""
    bins = tuple(
        BinStats(*(report_field(b, key, "curve bin") for key in _BIN_FIELDS))
        for b in report_field(doc, "bins", "curve")
    )
    return ReliabilityCurve(
        bins=bins, n=report_field(doc, "n", "curve"), scope=report_field(doc, "scope", "curve")
    )


def report_to_dict(report: Report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": report.tool, "version": report.version},
        "config": report.config,
        "split": report.split_summary,
        "params": report.params,
        "rows": [_row_dict(r) for r in report.rows],
        "curves": [_curve_dict(c) for c in report.curves],
    }


def _write_json(obj, out: list, level: int, indent: int):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError(f"non-finite value in report: {x!r}")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad_in)
            out.append(json.dumps(key))
            out.append(": ")
            _write_json(val, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _write_json(val, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_canonical(obj, indent: int = 2) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-significant-digit
    floats (so float64 values survive a parse round trip bit-exactly)."""
    out: list = []
    _write_json(obj, out, 0, indent)
    return "".join(out)


def _csv_float(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, str):
        return x
    return format(float(x), ".4f")


def _csv_row(row: ReportRow) -> list:
    return [
        row.model,
        row.scope,
        row.method,
        str(row.n_samples),
        _csv_float(row.cmap),
        _csv_float(row.scores.ece),
        _csv_float(row.scores.mcs),
        _csv_float(row.scores.ocs),
        _csv_float(row.scores.ucs),
        _csv_float(row.scores.weight),
        "n/a" if row.frequent_k is None else str(row.frequent_k),
        _csv_float(row.frequent_mass_fraction),
        _csv_float(None if row.frequent_scores is None else row.frequent_scores.ece),
        _csv_float(None if row.frequent_scores is None else row.frequent_scores.mcs),
        _csv_float(None if row.rare_scores is None else row.rare_scores.ece),
        _csv_float(None if row.rare_scores is None else row.rare_scores.mcs),
        _csv_float(row.rel_improvement_mcs),
    ]


def emit_report(report: Report, fmt: str, path: str):
    """Write the report as schema-versioned JSON or flat CSV."""
    if fmt == "json":
        text = dumps_canonical(report_to_dict(report)) + "\n"
    elif fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report.rows:
            cells = []
            for cell in _csv_row(row):
                if "," in cell or '"' in cell:
                    cell = '"' + cell.replace('"', '""') + '"'
                cells.append(cell)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write report to {path}: {exc}") from exc


def load_report(path: str) -> dict:
    doc = read_json(path, "report")
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValidationError(f"report file {path} is not a report document")
    return doc


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W = 560
_H = 560
_LEFT = 70.0
_TOP = 50.0
_SIZE = 450.0


def _sx(v: float) -> str:
    return format(_LEFT + v * _SIZE, ".2f")


def _sy(v: float) -> str:
    return format(_TOP + (1.0 - v) * _SIZE, ".2f")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_reliability_svg(curves, labels=None, mcs_values=None, title: str | None = None) -> str:
    """Render reliability curves into a standalone SVG document.

    Draws the identity diagonal, one polyline per curve through its
    occupied bins at (mean confidence, empirical frequency), markers sized
    by bin count, and a legend carrying each curve's MCS.  Empty bins leave
    a gap rather than a zero vertex.
    """
    curves = list(curves)
    if not curves:
        raise ValidationError("render_reliability_svg needs at least one curve")
    if labels is None:
        labels = [c.scope for c in curves]
    if mcs_values is None:
        mcs_values = [calibration_scores(c).mcs for c in curves]
    if len(labels) != len(curves) or len(mcs_values) != len(curves):
        raise ValidationError("labels and mcs_values must match curves in length")

    max_count = 0
    for c in curves:
        for b in c.bins:
            max_count = max(max_count, b.count)
    if max_count == 0:
        raise ValidationError("all curve bins are empty")

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<rect x="{_sx(0.0)}" y="{_sy(1.0)}" width="{_SIZE:.2f}" height="{_SIZE:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for i in range(6):
        v = i / 5.0
        tick = format(v, ".1f")
        lines.append(
            f'<line x1="{_sx(v)}" y1="{_sy(0.0)}" x2="{_sx(v)}" y2="{float(_sy(0.0)) + 5:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_sx(v)}" y="{float(_sy(0.0)) + 20:.2f}" font-size="12" '
            f'text-anchor="middle" fill="#333333" font-family="sans-serif">{tick}</text>'
        )
        lines.append(
            f'<line x1="{float(_sx(0.0)) - 5:.2f}" y1="{_sy(v)}" x2="{_sx(0.0)}" y2="{_sy(v)}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{float(_sx(0.0)) - 9:.2f}" y="{float(_sy(v)) + 4:.2f}" font-size="12" '
            f'text-anchor="end" fill="#333333" font-family="sans-serif">{tick}</text>'
        )
    lines.append(
        f'<line x1="{_sx(0.0)}" y1="{_sy(0.0)}" x2="{_sx(1.0)}" y2="{_sy(1.0)}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    lines.append(
        f'<text x="{float(_sx(0.5)):.2f}" y="{_H - 12}" font-size="14" text-anchor="middle" '
        f'fill="#333333" font-family="sans-serif">mean predicted probability</text>'
    )
    lines.append(
        f'<text x="18" y="{float(_sy(0.5)):.2f}" font-size="14" text-anchor="middle" '
        f'fill="#333333" font-family="sans-serif" '
        f'transform="rotate(-90 18 {float(_sy(0.5)):.2f})">empirical positive frequency</text>'
    )
    if title:
        lines.append(
            f'<text x="{_W / 2:.2f}" y="28" font-size="16" text-anchor="middle" '
            f'fill="#111111" font-family="sans-serif">{_esc(title)}</text>'
        )

    for ci, curve in enumerate(curves):
        color = _PALETTE[ci % len(_PALETTE)]
        occupied = [b for b in curve.bins if b.count > 0]
        points = " ".join(f"{_sx(b.conf)},{_sy(b.acc)}" for b in occupied)
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for b in occupied:
            radius = 1.5 + 6.5 * math.sqrt(b.count / max_count)
            lines.append(
                f'<circle cx="{_sx(b.conf)}" cy="{_sy(b.acc)}" r="{radius:.2f}" '
                f'fill="{color}" fill-opacity="0.45" stroke="{color}" stroke-width="1"/>'
            )

    legend_x = float(_sx(0.0)) + 12
    for ci, (label, mcs) in enumerate(zip(labels, mcs_values)):
        color = _PALETTE[ci % len(_PALETTE)]
        y = float(_sy(1.0)) + 18 + 18 * ci
        lines.append(
            f'<line x1="{legend_x:.2f}" y1="{y - 4:.2f}" x2="{legend_x + 22:.2f}" '
            f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="3"/>'
        )
        lines.append(
            f'<text x="{legend_x + 28:.2f}" y="{y:.2f}" font-size="12" fill="#111111" '
            f'font-family="sans-serif">{_esc(label)} MCS={format(float(mcs), "+.4f")}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
