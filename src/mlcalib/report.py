"""Result serialization (JSON/CSV) and reliability-diagram rendering (SVG).

All emitters are byte-deterministic: JSON is ``core.dumps_canonical``
text (17 significant digits, a lossless float64 round trip), CSV floats
have 4 decimals and cells quoted by ``core.csv_field``, and the SVG comes
from format strings with no timestamps or environment-dependent content.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
from dataclasses import dataclass

from .core import ValidationError, csv_field, dumps_canonical, output_file, read_json
from .metrics import BinStats, CalibrationScores, ReliabilityCurve, calibration_scores

try:
    VERSION = importlib.metadata.version("mlcalib")
except importlib.metadata.PackageNotFoundError:  # uninstalled source tree
    VERSION = "0.0.0"

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
    version: str = VERSION


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


# each bin field and the JSON kind report_field reads it as
_BIN_FIELDS = {"index": "count", "lower": "unit", "upper": "unit", "count": "count",
               "conf": "unit", "acc": "unit"}


def _curve_dict(entry: CurveEntry) -> dict:
    return {
        "scope": entry.scope,
        "method": entry.method,
        "n": entry.curve.n,
        "bins": [{key: getattr(b, key) for key in _BIN_FIELDS} for b in entry.curve.bins],
    }


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON kinds of report_field: a description and a test of the value
_KINDS = {
    "list": ("a list", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "number": ("a finite number", lambda v: _number(v) and math.isfinite(v)),
    "count": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "unit": ("a number in [0, 1]", lambda v: _number(v) and 0.0 <= v <= 1.0),
    "null": ("null", lambda v: v is None),
}


def report_field(doc, key: str, where: str, kind: str):
    """``doc[key]`` of an entry read back from a report, which must be of
    the JSON ``kind`` (a key of ``_KINDS``).  A missing key or a value of
    another kind is a ValidationError naming the key and the kind of entry
    (``where``)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"report {where} lacks key {key!r}")
    value = doc[key]
    name, test = _KINDS[kind]
    if not test(value):
        raise ValidationError(
            f"report {where} key {key!r} must be {name}, got {json.dumps(value)}"
        )
    return value


def curve_from_dict(doc: dict) -> ReliabilityCurve:
    """Rebuild the curve of one ``curves`` entry of a report document.  Each
    field is checked as the writer writes it: an empty bin's conf and acc
    are null."""
    bins = []
    for b in report_field(doc, "bins", "curve", "list"):
        empty = report_field(b, "count", "curve bin", "count") == 0
        bins.append(BinStats(*(
            report_field(b, key, "curve bin", "null" if empty and key in ("conf", "acc") else kind)
            for key, kind in _BIN_FIELDS.items()
        )))
    return ReliabilityCurve(bins=tuple(bins), n=report_field(doc, "n", "curve", "count"),
                            scope=report_field(doc, "scope", "curve", "string"))


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
        rows = [CSV_COLUMNS, *map(_csv_row, report.rows)]
        text = "".join(",".join(map(csv_field, row)) + "\n" for row in rows)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    with output_file(path, "report") as fh:
        fh.write(text)


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
