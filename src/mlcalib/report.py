"""The report document: the one module that builds, renders, reads and
draws it.

:func:`emit_report` builds a run's document once and returns it with its
JSON or CSV text, which the caller writes; :func:`plot_scope` and
:func:`scope_curves` read a scope's diagram back from a document, for
--svg and for plot alike.
Every output is byte-deterministic: JSON is ``core.dumps_canonical`` text
(each float its repr, a lossless float64 round trip), a CSV cell comes
from a row document through ``CSV_COLUMNS`` and is quoted by
``rowfiles.csv_field``, and the SVG comes from format strings with no
timestamps or environment-dependent content.  Each field read back is
checked by ``core.json_field``, as the writer writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import __version__
from .core import ValidationError, dumps_canonical, json_field, read_json
from .metrics import BinStats, CalibrationScores, ReliabilityCurve, calibration_scores
from .rowfiles import csv_field


SCHEMA_VERSION = 2  # 2: a float prints as its repr; a version-1 document still loads
NOT_APPLICABLE = "n/a (already perfect)"

ALL_SCOPE = "All"
# the --scope values of plot that mean the All scope, or the only scope,
# where no scope has that name
POOLED_ALIASES = ("pooled", "all")

# each CSV column and the path of its cell in a row document
CSV_COLUMNS = {
    "model": ("model",),
    "scope": ("scope",),
    "method": ("method",),
    "n_samples": ("n_samples",),
    "cmap": ("cmap",),
    "ece": ("ece",),
    "mcs": ("mcs",),
    "ocs": ("ocs",),
    "ucs": ("ucs",),
    "weight": ("weight",),
    "frequent_k": ("frequent", "k"),
    "frequent_mass_fraction": ("frequent", "mass_fraction"),
    "frequent_ece": ("frequent", "ece"),
    "frequent_mcs": ("frequent", "mcs"),
    "rare_ece": ("rare", "ece"),
    "rare_mcs": ("rare", "mcs"),
    "mcs_rel_improvement_pct": ("mcs_rel_improvement_pct",),
}
# the columns printed as integers; every other number has 4 decimals
_CSV_COUNTS = ("n_samples", "frequent_k")


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
    version: str = __version__


def _scores_dict(s: CalibrationScores, keys=("ece", "mcs", "ocs", "ucs", "weight")) -> dict:
    return {key: getattr(s, key) for key in keys}


def _row_dict(row: ReportRow) -> dict:
    return {
        "model": row.model,
        "scope": row.scope,
        "method": row.method,
        "n_samples": row.n_samples,
        "cmap": row.cmap,
        **_scores_dict(row.scores),
        "frequent": None if row.frequent_scores is None else {
            "k": row.frequent_k,
            "mass_fraction": row.frequent_mass_fraction,
            "classes": list(row.frequent_classes),
            **_scores_dict(row.frequent_scores),
        },
        "rare": None if row.rare_scores is None else {
            "classes": list(row.rare_classes),
            **_scores_dict(row.rare_scores),
        },
        # a class's weight is its n_pos, which the entry already holds
        "per_class": None if row.per_class is None else [
            {
                "class": m.class_id,
                "ap": m.ap,
                "n_pos": m.n_pos,
                **_scores_dict(m.scores, ("ece", "mcs", "ocs", "ucs")),
            }
            for m in row.per_class
        ],
        "mcs_rel_improvement_pct": row.rel_improvement_mcs,
        "params_ref": row.params_ref,
    }


# each bin field and the JSON kind core.json_field reads it as
_BIN_FIELDS = {"index": "count", "lower": "unit", "upper": "unit", "count": "count",
               "conf": "unit", "acc": "unit"}


def _curve_dict(entry: CurveEntry) -> dict:
    return {
        "scope": entry.scope,
        "method": entry.method,
        "n": entry.curve.n,
        "bins": [{key: getattr(b, key) for key in _BIN_FIELDS} for b in entry.curve.bins],
    }


def curve_from_dict(doc: dict) -> ReliabilityCurve:
    """Rebuild the curve of one ``curves`` entry of a report document.  Each
    field is checked as the writer writes it: an empty bin's conf and acc
    are null."""
    bins = []
    for b in json_field(doc, "bins", "report curve", "list"):
        empty = json_field(b, "count", "report curve bin", "count") == 0
        bins.append(BinStats(*(
            json_field(b, key, "report curve bin",
                       "null" if empty and key in ("conf", "acc") else kind)
            for key, kind in _BIN_FIELDS.items()
        )))
    return ReliabilityCurve(bins=tuple(bins), n=json_field(doc, "n", "report curve", "count"),
                            scope=json_field(doc, "scope", "report curve", "string"))


def report_to_dict(report: Report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "mlcalib", "version": report.version},
        "config": report.config,
        "split": report.split_summary,
        "params": report.params,
        "rows": [_row_dict(r) for r in report.rows],
        "curves": [_curve_dict(c) for c in report.curves],
    }


def _csv_cell(row: dict, column: str) -> str:
    value = row
    for key in CSV_COLUMNS[column]:
        value = None if value is None else value[key]
    if value is None:
        return "n/a"
    if isinstance(value, str) or column in _CSV_COUNTS:
        return str(value)
    return format(float(value), ".4f")


def emit_report(report: Report, fmt: str):
    """The report's document and its text, schema-versioned JSON or flat
    CSV with one line per row; both texts are made from the document."""
    doc = report_to_dict(report)
    if fmt == "json":
        text = dumps_canonical(doc) + "\n"
    elif fmt == "csv":
        lines = [CSV_COLUMNS, *([_csv_cell(row, column) for column in CSV_COLUMNS]
                                for row in doc["rows"])]
        text = "".join(",".join(map(csv_field, line)) + "\n" for line in lines)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    return doc, text


def load_report(path: str) -> dict:
    doc = read_json(path, "report")
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValidationError(f"report file {path} is not a report document")
    return doc


def plot_scope(doc: dict, wanted: str | None, path: str) -> str:
    """The scope of the report document ``doc``, read from ``path``, that
    ``plot --scope wanted`` draws.  A scope's own name always wins; a
    POOLED_ALIASES value in any case, or None, picks the All scope or,
    without one, the first."""
    curves = json_field(doc, "curves", "report document", "list")
    if not curves:
        raise ValidationError(f"report {path} carries no curves")
    scopes = list(dict.fromkeys(json_field(c, "scope", "report curve", "string") for c in curves))
    if wanted in scopes:
        return wanted
    if wanted is None or wanted.lower() in POOLED_ALIASES:
        return ALL_SCOPE if ALL_SCOPE in scopes else scopes[0]
    raise ValidationError(f"scope {wanted!r} not in report (available: {', '.join(scopes)})")


def scope_curves(doc: dict, scope: str):
    """One scope's diagram from a report document, as the curves, labels
    and MCS values :func:`render_reliability_svg` takes: every method's
    pooled curve, and the MCS of the matching rows."""
    curves = json_field(doc, "curves", "report document", "list")
    entries = [c for c in curves if json_field(c, "scope", "report curve", "string") == scope]
    methods = [json_field(entry, "method", "report curve", "string") for entry in entries]
    rows = json_field(doc, "rows", "report document", "list")
    mcs_values = []
    for method in methods:
        row = next((r for r in rows if json_field(r, "scope", "report row", "string") == scope
                    and json_field(r, "method", "report row", "string") == method), None)
        if row is None:
            raise ValidationError(f"report row missing for scope {scope!r} method {method!r}")
        mcs_values.append(json_field(row, "mcs", "report row", "finite"))
    return [curve_from_dict(entry) for entry in entries], methods, mcs_values


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
