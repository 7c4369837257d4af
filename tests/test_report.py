import json
import math
import os
import pathlib

import numpy as np
import pytest

from mlcalib.core import NumericalError, ValidationError
from mlcalib.metrics import CalibrationScores, bin_class
from mlcalib.report import (
    CSV_COLUMNS,
    NOT_APPLICABLE,
    CurveEntry,
    Report,
    ReportRow,
    _curve_dict,
    curve_from_dict,
    dumps_canonical,
    emit_report,
    load_report,
    plot_scope,
    relative_improvement,
    render_reliability_svg,
    report_to_dict,
    scope_curves,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _scores(ocs, ucs, weight=10.0):
    return CalibrationScores.from_components(ocs, ucs, scope="s", weight=weight)


def _fixed_curves():
    base = bin_class([0.05, 0.15, 0.45, 0.55, 0.85, 0.95], [0, 0, 1, 0, 1, 1], 5, scope="All")
    scaled = bin_class([0.15, 0.25, 0.45, 0.50, 0.75, 0.85], [0, 0, 1, 0, 1, 1], 5, scope="All")
    return base, scaled


def _fixed_report():
    base, scaled = _fixed_curves()
    rows = (
        ReportRow(
            model="demo", scope="All", method="base", n_samples=6, cmap=0.75,
            scores=_scores(0.12, 0.03),
            frequent_classes=("a",), frequent_k=1, frequent_mass_fraction=0.6,
            frequent_scores=_scores(0.10, 0.02, weight=6.0),
            rare_classes=("b",), rare_scores=_scores(0.15, 0.045, weight=4.0),
            per_class=None, rel_improvement_mcs=None, params_ref=None,
        ),
        ReportRow(
            model="demo", scope="All", method="ts/global", n_samples=6, cmap=0.75,
            scores=_scores(0.02, 0.01),
            frequent_classes=("a",), frequent_k=1, frequent_mass_fraction=0.6,
            frequent_scores=_scores(0.02, 0.005, weight=6.0),
            rare_classes=("b",), rare_scores=_scores(0.02, 0.02, weight=4.0),
            per_class=None, rel_improvement_mcs=88.8888888888889, params_ref="ts/global",
        ),
    )
    curves = (
        CurveEntry(scope="All", method="base", curve=base),
        CurveEntry(scope="All", method="ts/global", curve=scaled),
    )
    return Report(
        config={"bins": 5, "eps": 1e-07, "out": "demo"},
        rows=rows,
        curves=curves,
        params={"ts/global": {"method": "ts", "scope": "global", "tau": 0.5, "T": math.exp(0.5), "b": 0}},
        split_summary={"kind": "first-minutes", "minutes": 10, "calib_dataset": None,
                       "n_calibration": 2, "n_evaluation": 6},
        version="0.0.0-test",
    )


class TestRelativeImprovement:
    def test_printed_table_example(self):
        assert relative_improvement(-10.99, -9.94) == pytest.approx(9.6, abs=0.1)

    def test_sign_flip_counts_magnitude_only(self):
        assert relative_improvement(4.0, -4.0) == 0.0

    def test_full_improvement(self):
        assert relative_improvement(-0.2, 0.0) == 100.0

    def test_worsening_is_negative(self):
        assert relative_improvement(0.1, -0.3) == pytest.approx(-200.0)

    def test_zero_base_rejected(self):
        with pytest.raises(ValidationError, match="already perfect"):
            relative_improvement(0.0, 0.1)


class TestCanonicalJson:
    def test_floats_round_trip_exactly(self):
        vals = [0.1, 1e-300, 1.7976931348623157e308, -2.2250738585072014e-308,
                0.30000000000000004, 123456789.123456789]
        text = dumps_canonical({"v": vals})
        assert json.loads(text)["v"] == vals

    def test_key_order_is_insertion_order(self):
        text = dumps_canonical({"zebra": 1, "alpha": 2})
        assert text.index("zebra") < text.index("alpha")

    def test_scalar_rendering(self):
        text = dumps_canonical({"t": True, "f": False, "n": None, "i": 42, "s": "x\"y"})
        doc = json.loads(text)
        assert doc == {"t": True, "f": False, "n": None, "i": 42, "s": 'x"y'}
        assert '"i": 42' in text  # ints stay ints, not floats

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            dumps_canonical({"bad": float("nan")})
        with pytest.raises(NumericalError):
            dumps_canonical([float("inf")])

    def test_deterministic(self):
        doc = {"a": [1.5, {"b": None}], "c": "text"}
        assert dumps_canonical(doc) == dumps_canonical(doc)


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = _fixed_report()
        path = str(tmp_path / "report.json")
        emit_report(report, "json", path)
        doc = load_report(path)
        assert doc["schema_version"] == 1
        assert doc["tool"]["name"] == "mlcalib"
        assert doc["config"]["bins"] == 5
        assert doc["split"]["n_evaluation"] == 6
        assert len(doc["rows"]) == 2 and len(doc["curves"]) == 2
        base = doc["rows"][0]
        assert base["ece"] == 0.12 + 0.03
        assert base["mcs"] == 0.12 - 0.03
        assert base["frequent"]["k"] == 1
        assert base["mcs_rel_improvement_pct"] is None
        assert doc["rows"][1]["params_ref"] == "ts/global"

    def test_csv_layout(self, tmp_path):
        report = _fixed_report()
        path = str(tmp_path / "report.csv")
        emit_report(report, "csv", path)
        lines = pathlib.Path(path).read_bytes().decode("utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        row = dict(zip(CSV_COLUMNS, cells))
        assert row["model"] == "demo"
        assert row["ece"] == "0.1500"
        assert row["mcs"] == "0.0900"
        assert row["mcs_rel_improvement_pct"] == "n/a"
        row2 = dict(zip(CSV_COLUMNS, lines[2].split(",")))
        assert row2["mcs_rel_improvement_pct"] == "88.8889"

    def test_not_applicable_marker_passes_through(self, tmp_path):
        base, _ = _fixed_curves()
        row = ReportRow(
            model="m", scope="s", method="ts/global", n_samples=6, cmap=None,
            scores=_scores(0.1, 0.0), rel_improvement_mcs=NOT_APPLICABLE,
        )
        report = Report(config={}, rows=(row,), curves=(), params={}, version="0.0.0-test")
        path = str(tmp_path / "r.csv")
        emit_report(report, "csv", path)
        assert NOT_APPLICABLE in pathlib.Path(path).read_bytes().decode("utf-8")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report(_fixed_report(), "xml", str(tmp_path / "r.xml"))

    def test_curve_round_trip(self):
        for curve in _fixed_curves():
            doc = _curve_dict(CurveEntry(scope="All", method="base", curve=curve))
            back = curve_from_dict(json.loads(dumps_canonical(doc)))
            assert (back.n, back.scope) == (curve.n, curve.scope)
            assert len(back.bins) == len(curve.bins)
            for got, want in zip(back.bins, curve.bins):
                assert got == want

    def test_golden_json_bytes(self):
        want = pathlib.Path(GOLDEN, "report.json").read_bytes()
        got = (dumps_canonical(report_to_dict(_fixed_report())) + "\n").encode()
        assert got == want


class TestReadBack:
    def test_document_draws_the_golden_diagram(self, tmp_path):
        doc = emit_report(_fixed_report(), "json", str(tmp_path / "report.json"))
        assert doc == load_report(str(tmp_path / "report.json"))
        svg = render_reliability_svg(*scope_curves(doc, "All"), title="All")
        assert svg == pathlib.Path(GOLDEN, "reliability.svg").read_bytes().decode("utf-8")

    def test_row_missing_for_a_curve(self):
        doc = report_to_dict(_fixed_report())
        doc["rows"] = doc["rows"][:1]
        with pytest.raises(ValidationError,
                           match="report row missing for scope 'All' method 'ts/global'"):
            scope_curves(doc, "All")

    def test_report_without_curves(self):
        doc = dict(report_to_dict(_fixed_report()), curves=[])
        with pytest.raises(ValidationError, match="report r.json carries no curves"):
            plot_scope(doc, None, "r.json")


class TestSvg:
    def test_golden_bytes(self):
        base, scaled = _fixed_curves()
        svg = render_reliability_svg(
            [base, scaled], labels=["base", "ts/global"],
            mcs_values=[0.09, 0.01], title="All",
        )
        want = pathlib.Path(GOLDEN, "reliability.svg").read_bytes().decode("utf-8")
        assert svg == want

    def test_structure(self):
        base, _ = _fixed_curves()
        svg = render_reliability_svg([base], labels=["base"], mcs_values=[0.09])
        assert svg.startswith("<svg")
        assert "polyline" in svg and "circle" in svg
        assert "MCS=+0.0900" in svg
        assert "mean predicted probability" in svg
        assert "empirical positive frequency" in svg

    def test_deterministic(self):
        base, scaled = _fixed_curves()
        a = render_reliability_svg([base, scaled])
        b = render_reliability_svg([base, scaled])
        assert a == b

    def test_empty_curve_list_rejected(self):
        with pytest.raises(ValidationError):
            render_reliability_svg([])

    def test_all_empty_bins_rejected(self):
        empty = bin_class(np.array([]), np.array([]), 5)
        with pytest.raises(ValidationError):
            render_reliability_svg([empty])
