import contextlib
import csv
import errno
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlcalib
from mlcalib import cli, report, rowfiles, synth
from mlcalib.cli import main
from mlcalib.core import sigmoid
from mlcalib.rowfiles import _read_matrix_csv, matrix_head, matrix_rows, read_predictions
from mlcalib.metrics import MAX_BINS
from mlcalib.report import load_report
from mlcalib.scaling import T_MAX, T_MIN, ScalingParams, apply_scaling, fit, load_params, save_params


def _synth(out_dir, n=2000, c=3, true_t="1.0", true_b="0.0", seed=11, extra=()):
    means = ",".join(str(v) for v in np.linspace(-2.0, 2.0, c))
    # leading-hyphen values need the = form or argparse reads them as flags
    argv = [
        "synth", "--n", str(n), "--classes", str(c),
        f"--true-t={true_t}", f"--true-b={true_b}", "--seed", str(seed),
        "--stddev", "4.0", f"--latent-means={means}",
        "--out", str(out_dir), *extra,
    ]
    assert main(argv) == 0
    return {
        "predictions": os.path.join(str(out_dir), "predictions.csv"),
        "labels": os.path.join(str(out_dir), "labels.csv"),
        "manifest": os.path.join(str(out_dir), "manifest.json"),
        "truth": os.path.join(str(out_dir), "truth.json"),
    }


def _data_flags(paths):
    return [
        "--predictions", paths["predictions"],
        "--labels", paths["labels"],
        "--manifest", paths["manifest"],
    ]


class TestSynthCommand:
    def test_writes_file_quad(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx")
        for path in paths.values():
            assert os.path.exists(path)
        out = capsys.readouterr().out
        assert out.count("wrote ") == 4
        truth = json.loads(pathlib.Path(paths["truth"]).read_text())
        assert truth["n"] == 2000 and truth["true_T"] == [1.0, 1.0, 1.0]

    def test_vector_t_and_b(self, tmp_path):
        paths = _synth(tmp_path, c=3, true_t="1.0,2.0,0.5", true_b="0.1,0.0,-0.1")
        truth = json.loads(pathlib.Path(paths["truth"]).read_text())
        assert truth["true_T"] == [1.0, 2.0, 0.5]
        assert truth["true_b"] == [0.1, 0.0, -0.1]

    def test_dataset_id_with_a_comma_evaluates(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=40, c=2, extra=("--dataset-id", "a,b"))
        _, ids, _ = _read_matrix_csv(paths["predictions"], "predictions")
        assert ids[0] == "a,b-000000"
        assert main(["evaluate", *_data_flags(paths), "--out", str(tmp_path / "ev")]) == 0
        rows = load_report(str(tmp_path / "ev" / "report.json"))["rows"]
        assert [r["scope"] for r in rows] == ["a,b"]

    def test_one_latent_mean_spreads_to_every_class(self, tmp_path):
        out = tmp_path / "fx"
        assert main(["synth", "--n", "10", "--classes", "3", "--latent-means", "0.5",
                     "--out", str(out)]) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["latent_means"] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("flag", ["--true-t", "--true-b", "--latent-means"])
    @pytest.mark.parametrize("value", ["2,,3", "2,", ",2", ""])
    def test_empty_item_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "fx"
        assert main(["synth", "--n", "10", "--classes", "2", f"{flag}={value}",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} has an empty item, got {value!r}\n"
        assert not out.exists()

    def test_bad_true_t_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--n", "10", "--classes", "2",
                     "--true-t", "abc", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_top_uniform_draw_exits_2(self, tmp_path, capsys, monkeypatch):
        # the top draw is exactly 1.0 (once in 2**53 cells): its logit is
        # +inf, which the dataset check names, with no output written
        draws = synth._uniforms

        def with_top(seed, stream, count, start=0):
            u = draws(seed, stream, count, start)
            if stream == synth._STREAM_LOGITS and start <= 7 < start + count:
                u[7 - start] = (2**53 - 1 + 0.5) * 2.0**-53
            return u

        monkeypatch.setattr(synth, "_uniforms", with_top)
        code = main(["synth", "--n", "5", "--classes", "3", "--out", str(tmp_path / "fx")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: non-finite value (row 2, class class_001)"]
        assert not (tmp_path / "fx").exists()


class TestEvaluateCommand:
    def test_report_json(self, tmp_path):
        paths = _synth(tmp_path / "fx")
        out = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--out", str(out)]) == 0
        doc = load_report(str(out / "report.json"))
        assert doc["config"]["bins"] == 15
        methods = {r["method"] for r in doc["rows"]}
        assert methods == {"base"}
        row = doc["rows"][0]
        assert row["n_samples"] == 2000
        assert 0.0 <= row["ece"] <= 1.0
        assert abs(row["mcs"]) <= row["ece"] + 1e-15
        assert row["frequent"]["mass_fraction"] >= 0.5
        assert doc["curves"][0]["bins"][0]["lower"] == 0.0

    def test_csv_format_and_svg(self, tmp_path):
        paths = _synth(tmp_path / "fx")
        out = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--format", "csv",
                     "--svg", "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        svgs = list(out.glob("reliability_*.svg"))
        assert len(svgs) == 1
        assert svgs[0].read_text().startswith("<svg")

    def test_per_class_flag(self, tmp_path):
        paths = _synth(tmp_path / "fx")
        out = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--per-class",
                     "--out", str(out)]) == 0
        row = load_report(str(out / "report.json"))["rows"][0]
        assert row["per_class"] is not None and len(row["per_class"]) == 3
        assert {"class", "ap", "n_pos", "ece", "mcs"} <= set(row["per_class"][0])

    def test_tag_overrides_model_name(self, tmp_path):
        paths = _synth(tmp_path / "fx")
        out = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--tag", "panns",
                     "--out", str(out)]) == 0
        doc = load_report(str(out / "report.json"))
        assert all(r["model"] == "panns" for r in doc["rows"])

    def test_missing_file_exits_2(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx")
        code = main(["evaluate", "--predictions", str(tmp_path / "nope.csv"),
                     "--labels", paths["labels"], "--manifest", paths["manifest"],
                     "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_probabilities_exit_2(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx")
        # logit files hold values outside [0, 1], so reading them as
        # probabilities must fail loudly rather than clamp
        code = main(["evaluate", *_data_flags(paths), "--probabilities",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "probability outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("short", ["labels", "manifest"])
    def test_file_one_row_short_names_both_files(self, tmp_path, capsys, short):
        paths = _synth(tmp_path / "fx", n=3, c=2)
        path = pathlib.Path(paths[short])
        if short == "labels":
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        else:
            path.write_text(json.dumps(json.loads(path.read_text())[:-1]))
        assert main(["evaluate", *_data_flags(paths), "--out", str(tmp_path / "ev")]) == 2
        assert capsys.readouterr().err == (
            f"error: row count mismatch: 3 rows in {paths['predictions']} vs 2 in {path}\n")

    def test_non_binary_label_names_the_file(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx", n=3, c=2)
        lines = pathlib.Path(paths["labels"]).read_text().splitlines(keepends=True)
        lines[3] = lines[3][: lines[3].rindex(",")] + ",2\n"
        pathlib.Path(paths["labels"]).write_text("".join(lines))
        assert main(["evaluate", *_data_flags(paths), "--out", str(tmp_path / "ev")]) == 2
        assert capsys.readouterr().err == (
            f"error: non-binary label (row 2, class class_001) in {paths['labels']}: 2.0\n")


class TestFitCommand:
    def test_recovers_generator_temperature(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=4000, true_t="2.0", seed=3)
        out = tmp_path / "fit"
        assert main(["fit", *_data_flags(paths), "--method", "ts",
                     "--first-minutes", "60", "--steps", "10000",
                     "--out", str(out)]) == 0
        params = load_params(str(out / "params.json"))
        assert params.method == "ts" and params.scope == "global"
        assert params.temperature == pytest.approx(2.0, abs=0.2)
        doc = load_report(str(out / "report.json"))
        assert doc["split"]["kind"] == "first-minutes"
        assert doc["split"]["n_calibration"] + doc["split"]["n_evaluation"] == 4000
        assert "ts/global" in doc["params"]
        assert doc["params"]["ts/global"]["trace"]["steps"] == 10000

    def test_calibrated_input_keeps_identity_at_defaults(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=4000, seed=7)
        out = tmp_path / "fit"
        assert main(["fit", *_data_flags(paths), "--method", "ts",
                     "--first-minutes", "60", "--out", str(out)]) == 0
        params = load_params(str(out / "params.json"))
        assert 0.95 <= params.temperature <= 1.05

    def test_improves_miscalibrated_input(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=4000, true_t="2.0", true_b="0.5", seed=13)
        out = tmp_path / "fit"
        assert main(["fit", *_data_flags(paths), "--method", "ps",
                     "--first-minutes", "60", "--steps", "10000",
                     "--out", str(out)]) == 0
        doc = load_report(str(out / "report.json"))
        by_method = {r["method"]: r for r in doc["rows"]}
        assert abs(by_method["ps/global"]["mcs"]) < abs(by_method["base"]["mcs"])
        assert by_method["ps/global"]["mcs_rel_improvement_pct"] > 0

    def test_per_class_scope(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=3000, true_t="1.0,2.0,0.5", seed=17)
        out = tmp_path / "fit"
        assert main(["fit", *_data_flags(paths), "--method", "ps",
                     "--scope", "per-class", "--first-minutes", "60",
                     "--steps", "5000", "--out", str(out)]) == 0
        params = load_params(str(out / "params.json"))
        assert params.scope == "per-class"
        assert params.tau.shape == (3,) and params.classes is not None

    def test_window_over_every_clip_states_the_rule(self, tmp_path, capsys):
        # one 5 s clip: the 0.6 s window is shorter than the dataset, but
        # no clip comes before the only one, so it calibrates
        paths = _synth(tmp_path / "fx", n=1)
        code = main(["fit", *_data_flags(paths), "--method", "ts",
                     "--first-minutes", "0.01", "--out", str(tmp_path / "fit")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: calibration window consumes entire dataset 'synth': a clip calibrates "
            "while the clips before it last less than 0.01 minutes in total, and here every "
            "clip does\n")

    def test_unknown_calib_dataset_exits_2(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx")
        code = main(["fit", *_data_flags(paths), "--method", "ts",
                     "--calib-dataset", "missing-id", "--out", str(tmp_path)])
        assert code == 2
        assert "missing-id" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_steps_below_one_exits_2(self, tmp_path, capsys, steps):
        paths = _synth(tmp_path / "fx", n=200)
        out = tmp_path / "fit"
        code = main(["fit", *_data_flags(paths), "--method", "ts",
                     "--first-minutes", "5", f"--steps={steps}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: steps must be >= 1, got {steps}\n"
        assert not (out / "params.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    @pytest.mark.parametrize(
        "flag, want",
        [("--bins=0", "M must be in [1, 1000], got 0"),
         ("--target-fraction=1.5", "target_fraction must be in (0, 1), got 1.5")],
        ids=["bins", "target-fraction"],
    )
    def test_bad_flag_is_named_before_any_input_is_read(self, tmp_path, capsys, small,
                                                        command, flag, want):
        paths = dict(small, predictions=str(tmp_path / "missing.csv"))
        assert main([*_argv(command, paths, tmp_path / "out"), flag]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_svg_run_builds_the_report_document_once(self, tmp_path, small, monkeypatch):
        original = report.report_to_dict
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every module of the package that holds the function calls it by that name
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "mlcalib"
                    and getattr(module, "report_to_dict", None) is original):
                monkeypatch.setattr(module, "report_to_dict", counted)
        assert main([*_argv("fit", small, tmp_path / "out"), "--svg"]) == 0
        assert len(calls) == 1

    def test_logits_too_large_to_scale_exit_3(self, tmp_path, capsys):
        # +-1e308 overflows once scaled: the first three clips calibrate, all
        # their positives score 1e308 and so does one negative
        paths = {key: str(tmp_path / name) for key, name in
                 (("predictions", "p.csv"), ("labels", "l.csv"), ("manifest", "m.json"))}
        logits = ["1e308,-1e308", "-1e308,1e308"] * 3
        labels = ["1,0", "0,1", "0,0", "0,1", "1,0", "0,1"]
        for key, cells in (("predictions", logits), ("labels", labels)):
            pathlib.Path(paths[key]).write_text(
                "sample_id,a,b\n" + "".join(f"s{i},{c}\n" for i, c in enumerate(cells)))
        pathlib.Path(paths["manifest"]).write_text(json.dumps(
            [{"sample_id": f"s{i}", "dataset_id": "d", "start_s": 5.0 * i, "duration_s": 5.0}
             for i in range(6)]))
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", *_data_flags(paths), "--method", "ps", "--scope", "global",
                         "--first-minutes", "0.2", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical error: the calibration logits are too large to scale\n")
        assert not out.exists()

    def test_held_out_logits_past_the_floats_saturate(self, tmp_path):
        # site A's small logits and steep labels fit T < 1; scaled by it,
        # site B's +-1e308 logits overflow to confidences of exactly 1 and 0
        r = np.random.default_rng(3)
        z = r.normal(0.0, 0.3, (40, 2))
        y = (r.random((40, 2)) < sigmoid(z / 0.12)).astype(int)
        cells = {"predictions": [",".join(map(repr, row)) for row in z.tolist()]
                 + ["1e308,-1e308", "-1e308,1e308"] * 3,
                 "labels": [",".join(map(str, row)) for row in y.tolist()] + ["1,0", "0,1"] * 3}
        ids = [f"a{i}" for i in range(40)] + [f"b{i}" for i in range(6)]
        paths = {"manifest": str(tmp_path / "m.json")}
        for key, rows in cells.items():
            paths[key] = str(tmp_path / f"{key}.csv")
            pathlib.Path(paths[key]).write_text(
                "sample_id,x,y\n" + "".join(f"{i},{row}\n" for i, row in zip(ids, rows)))
        pathlib.Path(paths["manifest"]).write_text(json.dumps(
            [{"sample_id": i, "dataset_id": i[0].upper(), "start_s": 5.0 * k, "duration_s": 5.0}
             for k, i in enumerate(ids)]))
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fit", *_data_flags(paths), "--method", "ts", "--scope", "global",
                         "--calib-dataset", "A", "--out", str(out)]) == 0
        assert load_params(str(out / "params.json")).temperature < 1.0
        [curve] = [c for c in load_report(str(out / "report.json"))["curves"]
                   if c["method"] == "ts/global"]
        assert curve["scope"] == "B"
        assert [(b["conf"], b["acc"], b["count"]) for b in curve["bins"] if b["count"]] == [
            (0.0, 0.0, 6), (1.0, 1.0, 6)]

    def test_split_flags_are_exclusive(self, tmp_path):
        paths = _synth(tmp_path / "fx")
        with pytest.raises(SystemExit) as exc:
            main(["fit", *_data_flags(paths), "--method", "ts",
                  "--first-minutes", "10", "--calib-dataset", "x"])
        assert exc.value.code == 2


class TestApplyCommand:
    def test_matches_library_scaling(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=200, c=3)
        params = ScalingParams(method="ps", scope="global",
                               tau=math.log(2.0), bias=-0.3)
        save_params(params, None, str(tmp_path / "params.json"))
        out = tmp_path / "ap"
        assert main(["apply", "--predictions", paths["predictions"],
                     "--params", str(tmp_path / "params.json"),
                     "--out", str(out)]) == 0
        lines = (out / "calibrated.csv").read_text().splitlines()
        assert lines[0].startswith("sample_id,class_000")
        _, _, logits = _read_matrix_csv(paths["predictions"], "predictions")
        want = apply_scaling(logits, params)
        got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
        assert got.shape == want.shape
        assert np.array_equal(got, want)  # repr round trip is exact

    def test_identity_params_give_plain_sigmoid(self, tmp_path):
        paths = _synth(tmp_path / "fx", n=50, c=2)
        save_params(ScalingParams.identity("ts", "global"), None,
                    str(tmp_path / "params.json"))
        out = tmp_path / "ap"
        assert main(["apply", "--predictions", paths["predictions"],
                     "--params", str(tmp_path / "params.json"),
                     "--out", str(out)]) == 0
        _, _, logits = _read_matrix_csv(paths["predictions"], "predictions")
        lines = (out / "calibrated.csv").read_text().splitlines()[1:]
        got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines])
        assert got == pytest.approx(sigmoid(logits), abs=0)

    def test_per_class_width_mismatch_exits_2(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx", n=50, c=2)
        params = ScalingParams(
            method="ps", scope="per-class",
            tau=np.zeros(3), bias=np.zeros(3),
            classes=("class_000", "class_001", "class_002"),
        )
        save_params(params, None, str(tmp_path / "params.json"))
        code = main(["apply", "--predictions", paths["predictions"],
                     "--params", str(tmp_path / "params.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "do not match" in capsys.readouterr().err

    def test_per_class_order_mismatch_names_the_position(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx", n=50, c=3)
        params = ScalingParams(
            method="ps", scope="per-class",
            tau=np.zeros(3), bias=np.zeros(3),
            classes=("class_001", "class_000", "class_002"),
        )
        save_params(params, None, str(tmp_path / "params.json"))
        code = main(["apply", "--predictions", paths["predictions"],
                     "--params", str(tmp_path / "params.json"),
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: params classes do not match predictions classes at position 0 "
            "('class_001' vs 'class_000')\n")
        assert not (tmp_path / "ap").exists()

    @pytest.mark.parametrize(
        "cells, flags, want",
        [
            ("0.25,0.5\ns1,0.75,1.5", ["--probabilities"],
             "probability outside [0, 1] (row 1, class b) in {pred}: 1.5"),
            ("nan,0.5\ns1,0.75,1.5", [], "non-finite value (row 0, class a) in {pred}"),
        ],
        ids=["probability-out-of-range", "nan-logit"],
    )
    def test_bad_cell_names_row_and_class(self, tmp_path, capsys, cells, flags, want):
        pred = tmp_path / "predictions.csv"
        pred.write_text("sample_id,a,b\ns0," + cells + "\n")
        save_params(ScalingParams.identity("ts", "global"), None,
                    str(tmp_path / "params.json"))
        code = main(["apply", "--predictions", str(pred), *flags,
                     "--params", str(tmp_path / "params.json"),
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {want.format(pred=pred)}\n"
        assert not (tmp_path / "ap").exists()


    def test_logits_past_the_floats_saturate(self, tmp_path):
        # with T < 1, z / T overflows to +-inf: the cells are exactly 1.0 and 0.0
        pred = tmp_path / "predictions.csv"
        pred.write_text("sample_id,a,b\n" + "".join(
            f"s{i},{cells}\n" for i, cells in enumerate(["1e308,-1e308", "-1e308,1e308"] * 3)))
        save_params(ScalingParams(method="ps", scope="global", tau=-6.9, bias=0.5), None,
                    str(tmp_path / "params.json"))
        out = tmp_path / "ap"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["apply", "--predictions", str(pred),
                         "--params", str(tmp_path / "params.json"), "--out", str(out)]) == 0
        _, _, got = _read_matrix_csv(str(out / "calibrated.csv"), "calibrated")
        assert got.tolist() == [[1.0, 0.0], [0.0, 1.0]] * 3

    def test_quoted_ids_and_classes_round_trip(self, tmp_path):
        # an id or class name holding a comma or a quote is quoted on the
        # way out, so calibrated.csv keeps one cell per class
        pred = tmp_path / "predictions.csv"
        pred.write_text('sample_id,a,"b,c"\n"s,0",1.5,-2.0\n"q""1",0.0,3.0\nplain,-1.0,0.5\n')
        save_params(ScalingParams.identity("ts", "global"), None,
                    str(tmp_path / "params.json"))
        out = tmp_path / "ap"
        assert main(["apply", "--predictions", str(pred),
                     "--params", str(tmp_path / "params.json"), "--out", str(out)]) == 0
        text = (out / "calibrated.csv").read_text()
        assert text.splitlines()[0] == 'sample_id,a,"b,c"'
        assert text.splitlines()[3].startswith("plain,")
        classes, ids, got = _read_matrix_csv(str(out / "calibrated.csv"), "calibrated")
        assert classes == ("a", "b,c") and ids == ["s,0", 'q"1', "plain"]
        assert np.array_equal(got, sigmoid(np.array([[1.5, -2.0], [0.0, 3.0], [-1.0, 0.5]])))


@pytest.fixture(scope="module")
def apply_inputs(tmp_path_factory):
    """A 203 x 3 predictions file, the same rows as probabilities (some
    exactly 0 or 1), and global and per-class ps params."""
    root = tmp_path_factory.mktemp("apply")
    paths = _synth(root / "fx", n=203, c=3)
    classes, ids, logits, _ = read_predictions(paths["predictions"])
    probs = sigmoid(logits)
    probs[5, 0], probs[6, 2] = 0.0, 1.0
    with open(root / "probabilities.csv", "wb") as fh:
        fh.write(matrix_head(classes).encode())
        fh.writelines(matrix_rows(ids, probs))
    params = {
        "global": ScalingParams(method="ps", scope="global", tau=math.log(2.0), bias=-0.3),
        "per-class": ScalingParams(method="ps", scope="per-class", tau=np.array([-0.5, 0.2, 1.1]),
                                   bias=np.array([0.4, -0.7, 0.05]), classes=classes),
    }
    for scope, p in params.items():
        save_params(p, None, str(root / f"{scope}.json"))
    return {"logits": paths["predictions"], "probabilities": str(root / "probabilities.csv"),
            "params": params, "root": root}


class TestApplyInParts:
    """Each row part of calibrated.csv scales and formats its own rows: the
    file is the header and the rows of the whole matrix scaled at once,
    byte for byte, at any part count and round size."""

    @pytest.mark.parametrize("split", [1, 2, 8], ids=lambda k: f"{k}-parts")
    @pytest.mark.parametrize("round_rows", [None, 1, 25], ids=["one-round", "1-row-rounds",
                                                                "25-row-rounds"])
    @pytest.mark.parametrize("scope", ["global", "per-class"])
    @pytest.mark.parametrize("inputs", ["logits", "probabilities"])
    def test_file_equals_the_whole_matrix_scaled(self, tmp_path, monkeypatch, apply_inputs,
                                                 split, round_rows, scope, inputs):
        params = apply_inputs["params"][scope]
        classes, ids, logits, _ = read_predictions(apply_inputs[inputs], inputs == "probabilities")
        want = b"".join([matrix_head(classes).encode(),
                         *matrix_rows(ids, apply_scaling(logits, params))])
        scaled_here = []  # the rows of each apply_scaling call in this process

        def counted(z, p):
            scaled_here.append(len(z))
            return apply_scaling(z, p)

        monkeypatch.setattr(cli, "apply_scaling", counted)
        monkeypatch.setattr(rowfiles, "_PART_CELLS", 1)
        monkeypatch.setattr(rowfiles, "_PART_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(split)))
        if round_rows:
            monkeypatch.setattr(rowfiles, "_ROUND_CELLS", round_rows * len(classes))
        flags = ["--probabilities"] if inputs == "probabilities" else []
        assert main(["apply", "--predictions", apply_inputs[inputs], *flags,
                     "--params", str(apply_inputs["root"] / f"{scope}.json"),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "calibrated.csv").read_bytes() == want
        # this process scales its own part of each round, and no more
        assert max(scaled_here) <= -(-(round_rows or len(ids)) // split)
        if split == 1:
            assert sum(scaled_here) == len(ids)


class TestPlotCommand:
    def test_renders_from_report(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx")
        ev = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--out", str(ev)]) == 0
        out = tmp_path / "plots"
        assert main(["plot", "--report", str(ev / "report.json"),
                     "--out", str(out)]) == 0
        svgs = list(out.glob("reliability_*.svg"))
        assert len(svgs) == 1 and "MCS=" in svgs[0].read_text()

    def test_plot_matches_direct_svg(self, tmp_path):
        """Rebuilding curves from report JSON loses nothing: the plot
        subcommand and the --svg flag emit identical bytes."""
        paths = _synth(tmp_path / "fx")
        ev = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--svg", "--out", str(ev)]) == 0
        out = tmp_path / "plots"
        assert main(["plot", "--report", str(ev / "report.json"),
                     "--out", str(out)]) == 0
        direct = next(ev.glob("reliability_*.svg")).read_bytes()
        replot = next(out.glob("reliability_*.svg")).read_bytes()
        assert direct == replot

    def test_each_scope_name_reproduces_its_svg(self, tmp_path, small):
        # a site named "all" is drawn by its name, not taken for the All scope
        paths = _two_datasets(tmp_path, small, "all", "B")
        ev = tmp_path / "ev"
        assert main([*_argv("evaluate", paths, ev), "--svg"]) == 0
        svgs = sorted(name for name in os.listdir(ev) if name.endswith(".svg"))
        assert svgs == ["reliability_All.svg", "reliability_B.svg", "reliability_all.svg"]
        drawn = []
        for scope in ("All", "B", "all"):
            out = tmp_path / f"plot_{scope}"
            assert main(["plot", "--report", str(ev / "report.json"), "--scope", scope,
                         "--out", str(out)]) == 0
            [name] = os.listdir(out)
            assert (out / name).read_bytes() == (ev / name).read_bytes()
            drawn.append(name)
        assert sorted(drawn) == svgs

    @pytest.mark.parametrize(
        "flags, drawn",
        [((), "All"), (("--scope", "pooled"), "pooled"), (("--scope", "ALL"), "All"),
         (("--scope", "Pooled"), "All")],
        ids=["default", "exact-name", "all-alias", "pooled-alias"],
    )
    def test_aliases_yield_to_scope_names(self, tmp_path, small, flags, drawn):
        paths = _two_datasets(tmp_path, small, "pooled", "B")
        ev = tmp_path / "ev"
        assert main(_argv("evaluate", paths, ev)) == 0
        out = tmp_path / "plots"
        assert main(["plot", "--report", str(ev / "report.json"), *flags,
                     "--out", str(out)]) == 0
        assert os.listdir(out) == [f"reliability_{drawn}.svg"]

    def test_unknown_scope_exits_2(self, tmp_path, capsys):
        paths = _synth(tmp_path / "fx")
        ev = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--out", str(ev)]) == 0
        code = main(["plot", "--report", str(ev / "report.json"),
                     "--scope", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert "available" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, key",
        [("curves", "n"), ("curves", "bins"), ("curves", "scope"), ("curves", "method"),
         ("rows", "mcs")],
    )
    def test_missing_key_exits_2(self, tmp_path, capsys, entry, key):
        paths = _synth(tmp_path / "fx")
        ev = tmp_path / "ev"
        assert main(["evaluate", *_data_flags(paths), "--out", str(ev)]) == 0
        doc = json.loads((ev / "report.json").read_text())
        for item in doc[entry]:
            del item[key]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["plot", "--report", str(broken), "--out", str(tmp_path / "plots")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("document", "curves", {"scope": "synth"}),
            ("document", "rows", 5),
            ("curve", "bins", "none"),
            ("curve bin", "count", "3"),
            ("curve bin", "count", -1),
            ("curve bin", "conf", "0.5"),
            ("curve bin", "conf", 7.0),
            ("curve bin", "acc", -0.5),
            ("curve", "scope", ["synth"]),
            ("curve", "n", "200"),
            ("row", "mcs", "0.1"),
            ("row", "mcs", float("nan")),
            ("row", "mcs", 10**400),
        ],
        ids=["curves-object", "rows-number", "bins-string", "count-string", "count-negative",
             "conf-string", "conf-above-1", "acc-below-0", "scope-list", "n-string",
             "mcs-string", "mcs-nan", "mcs-int-too-large-for-a-float"],
    )
    def test_field_of_wrong_kind_exits_2(self, tmp_path, capsys, small, where, key, value):
        with open(small["report"], encoding="utf-8") as fh:
            doc = json.load(fh)
        entries = {"document": [doc], "curve": doc["curves"], "row": doc["rows"],
                   "curve bin": [b for c in doc["curves"] for b in c["bins"] if b["count"]]}
        for entry in entries[where]:
            entry[key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "plots"
        assert main(["plot", "--report", str(broken), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report {where} key {key!r} must be ")
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 200 x 3 fixture, identity params and an evaluate report."""
    root = tmp_path_factory.mktemp("small")
    paths = _synth(root / "fx", n=200)
    paths["params"] = str(root / "params.json")
    save_params(ScalingParams.identity("ts", "global"), None, paths["params"])
    assert main(["evaluate", *_data_flags(paths), "--out", str(root / "ev")]) == 0
    paths["report"] = str(root / "ev" / "report.json")
    return paths


def _argv(command, paths, out):
    """A minimal valid command line of each subcommand."""
    inputs = {
        "evaluate": _data_flags(paths),
        "fit": [*_data_flags(paths), "--method", "ts", "--first-minutes", "5"],
        "apply": ["--predictions", paths["predictions"], "--params", paths["params"]],
        "synth": ["--n", "10", "--classes", "2"],
        "plot": ["--report", paths["report"]],
    }[command]
    return [command, *inputs, "--out", str(out)]


def _two_datasets(tmp_path, paths, first, second):
    """``paths`` with a manifest whose first 100 rows belong to dataset
    ``first`` and whose other rows belong to ``second``."""
    rows = json.loads(pathlib.Path(paths["manifest"]).read_text())
    for i, row in enumerate(rows):
        row["dataset_id"] = first if i < 100 else second
    manifest = tmp_path / "two.json"
    manifest.write_text(json.dumps(rows))
    return dict(paths, manifest=str(manifest))


@pytest.mark.parametrize("which", ["manifest", "params", "report"])
def test_json_input_with_a_bom_reads_as_without(tmp_path, monkeypatch, small, which):
    """A JSON input that starts with a UTF-8 byte order mark gives the
    outputs of the same file without it, as a CSV input does."""
    command = {"manifest": "evaluate", "params": "apply", "report": "plot"}[which]
    text = pathlib.Path(small[which]).read_bytes()
    for run, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)  # the same relative paths echo the same config
        pathlib.Path("in.json").write_bytes(bom + text)
        assert main(_argv(command, dict(small, **{which: "in.json"}), "out")) == 0
    plain, bom = tmp_path / "plain" / "out", tmp_path / "bom" / "out"
    assert sorted(os.listdir(bom)) == sorted(os.listdir(plain))
    for name in os.listdir(plain):
        assert (bom / name).read_bytes() == (plain / name).read_bytes()


def _not_utf8_name(tmp_path, small):
    """``small`` with its predictions copied to a file named ``p\\xff.csv``,
    a name that is not UTF-8."""
    pred = tmp_path / os.fsdecode(b"p\xff.csv")
    pred.write_bytes(pathlib.Path(small["predictions"]).read_bytes())
    return dict(small, predictions=str(pred))


def test_csv_report_shows_a_name_that_is_not_utf8_escaped(tmp_path, small):
    paths = _not_utf8_name(tmp_path, small)
    assert main([*_argv("evaluate", paths, tmp_path / "ev"), "--format", "csv"]) == 0
    models = {row["model"] for row in csv.DictReader(io.StringIO(
        (tmp_path / "ev" / "report.csv").read_text(encoding="utf-8")))}
    assert models == {"p\\xff"}


@pytest.mark.parametrize("command, where", [("evaluate", "name"), ("fit", "tag"),
                                            ("evaluate", "\ud800")])
def test_argv_that_is_not_utf8_reaches_the_report_escaped(tmp_path, small, command, where):
    """A predictions name or a --tag that is not UTF-8 shows in the report
    as its \\x escape, a --tag holding a lone surrogate that no argv byte
    makes as its \\u escape, and plot draws that report."""
    if where == "name":
        paths, tag, model = _not_utf8_name(tmp_path, small), [], "p\\xff"
    elif where == "tag":
        paths, tag, model = small, ["--tag", os.fsdecode(b"m\xff")], "m\\xff"
    else:
        paths, tag, model = small, ["--tag", where], "\\ud800"
    assert main([*_argv(command, paths, tmp_path / "out"), *tag]) == 0
    report = str(tmp_path / "out" / "report.json")
    doc = load_report(report)
    assert {row["model"] for row in doc["rows"]} == {model}
    assert model in doc["config"]["predictions" if where == "name" else "tag"]
    assert main(_argv("plot", dict(paths, report=report), tmp_path / "plot")) == 0


class TestInputBoundaries:
    """Each of these inputs ends in exit 2 and a message naming its cause."""

    @pytest.mark.parametrize(
        "data, want",
        [
            (b"sample_id,a\ns0,\xff\n", "is not UTF-8 text"),
            (b"sample_id,a\n" + b"s" * 200000 + b",1\n",
             "(row 0): field larger than field limit"),
        ],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_apply_unreadable_csv_exits_2(self, tmp_path, capsys, small, data, want):
        pred = tmp_path / "predictions.csv"
        pred.write_bytes(data)
        code = main(["apply", "--predictions", str(pred), "--params", small["params"],
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: predictions file {pred}") and want in err

    @pytest.mark.parametrize("which", ["manifest", "params", "report"])
    def test_json_that_is_not_utf8_exits_2(self, tmp_path, capsys, small, which):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'[{"sample_id": "\xff"}]')
        argv = _argv({"manifest": "evaluate", "params": "apply", "report": "plot"}[which],
                     dict(small, **{which: str(bad)}), tmp_path / "out")
        assert main(argv) == 2
        assert f"{which} file {bad} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["manifest", "params", "report"])
    def test_json_nested_past_recursion_limit_exits_2(self, tmp_path, capsys, small, which):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        argv = _argv({"manifest": "evaluate", "params": "apply", "report": "plot"}[which],
                     dict(small, **{which: str(deep)}), tmp_path / "out")
        assert main(argv) == 2
        assert f"{which} file {deep} nests deeper than the recursion limit" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("which", ["manifest", "params", "report"])
    def test_json_integer_over_digit_limit_exits_2(self, tmp_path, capsys, small, which):
        # Python refuses to convert an integer of more than 4300 digits
        huge = tmp_path / "huge.json"
        huge.write_text('{"tau": ' + "9" * 5000 + "}")
        argv = _argv({"manifest": "evaluate", "params": "apply", "report": "plot"}[which],
                     dict(small, **{which: str(huge)}), tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{which} file {huge} is not valid JSON" in err and "4300" in err

    @pytest.mark.parametrize("which, content, want", [
        ("manifest", None, "cannot read manifest file {}: "),
        ("manifest", "directory", "cannot read manifest file {}: "),
        ("params", "[]", "params file {} must hold a JSON object"),
        ("report", '{"curves": []}', "report file {} is not a report document"),
        ("manifest", '[{"sample_id": "s0", "dataset_id": "d", "start_s": 1' + "0" * 399
         + ', "duration_s": 5.0}]', "manifest file {}: a time is too large for a float"),
    ], ids=["manifest-missing", "manifest-directory", "params-list", "report-without-rows",
            "manifest-time-400-digits"])
    def test_json_loader_refusal_exits_2(self, tmp_path, capsys, small, which, content, want):
        path = tmp_path / "in.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        argv = _argv({"manifest": "evaluate", "params": "apply", "report": "plot"}[which],
                     dict(small, **{which: str(path)}), tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + want.format(path)) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "tau, b, want",
        [("1.0", 0.0, "params document key 'tau' must be a number"),
         (0.0, None, "params document key 'b' must be a number"),
         (800.0, 0.0, "params tau must lie in"),
         (-7.0, 0.0, "params tau must lie in"),
         (10**400, 0.0, "params tau holds an integer too large for a float")],
        ids=["string-tau", "null-b", "tau-800", "tau-below-t-min", "tau-huge-int"],
    )
    def test_apply_rejects_bad_params(self, tmp_path, capsys, small, tau, b, want):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"method": "ps", "scope": "global", "tau": tau, "b": b}))
        code = main(["apply", "--predictions", small["predictions"], "--params", str(params),
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        assert want in capsys.readouterr().err
        assert not (tmp_path / "ap").exists()

    @pytest.mark.parametrize("classes", [5, None, "abc", ["a", 2, "c"]],
                             ids=["number", "null", "string", "list-with-number"])
    def test_apply_rejects_params_classes_other_than_strings(self, tmp_path, capsys, small,
                                                             classes):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"method": "ps", "scope": "per-class", "classes": classes,
                                      "tau": [0.0] * 3, "b": [0.0] * 3}))
        code = main(["apply", "--predictions", small["predictions"], "--params", str(params),
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: params document key 'classes' must be a list of strings, "
                       f"got {json.dumps(classes)}\n")
        assert not (tmp_path / "ap").exists()

    @pytest.mark.parametrize(
        "scope, t, want",
        [("per-class", [5, 5, 5], "T = [5, 5, 5] for tau = [0.0, 0.0, 0.0]"),
         ("per-class", 1.0, "T = 1.0 for tau = [0.0, 0.0, 0.0]"),
         ("per-class", [1.0, 1.0], "T = [1.0, 1.0] for tau = [0.0, 0.0, 0.0]"),
         ("global", [1.0], "T = [1.0] for tau = 0.0"),
         ("global", 1.0 + 1e-11, "T = 1.00000000001 for tau = 0.0"),
         ("global", float("nan"), "T = NaN for tau = 0.0")],
        ids=["hand-edited", "scalar-for-vector", "too-short", "list-for-scalar",
             "off-by-1e-11", "nan"],
    )
    def test_apply_rejects_t_that_disagrees_with_tau(self, tmp_path, capsys, small, scope, t,
                                                     want):
        doc = {"method": "ps", "scope": scope, "tau": 0.0, "T": t, "b": 0.0}
        if scope == "per-class":
            doc.update(classes=["class_000", "class_001", "class_002"], tau=[0.0] * 3,
                       b=[0.0] * 3)
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        code = main(["apply", "--predictions", small["predictions"], "--params", str(params),
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: params T must equal exp(tau) within a relative 1e-12, got {want}\n")
        assert not (tmp_path / "ap").exists()

    @pytest.mark.parametrize("t", [None, 1.0 + 1e-13], ids=["without-t", "t-within-1e-12"])
    def test_apply_accepts_params_whose_t_is_absent_or_agrees(self, tmp_path, small, t):
        doc = {"method": "ps", "scope": "global", "tau": 0.0, "b": 0.0}
        if t is not None:
            doc["T"] = t
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        assert main(["apply", "--predictions", small["predictions"], "--params", str(params),
                     "--out", str(tmp_path / "ap")]) == 0

    def test_apply_rejects_fitted_on_other_than_a_string(self, tmp_path, capsys, small):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"method": "ts", "scope": "global", "tau": 0.0, "b": 0,
                                      "fitted_on": 5}))
        code = main(["apply", "--predictions", small["predictions"], "--params", str(params),
                     "--out", str(tmp_path / "ap")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: params document key 'fitted_on' must be a string, got 5\n")

    @pytest.mark.parametrize("edge", ["t-min", "t-max"])
    def test_clamped_fit_params_apply(self, tmp_path, small, edge):
        # separable scores clamp T at T_MIN, anti-correlated ones at T_MAX
        z = np.linspace(-3.0, 3.0, 40).reshape(-1, 1)
        y = ((z > 0) == (edge == "t-min")).astype(float)
        params, trace = fit(z, y, method="ps")
        assert trace.clamped == (0,)
        assert float(params.temperature) == pytest.approx(T_MIN if edge == "t-min" else T_MAX)
        save_params(params, trace, str(tmp_path / "params.json"))
        out = tmp_path / "ap"
        assert main(["apply", "--predictions", small["predictions"],
                     "--params", str(tmp_path / "params.json"), "--out", str(out)]) == 0
        _, _, logits = _read_matrix_csv(small["predictions"], "predictions")
        _, _, got = _read_matrix_csv(str(out / "calibrated.csv"), "calibrated")
        assert np.array_equal(got, apply_scaling(logits, load_params(str(tmp_path / "params.json"))))

    @pytest.mark.parametrize("flag", ["--true-t=inf", "--true-t=nan", "--true-b=-inf",
                                      "--true-b=nan"])
    def test_synth_non_finite_truth_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "fx"
        assert main(["synth", "--n", "10", "--classes", "2", flag, "--out", str(out)]) == 2
        name = "true_T" if "true-t" in flag else "true_b"
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, want",
        [("--clip-duration=inf", "clip_duration_s must be finite and > 0, got inf"),
         ("--clip-duration=nan", "clip_duration_s must be finite and > 0, got nan"),
         ("--clip-duration=0", "clip_duration_s must be finite and > 0, got 0.0"),
         ("--stddev=nan", "latent stddev must be finite and > 0, got nan"),
         ("--stddev=inf", "latent stddev must be finite and > 0, got inf"),
         ("--stddev=-1", "latent stddev must be finite and > 0, got -1.0"),
         ("--latent-means=nan,0", "latent means must be finite, got (nan, 0.0)"),
         ("--latent-means=inf,0", "latent means must be finite, got (inf, 0.0)"),
         ("--seed=-1", "seed must be in [0, 2**64), got -1"),
         (f"--seed={2**64}", f"seed must be in [0, 2**64), got {2**64}"),
         ("--clip-duration=1e308",
          "clip_duration_s is too large for N=10: the last start, 9 x 1e+308, is not finite"),
         (f"--n={10**20}", f"N x C is over the largest array, got N={10**20}, C=2"),
         # the byte 0xff of a non-UTF-8 argv reaches Python as this lone surrogate
         ("--dataset-id=a\udcff", "dataset_id must be UTF-8 text, got 'a\\udcff'"),
         # the logits of the lowest draw, 2**-54, overflow: both ends, or only it
         ("--stddev=1e308", "the logits of class_000 overflow: latent mean 0.34280911981142737 "
          "+ stddev 1e+308 x -8.292361075813597 is not finite"),
         ("--stddev=2.2e307", "the logits of class_000 overflow: latent mean "
          "0.34280911981142737 + stddev 2.2e+307 x -8.292361075813597 is not finite")],
        ids=["duration-inf", "duration-nan", "duration-0", "stddev-nan", "stddev-inf",
             "stddev-negative", "means-nan", "means-inf", "seed-negative", "seed-over-uint64",
             "last-start-overflows", "cells-over-array", "dataset-id-not-utf8",
             "logits-overflow", "lowest-logit-overflows"],
    )
    # numpy warned on an infinite duration, and on logits that overflow
    @pytest.mark.filterwarnings("error")
    def test_synth_flags_checked_before_generating(self, tmp_path, capsys, flag, want):
        out = tmp_path / "fx"
        assert main(["synth", "--n", "10", "--classes", "2", flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    def test_synth_out_of_memory_names_n_and_classes(self, tmp_path, capsys, monkeypatch):
        """A fixture whose files cannot fit in the free space fails before
        any row is drawn, naming N, C, the least size of its files and the
        free bytes."""
        def not_drawn(*args):
            raise AssertionError("no row is drawn")

        monkeypatch.setattr(synth, "_rows", not_drawn)
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((4096,) * 10))
        out = tmp_path / "fx"
        assert main(["synth", "--n", "100000000000", "--classes", "3", "--out", str(out)]) == 2
        # at least 166 bytes a row: a 17-byte id and a line end in each CSV,
        # 3-byte logits and 1-byte labels each after a comma, and a manifest
        # entry of 110 bytes with its 2-byte separator
        err = (f"error: N=100000000000, C=3 needs at least 16600000000080 bytes of files, "
               f"but {out} has {4096 * 4096} bytes free\n")
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("probabilities", [False, True], ids=["logits", "probabilities"])
    @pytest.mark.parametrize("eps", ["inf", "nan", "0", "0.5", "5"])
    @pytest.mark.parametrize("command", ["evaluate", "fit", "apply"])
    def test_eps_outside_range_exits_2(self, tmp_path, capsys, small, command, eps,
                                       probabilities):
        argv = _argv(command, small, tmp_path / "out")
        argv += [f"--eps={eps}"] + (["--probabilities"] if probabilities else [])
        assert main(argv) == 2
        assert "error: eps must be in (0, 0.5)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("start_s", "nan"), ("start_s", "inf"),
                                              ("duration_s", "nan"), ("duration_s", "inf")])
    def test_non_finite_manifest_time_exits_2(self, tmp_path, capsys, small, field, value):
        rows = json.loads(pathlib.Path(small["manifest"]).read_text())
        rows[3][field] = float(value)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(rows))
        argv = _argv("fit", dict(small, manifest=str(manifest)), tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"row 3: {field} must be finite" in err and str(manifest) in err

    @pytest.mark.parametrize(
        "field, value",
        [("sample_id", None), ("dataset_id", None), ("sample_id", 1.5), ("dataset_id", True),
         ("start_s", "5"), ("duration_s", True), ("start_s", False), ("duration_s", None),
         ("start_s", [0.0])],
    )
    def test_manifest_field_of_wrong_json_type_exits_2(self, tmp_path, capsys, small, field,
                                                       value):
        rows = json.loads(pathlib.Path(small["manifest"]).read_text())
        rows[3][field] = value
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(rows))
        assert main(_argv("evaluate", dict(small, manifest=str(manifest)), tmp_path / "out")) == 2
        err = capsys.readouterr().err
        kind = "a number" if field.endswith("_s") else "a string or an integer"
        assert f"row 3 key {field!r} must be {kind}, got {json.dumps(value)}" in err
        assert str(manifest) in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, flags", [
        ("evaluate", "manifest", ["--svg"]),
        ("evaluate", "manifest", ["--format", "csv"]),
        ("apply", "params", []),
        ("plot", "report", []),
    ], ids=["evaluate-svg", "evaluate-csv", "apply", "plot"])
    def test_lone_surrogate_escape_exits_2(self, tmp_path, capsys, small, command, key, flags):
        # json.dumps writes the lone surrogate as the escape \ud800, which
        # json.loads turns back into a str that UTF-8 output cannot encode
        doc = json.loads(pathlib.Path(small[key]).read_text())
        if key == "manifest":
            for row in doc:
                row["dataset_id"] = "x\ud800"
        else:
            doc["note"] = "x\ud800"
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([*_argv(command, dict(small, **{key: str(bad)}), out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert f"{key} file {bad} escapes a lone surrogate" in err
        assert not out.exists()

    def test_bins_above_maximum_exits_2(self, tmp_path, capsys, small):
        argv = _argv("evaluate", small, tmp_path / "out") + ["--bins", str(MAX_BINS + 1)]
        assert main(argv) == 2
        assert f"M must be in [1, {MAX_BINS}], got {MAX_BINS + 1}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bins_at_maximum_runs(self, tmp_path, small):
        argv = _argv("fit", small, tmp_path / "out") + ["--bins", str(MAX_BINS)]
        assert main(argv) == 0
        doc = load_report(str(tmp_path / "out" / "report.json"))
        assert len(doc["curves"][0]["bins"]) == MAX_BINS

    def test_dataset_named_all_next_to_others_exits_2(self, tmp_path, capsys, small):
        paths = _two_datasets(tmp_path, small, "All", "B")
        assert main(_argv("evaluate", paths, tmp_path / "out") + ["--svg"]) == 2
        assert "dataset_id 'All' is reserved" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_svg_names_that_collide_exit_2(self, tmp_path, capsys, small):
        paths = _two_datasets(tmp_path, small, "site 1", "site-1")
        assert main(_argv("evaluate", paths, tmp_path / "out") + ["--svg"]) == 2
        err = capsys.readouterr().err
        assert "scopes 'site 1' and 'site-1'" in err and "reliability_site-1.svg" in err
        assert not (tmp_path / "out").exists()
        # without --svg there is nothing to collide
        assert main(_argv("evaluate", paths, tmp_path / "out")) == 0

    def test_scope_without_positives_is_named(self, tmp_path, capsys, small):
        paths = _two_datasets(tmp_path, small, "north", "south")
        lines = pathlib.Path(small["labels"]).read_text().splitlines()
        # every label of the second half, the south rows, set to 0
        south = [line.split(",")[0] + ",0,0,0" for line in lines[101:]]
        (tmp_path / "labels.csv").write_text("\n".join(lines[:101] + south) + "\n")
        paths["labels"] = str(tmp_path / "labels.csv")
        assert main(_argv("evaluate", paths, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "zero positives in scope 'south'" in err

    @pytest.mark.parametrize("command", ["evaluate", "fit", "apply", "synth", "plot"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, small, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(_argv(command, small, taken)) == 2
        assert f"error: cannot create output directory {taken}" in capsys.readouterr().err
        assert taken.read_text() == ""


    @pytest.mark.parametrize("command", ["evaluate", "fit", "apply", "synth", "plot"])
    def test_empty_out_is_the_working_directory(self, tmp_path, monkeypatch, small, command):
        monkeypatch.chdir(tmp_path)
        assert main(_argv(command, small, "")) == 0
        name = {"evaluate": "report.json", "fit": "params.json", "apply": "calibrated.csv",
                "synth": "truth.json", "plot": "reliability_synth.svg"}[command]
        assert (tmp_path / name).is_file()


def _disk_full_from(monkeypatch, nth):
    """From the ``nth`` file on (counted from 1) that rowfiles opens for
    writing, the file is made but its text goes to /dev/full, where a
    write fails with ENOSPC."""
    opened = []

    def open_on_a_full_disk(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(file)
            if len(opened) >= nth:
                open(file, mode, *args, **kwargs).close()
                file = "/dev/full"
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(rowfiles, "open", open_on_a_full_disk, raising=False)


class TestOutputs:
    """Every output goes through one writer: UTF-8, csv.writer quoting, and
    exit 2 naming the path when the file cannot be written."""

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("fit", (), "params.json"),
            ("evaluate", (), "report.json"),
            ("evaluate", ("--format", "csv"), "report.csv"),
            ("evaluate", ("--svg",), "reliability_synth.svg"),
            ("apply", (), "calibrated.csv"),
            ("synth", (), "predictions.csv"),
            ("synth", (), "manifest.json"),
        ],
        ids=["params", "report-json", "report-csv", "svg", "calibrated", "predictions",
             "manifest"],
    )
    def test_output_that_is_a_directory_exits_2(self, tmp_path, capsys, small, command,
                                                flags, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([*_argv(command, small, out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert str(out / name) in err

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("fit", (), "report.json"),
            ("evaluate", ("--svg",), "reliability_synth.svg"),
            ("synth", (), "labels.csv"),
            ("synth", (), "manifest.json"),
            ("synth", (), "truth.json"),
        ],
        ids=["fit-report", "svg", "synth-labels", "synth-manifest", "synth-truth"],
    )
    def test_run_that_cannot_write_an_output_writes_none(self, tmp_path, capsys, small,
                                                         command, flags, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([*_argv(command, small, out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and str(out / name) in err
        assert os.listdir(out) == [name]

    @pytest.mark.parametrize("command", ["apply", "synth"])
    def test_failure_after_the_first_round_keeps_the_old_files(self, tmp_path, capsys,
                                                                monkeypatch, small, command):
        """The rows are written in several rounds, and the second one fails:
        apply on a full disk, synth on its top draw.  Every file keeps its
        old bytes and no temporary file is left."""
        out = tmp_path / "out"
        out.mkdir()
        names = (["calibrated.csv"] if command == "apply" else
                 ["predictions.csv", "labels.csv", "manifest.json", "truth.json"])
        for name in names:
            (out / name).write_bytes(f"old {name}\n".encode())
        # 200 x 3 logits in rounds of 50 rows; 10 synth rows in rounds of 2
        monkeypatch.setattr(rowfiles, "_ROUND_CELLS", 150 if command == "apply" else 8)
        calls = []
        if command == "apply":
            rows = rowfiles._csv_rows

            def second_fails(*args):
                calls.append(None)
                if len(calls) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return rows(*args)

            monkeypatch.setattr(rowfiles, "_csv_rows", second_fails)
            want = (f"cannot write CSV file {out / 'calibrated.csv'}: "
                    f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")
        else:
            draws = synth._uniforms

            def top_in_row_3(seed, stream, count, start=0):
                u = draws(seed, stream, count, start)
                if stream == synth._STREAM_LOGITS and start <= 7 < start + count:
                    u[7 - start] = 1.0
                return u

            monkeypatch.setattr(synth, "_uniforms", top_in_row_3)
            want = "non-finite value (row 3, class class_001)"
        assert main(_argv(command, small, out)) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert sorted(os.listdir(out)) == sorted(names)
        for name in names:
            assert (out / name).read_bytes() == f"old {name}\n".encode()

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_rewritten_output_keeps_its_link_and_mode(self, tmp_path, small):
        """A file is written to a temporary file and renamed over the old
        one, but an output that is a link still leads to its target, which
        keeps its mode, as when the old file was opened in place."""
        target = tmp_path / "kept" / "calibrated.csv"
        target.parent.mkdir()
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        out = tmp_path / "out"
        out.mkdir()
        (out / "calibrated.csv").symlink_to(target)
        assert main(_argv("apply", small, out)) == 0
        assert (out / "calibrated.csv").is_symlink()
        assert target.read_bytes().startswith(b"sample_id,")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(os.listdir(target.parent)) == ["calibrated.csv"]

    def test_svg_name_too_long_writes_nothing(self, tmp_path, capsys, small):
        paths = _two_datasets(tmp_path, small, "n" * 300, "south")
        out = tmp_path / "out"
        assert main([*_argv("evaluate", paths, out), "--svg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write SVG file ") and "too long" in err
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_disk_full_at_the_fifth_file_keeps_every_file(self, tmp_path, capsys, monkeypatch,
                                                          small):
        """A two-site fit --svg writes params.json, the report and three
        diagrams; the disk is full when the last diagram is written.  Every
        file of the run before keeps its bytes and no temporary file is
        left."""
        paths = _two_datasets(tmp_path, small, "north", "south")
        out = tmp_path / "out"
        argv = [*_argv("fit", paths, out), "--svg"]
        assert main(argv) == 0
        old = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert len(old) == 5
        _disk_full_from(monkeypatch, 5)
        assert main([*argv, "--bins", "10"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write SVG file {out / 'reliability_south.svg'}: "
            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == old

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["evaluate", "fit", "plot"])
    def test_failed_write_into_a_new_out_leaves_no_directory(self, tmp_path, capsys,
                                                             monkeypatch, small, command):
        _disk_full_from(monkeypatch, 1)
        out = tmp_path / "new" / "out"
        assert main(_argv(command, small, out)) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert not (tmp_path / "new").exists()

    def test_report_csv_reads_back_any_scope_name(self, tmp_path, small):
        names = ["a\nb", "c\rd", "e,f", 'g"h']
        with open(small["manifest"], encoding="utf-8") as fh:
            rows = json.load(fh)
        for i, row in enumerate(rows):
            row["dataset_id"] = names[i * len(names) // len(rows)]
        manifest = tmp_path / "names.json"
        manifest.write_text(json.dumps(rows))
        paths = dict(small, manifest=str(manifest))
        assert main([*_argv("evaluate", paths, tmp_path / "ev"), "--format", "csv"]) == 0
        with open(tmp_path / "ev" / "report.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert [len(cells) for cells in table] == [17] * 6
        assert [cells[1] for cells in table[1:]] == ["All", *names]

    def test_outputs_are_utf8_in_the_c_locale(self, tmp_path):
        """A scope named Zürich under an ASCII locale: the report and the
        diagram carry the same bytes, under the same name, as in-process."""
        paths = _synth(tmp_path / "fx", n=60, c=2, extra=("--dataset-id", "Zürich"))
        argv = ["evaluate", *_data_flags(paths), "--svg", "--format", "csv", "--out"]
        assert main([*argv, str(tmp_path / "here")]) == 0
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), LC_ALL="C",
                   PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-m", "mlcalib", *argv, str(tmp_path / "c")],
                              env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        names = sorted(os.listdir(tmp_path / "here"))
        assert names == ["reliability_Zürich.svg", "report.csv"]
        assert sorted(os.listdir(tmp_path / "c")) == names
        for name in names:
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


class TestImports:
    def test_no_command_loads_scipy_or_numpy_ma(self, tmp_path):
        """synth, fit, apply and evaluate all succeed with scipy blocked,
        and none of them imports numpy.ma.  One child interpreter runs all
        four through cli.main."""
        code = (
            "import os, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from mlcalib.cli import main\n"
            "out = sys.argv[1]\n"
            "fx = os.path.join(out, 'fx')\n"
            "data = [f'--predictions={fx}/predictions.csv', f'--labels={fx}/labels.csv',\n"
            "        f'--manifest={fx}/manifest.json']\n"
            "codes = [\n"
            "    main(['synth', '--n', '60', '--classes', '3', '--seed', '4', '--out', fx]),\n"
            "    main(['fit', *data, '--method', 'ps', '--first-minutes', '1',\n"
            "          '--out', os.path.join(out, 'fit')]),\n"
            "    main(['apply', data[0], '--params', os.path.join(out, 'fit', 'params.json'),\n"
            "          '--out', os.path.join(out, 'apply')]),\n"
            "    main(['evaluate', *data, '--out', os.path.join(out, 'evaluate')]),\n"
            "]\n"
            "print(codes, sys.modules['scipy'], 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] None False"

    def test_a_report_names_the_package_version(self, tmp_path):
        """evaluate writes mlcalib.__version__ into its report, installed or
        not, and nothing on the way loads importlib.metadata."""
        paths = _synth(tmp_path / "fx", n=60, c=2)
        code = (
            "import sys\n"
            "from mlcalib.cli import main\n"
            "code = main(['evaluate', *sys.argv[1:]])\n"
            "print(code, 'importlib.metadata' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", code, *_data_flags(paths),
                               "--out", str(tmp_path / "ev")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"
        doc = load_report(str(tmp_path / "ev" / "report.json"))
        assert doc["tool"] == {"name": "mlcalib", "version": mlcalib.__version__}

    def test_pyproject_reads_the_package_version(self):
        """The build takes its version from mlcalib.__version__, the one
        place it is written."""
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        root = pathlib.Path(__file__).resolve().parent.parent
        with warnings.catch_warnings():
            # setuptools before 68 calls [tool.setuptools] beta
            warnings.simplefilter("ignore", UserWarning)
            config = pyprojecttoml.read_configuration(root / "pyproject.toml")
        assert config["project"]["version"] == mlcalib.__version__


# values a fuzzed JSON field is set to; _DELETE removes the field instead
_DELETE = "<delete>"
_JSON_VALUES = (None, True, False, 0, -1, 2.5, 10**400, math.nan, math.inf, -math.inf, "",
                "x", [], [1.0, "x"], {}, {"x": 1}, _DELETE)
_CSV_CELLS = ("nan", "inf", "-inf", "", "x", "1e999", " 0.5 ")
# out-of-range values of each command's flags, in the --flag=value form
_FLAG_VALUES = {
    "evaluate": {"--bins": ("0", "-1", "1001"), "--eps": ("0", "0.5", "-1", "nan", "inf"),
                 "--target-fraction": ("-0.5", "0", "1.5", "nan", "inf")},
    "fit": {"--steps": ("0", "-1"), "--first-minutes": ("-1", "0", "nan", "inf", "-inf"),
            "--bins": ("0", "1001"), "--target-fraction": ("nan", "2")},
    "apply": {"--eps": ("0", "0.5", "nan")},
    "synth": {"--n": ("0", "-1"), "--classes": ("0", "-1"), "--seed": ("-1",),
              "--clip-duration": ("0", "-1", "nan"), "--stddev": ("0", "nan", "inf"),
              "--true-t": ("0", "-1", "nan", "inf"), "--true-b": ("nan", "inf"),
              "--latent-means": ("nan", "1,2,3", "x")},
    "plot": {"--scope": ("nope", "")},
}


def _json_paths(doc, depth):
    """Every key path of at most ``depth`` steps into ``doc``; a list
    contributes its first, fourth and last items."""
    if depth == 0 or not isinstance(doc, (dict, list)):
        return []
    steps = list(doc) if isinstance(doc, dict) else sorted({0, 3, len(doc) - 1} & set(
        range(len(doc))))
    return [path for step in steps
            for path in [(step,)] + [(step, *rest) for rest in _json_paths(doc[step], depth - 1)]]


@pytest.fixture(scope="module")
def fuzz_inputs(small, tmp_path_factory):
    """The small fixture's CSVs and manifest, and the params and report of a
    ps/per-class fit on it (a trace, class names, a split and per-class rows)."""
    out = tmp_path_factory.mktemp("fitted")
    assert main([*_argv("fit", small, out), "--method", "ps", "--scope", "per-class",
                 "--per-class"]) == 0
    return dict(small, params=str(out / "params.json"), report=str(out / "report.json"))


class TestFuzzGate:
    """Mutated inputs and out-of-range flags, run through main in-process:
    each run ends in exit 0, 2 or 3, with one stderr line on a non-zero
    exit, and no exception escapes."""

    # the commands that read each input
    READERS = {"predictions": ("evaluate", "fit", "apply"), "labels": ("evaluate", "fit"),
               "manifest": ("evaluate", "fit"), "params": ("apply",), "report": ("plot",)}

    @staticmethod
    def _csv(data, draw):
        lines = data.decode("utf-8").split("\n")  # header, rows, "" after the last newline
        row = draw(st.integers(1, len(lines) - 2))
        how = draw(st.sampled_from(("truncate", "swap", "cell", "crlf", "bom", "bytes")))
        if how == "truncate":
            lines[row] = lines[row].rsplit(",", 1)[0]
        elif how == "swap":
            other = draw(st.integers(1, len(lines) - 2))
            (a, rest_a), (b, rest_b) = lines[row].split(",", 1), lines[other].split(",", 1)
            lines[row], lines[other] = f"{b},{rest_a}", f"{a},{rest_b}"
        elif how == "cell":
            cells = lines[row].split(",")
            cells[draw(st.integers(1, len(cells) - 1))] = draw(st.sampled_from(_CSV_CELLS))
            lines[row] = ",".join(cells)
        text = ("\r\n" if how == "crlf" else "\n").join(lines).encode("utf-8")
        if how == "bom":
            return b"\xef\xbb\xbf" + text
        if how == "bytes":
            at = draw(st.integers(0, len(text)))
            return text[:at] + b"\xff" + text[at:]
        return text

    @staticmethod
    def _json(data, draw):
        doc = json.loads(data)
        path = draw(st.sampled_from(_json_paths(doc, 3)))
        value = draw(st.sampled_from(_JSON_VALUES))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if value == _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return json.dumps(doc).encode("utf-8")

    @settings(max_examples=200, derandomize=True, database=None, deadline=2000)
    @given(st.data())
    def test_every_run_exits_0_2_or_3_with_one_line(self, fuzz_inputs, data):
        draw = data.draw
        files = {name: pathlib.Path(path).read_bytes() for name, path in fuzz_inputs.items()}
        flags = []
        what = draw(st.sampled_from(("csv", "json", "flag")))
        if what == "flag":
            command = draw(st.sampled_from(sorted(_FLAG_VALUES)))
            flag = draw(st.sampled_from(sorted(_FLAG_VALUES[command])))
            flags.append(f"{flag}={draw(st.sampled_from(_FLAG_VALUES[command][flag]))}")
        else:
            name = draw(st.sampled_from(("predictions", "labels") if what == "csv"
                                        else ("manifest", "params", "report")))
            command = draw(st.sampled_from(self.READERS[name]))
            files[name] = (self._csv if what == "csv" else self._json)(files[name], draw)
        with tempfile.TemporaryDirectory() as root:
            paths = {}
            for name, content in files.items():
                paths[name] = os.path.join(root, name)
                with open(paths[name], "wb") as fh:
                    fh.write(content)
            argv = [*_argv(command, paths, os.path.join(root, "out")), *flags]
            if command == "fit":
                argv += ["--method", "ps", "--scope", "per-class", "--svg", "--per-class"]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
