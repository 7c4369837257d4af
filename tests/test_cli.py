import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mlcalib.cli import main
from mlcalib.core import _read_matrix_csv, sigmoid
from mlcalib.report import load_report
from mlcalib.scaling import ScalingParams, apply_scaling, load_params, save_params


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
        truth = json.load(open(paths["truth"]))
        assert truth["n"] == 2000 and truth["true_T"] == [1.0, 1.0, 1.0]

    def test_vector_t_and_b(self, tmp_path):
        paths = _synth(tmp_path, c=3, true_t="1.0,2.0,0.5", true_b="0.1,0.0,-0.1")
        truth = json.load(open(paths["truth"]))
        assert truth["true_T"] == [1.0, 2.0, 0.5]
        assert truth["true_b"] == [0.1, 0.0, -0.1]

    def test_bad_true_t_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--n", "10", "--classes", "2",
                     "--true-t", "abc", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "cells, flags, want",
        [
            ("0.25,0.5\ns1,0.75,1.5", ["--probabilities"], "probability outside [0, 1] (row 1, class b)"),
            ("nan,0.5\ns1,0.75,1.5", [], "non-finite value (row 0, class a)"),
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
        assert want in capsys.readouterr().err
        assert not (tmp_path / "ap").exists()


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


class TestImports:
    def test_scipy_loads_only_when_synth_runs(self):
        """Commands that read files never pay for scipy's import; synth
        still loads it and works.  One child interpreter checks both."""
        code = (
            "import sys, mlcalib.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from mlcalib.synth import SynthConfig, generate\n"
            "dataset, _ = generate(SynthConfig(n=5, c=2))\n"
            "print(dataset.logits.shape, 'scipy.special' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "(5, 2) True"]
