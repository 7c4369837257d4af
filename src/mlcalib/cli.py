"""Command-line front end: evaluate, fit, apply, synth, plot.

The front end parses flags, loads inputs and routes output paths; the
report document is report's alone.  evaluate and fit share one body:
check the flags, load the file triple, run protocol.run_benchmark (fit
adds its split and method), then write params.json for the fit, the
report and, with --svg, one reliability diagram per scope, after checking
that every one of them can be written.  The diagrams of --svg and of plot
are drawn from a report document, the one report.emit_report returns or
the one plot reads, so plot on a saved report reproduces the --svg bytes.
apply writes calibrated.csv through core.write_rows, the row writer that
also writes synth's fixture: each row part scales and formats its own rows,
so no process holds the calibrated matrix, and a run that fails leaves an
existing file as it was.

Exit codes: 0 on success, 2 on input or validation errors, 3 on numerical
failures.  Every subcommand is deterministic given identical inputs and
flags; reports echo the full flag set so a run can be reproduced.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    NumericalError,
    ValidationError,
    load_dataset,
    matrix_head,
    matrix_rows,
    output_file,
    output_paths,
    read_predictions,
    write_rows,
)
from .metrics import check_bins
from .protocol import FIRST_MINUTES, HELD_OUT, SplitSpec, check_target_fraction, run_benchmark
from .report import (
    Report,
    emit_report,
    load_report,
    plot_scope,
    render_reliability_svg,
    scope_curves,
)
from .scaling import PER_CLASS, FitConfig, apply_scaling, load_params, save_params
from .synth import LatentSpec, SynthConfig, write_fixture


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlcalib",
        description=(
            "Evaluate multi-label classifier calibration from saved predictions "
            "and improve it with post hoc temperature or Platt scaling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predictions_in = argparse.ArgumentParser(add_help=False)
    predictions_in.add_argument("--predictions", required=True, help="predictions CSV")
    predictions_in.add_argument(
        "--probabilities",
        action="store_true",
        help="prediction cells are probabilities in [0,1] instead of logits",
    )
    predictions_in.add_argument(
        "--eps", type=float, default=1e-7, help="probability clamp for logit recovery"
    )

    dataset_in = argparse.ArgumentParser(add_help=False, parents=[predictions_in])
    dataset_in.add_argument("--labels", required=True, help="binary labels CSV")
    dataset_in.add_argument("--manifest", required=True, help="manifest JSON")

    reporting = argparse.ArgumentParser(add_help=False)
    reporting.add_argument("--bins", type=int, default=15, help="reliability bins M")
    reporting.add_argument(
        "--target-fraction",
        type=float,
        default=0.5,
        help="positive mass captured by the frequent class subset",
    )
    reporting.add_argument(
        "--per-class", action="store_true", help="include the per-class table"
    )
    reporting.add_argument("--out", default=".", help="output directory")
    reporting.add_argument("--format", choices=("json", "csv"), default="json")
    reporting.add_argument(
        "--svg", action="store_true", help="also write reliability diagrams"
    )
    reporting.add_argument(
        "--tag", default=None, help="model tag for report rows (default: predictions stem)"
    )

    sub.add_parser(
        "evaluate",
        parents=[dataset_in, reporting],
        help="compute discrimination and calibration metrics",
    )

    fit_p = sub.add_parser(
        "fit",
        parents=[dataset_in, reporting],
        help="fit scaling parameters on a calibration split and compare",
    )
    fit_p.add_argument("--method", choices=("ts", "ps"), required=True)
    fit_p.add_argument("--scope", choices=("global", "per-class"), default="global")
    split_group = fit_p.add_mutually_exclusive_group(required=True)
    split_group.add_argument(
        "--first-minutes",
        type=float,
        help="per dataset, the leading clips covering this many minutes calibrate",
    )
    split_group.add_argument(
        "--calib-dataset", help="dataset_id used as the held-out calibration set"
    )
    fit_p.add_argument(
        "--steps",
        type=int,
        default=1000,
        help="Newton iteration cap, at least 1 (stops on convergence)",
    )

    apply_p = sub.add_parser(
        "apply",
        parents=[predictions_in],
        help="apply saved scaling parameters to a predictions file",
    )
    apply_p.add_argument("--params", required=True, help="params JSON from fit")
    apply_p.add_argument("--out", default=".")

    synth_p = sub.add_parser("synth", help="write a synthetic fixture file triple")
    synth_p.add_argument("--n", type=int, required=True, help="sample count")
    synth_p.add_argument("--classes", type=int, required=True, help="class count")
    synth_p.add_argument(
        "--true-t", default="1.0", help="generator temperature (scalar or comma list)"
    )
    synth_p.add_argument(
        "--true-b", default="0.0", help="generator bias (scalar or comma list)"
    )
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--dataset-id", default="synth")
    synth_p.add_argument("--clip-duration", type=float, default=5.0)
    synth_p.add_argument("--stddev", type=float, default=2.0, help="latent stddev")
    synth_p.add_argument(
        "--latent-means", default=None, help="comma-separated per-class latent means"
    )
    synth_p.add_argument("--out", default=".")

    plot_p = sub.add_parser("plot", help="render reliability diagrams from a report")
    plot_p.add_argument("--report", required=True, help="report JSON path")
    plot_p.add_argument(
        "--scope",
        default=None,
        help="scope to draw (default: All or the only scope, as are 'pooled' and 'all' "
        "where no scope has that name)",
    )
    plot_p.add_argument("--out", default=".")

    return parser


def _echo(args: argparse.Namespace) -> dict:
    return dict(sorted(vars(args).items()))


def _slug(text: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "-_") else "-" for ch in text)


def _model_tag(args) -> str:
    if getattr(args, "tag", None):
        return args.tag
    stem = os.path.basename(args.predictions)
    return stem.rsplit(".", 1)[0] if "." in stem else stem


def _svg_name(scope: str) -> str:
    # the name is UTF-8 on disk, as the contents are, whatever the locale
    return os.fsdecode(f"reliability_{_slug(scope)}.svg".encode("utf-8"))


def _benchmark(args, split=None, methods=(), fit_cfg=None) -> int:
    """The body of evaluate and fit: check the report flags, load the
    triple, run the benchmark, write params.json for the fit, the report
    and, with --svg, one diagram per scope."""
    check_bins(args.bins)
    check_target_fraction(args.target_fraction)
    dataset = load_dataset(
        args.predictions, args.labels, args.manifest, args.probabilities, args.eps
    )
    result = run_benchmark(
        dataset,
        m_bins=args.bins,
        split=split,
        methods=methods,
        fit_cfg=fit_cfg,
        target_fraction=args.target_fraction,
        include_per_class=args.per_class,
        model_tag=_model_tag(args),
    )
    svgs = {}  # file name -> scope
    if args.svg:
        for scope in dict.fromkeys(c.scope for c in result.curves):
            other = svgs.setdefault(_svg_name(scope), scope)
            if other != scope:
                raise ValidationError(
                    f"scopes {other!r} and {scope!r} would both be drawn to "
                    f"reliability_{_slug(scope)}.svg"
                )
    files = {"params.json": "params"} if result.params else {}
    files[f"report.{args.format}"] = "report"
    files.update(dict.fromkeys(svgs, "SVG"))
    paths = output_paths(args.out, files)
    params_docs = {}
    if result.params:
        [(label, (params, trace))] = result.params.items()
        params_docs[label] = save_params(params, trace, paths["params.json"])
    report = Report(
        config=_echo(args),
        rows=result.rows,
        curves=result.curves,
        params=params_docs,
        split_summary=result.split_summary,
    )
    doc = emit_report(report, args.format, paths[f"report.{args.format}"])
    for name, scope in svgs.items():
        with output_file(paths[name], "SVG") as fh:
            fh.write(render_reliability_svg(*scope_curves(doc, scope), title=scope))
    return 0


def cmd_evaluate(args) -> int:
    return _benchmark(args)


def cmd_fit(args) -> int:
    cfg = FitConfig(steps=args.steps)
    if args.first_minutes is not None:
        split = SplitSpec(kind=FIRST_MINUTES, minutes=args.first_minutes)
    else:
        split = SplitSpec(kind=HELD_OUT, calib_dataset=args.calib_dataset)
    return _benchmark(args, split, [(args.method, args.scope)], cfg)


def cmd_apply(args) -> int:
    classes, ids, logits = read_predictions(args.predictions, args.probabilities, args.eps)[:3]
    params = load_params(args.params)
    if params.scope == PER_CLASS and params.classes != classes:
        if len(params.classes) != len(classes):
            why = f"({len(params.classes)} vs {len(classes)})"
        else:
            j = next(j for j, (a, b) in enumerate(zip(params.classes, classes)) if a != b)
            why = f"at position {j} ({params.classes[j]!r} vs {classes[j]!r})"
        raise ValidationError(f"params classes do not match predictions classes {why}")

    def rows(start, stop):  # each part scales and formats its own rows
        return [matrix_rows(ids[start:stop], apply_scaling(logits[start:stop], params))]

    write_rows(args.out, {"calibrated.csv": ("CSV", matrix_head(classes), "")}, len(ids),
               logits.size, rows)
    return 0


def _scalar_or_list(text: str, name: str):
    parts = [p.strip() for p in str(text).split(",")]
    if "" in parts:
        raise ValidationError(f"{name} has an empty item, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{name} must be numeric, got {text!r}") from None
    return values[0] if len(values) == 1 else tuple(values)


def cmd_synth(args) -> int:
    means = None
    if args.latent_means is not None:
        means = _scalar_or_list(args.latent_means, "--latent-means")
    cfg = SynthConfig(
        n=args.n,
        c=args.classes,
        true_t=_scalar_or_list(args.true_t, "--true-t"),
        true_b=_scalar_or_list(args.true_b, "--true-b"),
        seed=args.seed,
        dataset_id=args.dataset_id,
        clip_duration_s=args.clip_duration,
        latent=LatentSpec(means=means, stddev=args.stddev),
    )
    paths = write_fixture(cfg, args.out)
    print("\n".join(f"wrote {paths[key]}" for key in ("predictions", "labels", "manifest", "truth")))
    return 0


def cmd_plot(args) -> int:
    doc = load_report(args.report)
    scope = plot_scope(doc, args.scope, args.report)
    svg = render_reliability_svg(*scope_curves(doc, scope), title=scope)
    name = _svg_name(scope)
    path = output_paths(args.out, {name: "SVG"})[name]
    with output_file(path, "SVG") as fh:
        fh.write(svg)
    print(f"wrote {path}")
    return 0


_DISPATCH = {
    "evaluate": cmd_evaluate,
    "fit": cmd_fit,
    "apply": cmd_apply,
    "synth": cmd_synth,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
