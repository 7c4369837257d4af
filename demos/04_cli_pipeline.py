"""Drive the command line end to end: synth -> evaluate -> fit -> apply -> plot.

Every step goes through the same entry point the installed `mlcalib`
console script uses, so this is exactly what a shell session would do;
the argv lists below translate one-to-one into terminal commands.  All
artifacts land under demo_out/cli/.
"""

import json
import os

from mlcalib.cli import main

ROOT = os.path.join("demo_out", "cli")
FX = os.path.join(ROOT, "fixture")
EV = os.path.join(ROOT, "evaluate")
FIT = os.path.join(ROOT, "fit")
AP = os.path.join(ROOT, "apply")
PL = os.path.join(ROOT, "plot")


def run(argv):
    print("$ mlcalib " + " ".join(argv))
    code = main(argv)
    assert code == 0, f"exit code {code}"


run(["synth", "--n", "6000", "--classes", "4", "--true-t=2.0", "--true-b=0.5",
     "--seed", "1", "--stddev", "4.0", "--latent-means=-2,-0.5,1,2",
     "--dataset-id", "demo", "--out", FX])

data = [
    "--predictions", os.path.join(FX, "predictions.csv"),
    "--labels", os.path.join(FX, "labels.csv"),
    "--manifest", os.path.join(FX, "manifest.json"),
]

run(["evaluate", *data, "--svg", "--out", EV])
run(["fit", *data, "--method", "ps", "--scope", "global",
     "--first-minutes", "30", "--out", FIT])
run(["apply", "--predictions", os.path.join(FX, "predictions.csv"),
     "--params", os.path.join(FIT, "params.json"), "--out", AP])
run(["plot", "--report", os.path.join(FIT, "report.json"), "--out", PL])

print()
with open(os.path.join(FIT, "report.json"), encoding="utf-8") as fh:
    doc = json.load(fh)
params = doc["params"]["ps/global"]
print(f"fitted T = {params['T']:.3f}, b = {params['b']:+.3f} "
      "(generator used T* = 2.0, b* = +0.5)")
print(f"{'method':10s} {'ECE':>8s} {'MCS':>9s}  improvement")
for row in doc["rows"]:
    rel = row["mcs_rel_improvement_pct"]
    shown = "" if rel is None else (rel if isinstance(rel, str) else f"{rel:+.1f}%")
    print(f"{row['method']:10s} {row['ece']:8.4f} {row['mcs']:+9.4f}  {shown}")

print()
calibrated = os.path.join(AP, "calibrated.csv")
with open(calibrated) as fh:
    header = next(fh).rstrip()
    first = next(fh).rstrip()
print(f"head of {calibrated}:")
print(" ", header[:72] + ("..." if len(header) > 72 else ""))
print(" ", first[:72] + ("..." if len(first) > 72 else ""))

print()
print("artifacts:")
for base, _, names in sorted(os.walk(ROOT)):
    for name in sorted(names):
        print(" ", os.path.join(base, name))
