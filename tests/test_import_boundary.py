"""Solving and analysing load none of scipy.interpolate, scipy.optimize and scipy.special.

The axis spline and the field interpolant are the package's own
(``slfib._splines``).  Checked in a fresh interpreter, since the test
session itself has loaded all three long before any test runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from slfib.elliptic import DomainSpec, field_from_callables, load_field
from slfib.models import na_oracle_grid
from slfib.singularities import analyze_field, detect_axis_zeros

SRC = Path(__file__).resolve().parents[1] / "src"
NEVER = ("scipy.interpolate", "scipy.optimize", "scipy.special")
POINT = (0.3, 0.2)

SCRIPT = """
import json, os, sys
import slfib, slfib.cli, slfib.fibrations, slfib.singularities, slfib.monodromy
from slfib import cli
from slfib.elliptic import DomainSpec, field_from_callables
from slfib.models import na_oracle_grid
from slfib.singularities import analyze_field, detect_axis_zeros

NEVER = %r
loaded = {}
out = sys.argv[1]
assert cli.main(["oracle", "--a", "0.5", "--x", "1.0"]) == 0
assert cli.main(["solve", "--kind", "disc", "--a", "0", "--nx", "32", "--ny", "64",
                 "--cos", "1=1.25", "--cos", "3=-1", "--out", out]) == 0
loaded["solve"] = [m for m in NEVER if m in sys.modules]
fld = field_from_callables(DomainSpec.disc(48, 96), 0.0,
                           lambda x, y: na_oracle_grid(0.0, x, y)[0],
                           lambda x, y: na_oracle_grid(0.0, x, y)[1])
uv = [float(w) for w in fld.uv(*%r)]
loaded["uv"] = [m for m in NEVER if m in sys.modules]
zeros = detect_axis_zeros(fld)[0]
records = [r.to_json() for r in analyze_field(fld)["records"]]
loaded["analyze_field"] = [m for m in NEVER if m in sys.modules]
assert cli.main(["classify", "--field", os.path.join(out, "field.csv"),
                 "--out", os.path.join(out, "classified")]) == 0
loaded["classify"] = [m for m in NEVER if m in sys.modules]
print(json.dumps({"loaded": loaded, "uv": uv, "zeros": zeros, "records": records}))
""" % (NEVER, POINT)


def _level_zero_oracle_field():
    return field_from_callables(DomainSpec.disc(48, 96), 0.0,
                                lambda x, y: na_oracle_grid(0.0, x, y)[0],
                                lambda x, y: na_oracle_grid(0.0, x, y)[1])


def test_solve_and_analysis_load_no_interpolate_optimize_or_special(tmp_path):
    env = dict(os.environ)
    env.pop("SLFIB_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["loaded"] == {"solve": [], "uv": [], "analyze_field": [], "classify": []}

    fld = _level_zero_oracle_field()
    assert out["uv"] == [float(w) for w in fld.uv(*POINT)]
    assert out["zeros"] == detect_axis_zeros(fld)[0]
    assert out["records"] == [r.to_json() for r in analyze_field(fld)["records"]]
    report = json.loads((tmp_path / "classified" / "report.json").read_text())
    solved = analyze_field(load_field(str(tmp_path / "field.csv")))
    assert report["records"] == [r.to_json() for r in solved["records"]]
