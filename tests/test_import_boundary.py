"""Importing slfib and solving load neither scipy.interpolate nor scipy.optimize.

Checked in a fresh interpreter, since the test session itself has loaded
both long before any test runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from slfib.elliptic import DomainSpec, field_from_callables
from slfib.models import na_oracle_grid
from slfib.singularities import detect_axis_zeros

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.interpolate", "scipy.optimize")
POINT = (0.3, 0.2)

SCRIPT = """
import json, sys
import slfib, slfib.cli, slfib.fibrations, slfib.singularities, slfib.monodromy
from slfib import cli
from slfib.elliptic import DomainSpec, field_from_callables
from slfib.models import na_oracle_grid
from slfib.singularities import detect_axis_zeros

LAZY = %r
loaded = {}
assert cli.main(["oracle", "--a", "0.5", "--x", "1.0"]) == 0
assert cli.main(["solve", "--kind", "disc", "--a", "0.05", "--nx", "32", "--ny", "64",
                 "--cos", "1=1.25", "--cos", "3=-1", "--out", sys.argv[1]]) == 0
loaded["solve"] = [m for m in LAZY if m in sys.modules]
fld = field_from_callables(DomainSpec.disc(48, 96), 0.0,
                           lambda x, y: na_oracle_grid(0.0, x, y)[0],
                           lambda x, y: na_oracle_grid(0.0, x, y)[1], is_limit=True)
uv = [float(w) for w in fld.uv(*%r)]
loaded["uv"] = [m for m in LAZY if m in sys.modules]
zeros = detect_axis_zeros(fld)
print(json.dumps({"loaded": loaded, "uv": uv, "zeros": zeros}))
""" % (LAZY, POINT)


def _level_zero_oracle_field():
    return field_from_callables(DomainSpec.disc(48, 96), 0.0,
                                lambda x, y: na_oracle_grid(0.0, x, y)[0],
                                lambda x, y: na_oracle_grid(0.0, x, y)[1], is_limit=True)


def test_scipy_interpolate_and_optimize_load_on_first_use(tmp_path):
    env = dict(os.environ)
    env.pop("SLFIB_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert (tmp_path / "field.csv").exists()
    assert out["loaded"] == {"solve": [], "uv": list(LAZY)}

    fld = _level_zero_oracle_field()
    assert out["uv"] == [float(w) for w in fld.uv(*POINT)]
    assert out["zeros"] == detect_axis_zeros(fld)
