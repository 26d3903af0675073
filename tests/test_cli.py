import json
import os

import numpy as np
import pytest

from slfib.cli import main
from slfib.elliptic import DomainSpec, field_from_callables, save_field
from slfib.models import na_oracle_grid


def run(args):
    return main(args)


def test_solve_disc_smoke(tmp_path, capsys):
    code = run(["solve", "--kind", "disc", "--a", "1.0", "--cos", "1=1",
                "--cos", "3=-1", "--n", "24", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "field.csv").exists()
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    assert diag["converged"] and diag["residual_norm"] < 1e-10
    assert diag["tolerance"] >= 1e-10 and diag["residual_norm"] < diag["tolerance"]
    assert diag["factorizations"] >= 1
    assert diag["newton_iterations"] == diag["factorizations"] + diag["chord_steps"]


def test_solve_strip_constant_limit(tmp_path):
    code = run(["solve", "--kind", "strip", "--a", "0", "--top", "const=1",
                "--bottom", "const=1", "--nx", "32", "--ny", "17",
                "--out", str(tmp_path)])
    assert code == 0
    from slfib.elliptic import load_field

    fld = load_field(tmp_path / "field.csv")
    assert np.max(np.abs(fld.v - 1.0)) < 1e-12


def test_solve_extreme_alpha_is_recorded(tmp_path):
    # a huge first harmonic keeps the field far from the singular regime:
    # the run must finish with a recorded outcome either way
    code = run(["solve", "--kind", "disc", "--a", "0", "--cos", "1=9999",
                "--n", "16", "--schedule", "0.5,0.125,0.03125,0.0078125,0.0001",
                "--out", str(tmp_path)])
    assert code in (0, 4)
    if code == 0:
        assert (tmp_path / "field.csv.diag.json").exists()


def test_solve_determinism(tmp_path):
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = run(["solve", "--kind", "strip", "--a", "0.5", "--top",
                    "const=1,cos 1=0.25", "--bottom", "const=1,cos 1=0.25",
                    "--nx", "32", "--ny", "17", "--out", str(out)])
        assert code == 0
    assert (tmp_path / "one" / "field.csv").read_bytes() == \
        (tmp_path / "two" / "field.csv").read_bytes()


def test_classify_cone_field(tmp_path, capsys):
    fld = field_from_callables(
        DomainSpec.disc(48, 96), 0.0,
        lambda x, y: na_oracle_grid(0.0, x, y)[0],
        lambda x, y: na_oracle_grid(0.0, x, y)[1],
        is_limit=True)
    save_field(fld, tmp_path / "cone.csv")
    code = run(["classify", "--field", str(tmp_path / "cone.csv"),
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    interior = [r for r in report["records"] if not r["boundary"]]
    assert len(interior) == 1
    assert interior[0]["type"] == "increasing"
    assert interior[0]["multiplicity"] == 1
    assert abs(interior[0]["x_location"]) < 1e-6


def test_classify_constant_field_empty(tmp_path):
    code = run(["classify", "--kind", "strip", "--a", "0", "--top", "const=1",
                "--bottom", "const=1", "--nx", "32", "--ny", "17",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["records"] == []


def test_classify_nonisolated_exit_code(tmp_path):
    code = run(["classify", "--kind", "strip", "--a", "0",
                "--top", "sin 1=0.5", "--bottom", "sin 1=-0.5",
                "--nx", "32", "--ny", "17", "--out", str(tmp_path)])
    assert code == 3


def test_sweep_section7_t0(tmp_path):
    code = run(["sweep", "--family", "section7", "--t", "0",
                "--nx", "48", "--ny", "25",
                "--schedule", "0.5,0.125,0.03125,0.0078125,0.0001",
                "--out", str(tmp_path)])
    assert code == 0
    rows = [json.loads(line) for line in
            (tmp_path / "sweep.ndjson").read_text().splitlines()]
    assert abs(rows[0]["alpha"]) < 1e-4 and abs(rows[0]["beta"]) < 1e-4
    csv = (tmp_path / "curves.csv").read_text().splitlines()
    assert csv[0] == "t,alpha_t,beta_t"


def test_sweep_jobs_matches_the_serial_run(tmp_path):
    # --jobs 2 solves each t in a worker process; the curves must not change
    for jobs in ("1", "2"):
        code = run(["sweep", "--family", "section7", "--t", "0.25,0.5",
                    "--nx", "32", "--ny", "17",
                    "--schedule", "0.5,0.125,0.03125,0.0078125,0.001",
                    "--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert code == 0
    assert (tmp_path / "1" / "curves.csv").read_bytes() == \
        (tmp_path / "2" / "curves.csv").read_bytes()


def test_sweep_empty_t_usage_error(tmp_path):
    code = run(["sweep", "--family", "section7", "--t", "", "--out", str(tmp_path)])
    assert code == 2


def test_project_trivial_strip(tmp_path, capsys):
    code = run(["project", "--family", "section7", "--t", "0",
                "--z1", "1", "--z2", "1", "--z3", "1j",
                "--nx", "48", "--ny", "25",
                "--schedule", "0.5,0.125,0.0001", "--out", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(out["a"]) < 1e-9
    assert abs(out["b"] - 1.0) < 1e-5
    assert abs(out["c"] - 1.0) < 1e-5


def test_fiber_sample(tmp_path):
    code = run(["fiber-sample", "--model", "na", "--a", "0.5", "--count", "16",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fiber.csv").read_text().splitlines()
    assert len(lines) == 17
    z1r, z1i, z2r, z2i, z3r, z3i = map(float, lines[1].split(","))
    assert abs((z1r**2 + z1i**2) - (z2r**2 + z2i**2) - 1.0) < 1e-9


def test_sl_check(tmp_path):
    code = run(["sl-check", "--model", "Fprime", "--a", "0.4", "--c", "0.2+0.1j",
                "--frames", "40", "--out", str(tmp_path)])
    assert code == 0


def test_monodromy_default(tmp_path, capsys):
    code = run(["monodromy", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ribbon_positive.csv").exists()
    assert (tmp_path / "ribbon_negative.csv").exists()
    checks = json.loads((tmp_path / "monodromy_checks.json").read_text())
    assert checks["transpose_duality"] and checks["unipotent"]
    header = (tmp_path / "ribbon_positive.csv").read_text().splitlines()[0]
    assert header == "piece_id,x1,x2,x3"


def test_monodromy_show_fixed(tmp_path, capsys):
    code = run(["monodromy", "--vertex", "positive", "--show-fixed",
                "--out", str(tmp_path)])
    assert code == 0
    fixed = json.loads(capsys.readouterr().out)
    assert [0, 1, 0] in fixed["column_fixed"]


def test_monodromy_duality_flag(tmp_path, capsys):
    code = run(["monodromy", "--duality", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_oracle_single(capsys):
    code = run(["oracle", "--a", "1", "--x", "0", "--y", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["u"] + (1 + np.sqrt(2)) ** -0.5) < 1e-12


def test_oracle_grid(tmp_path):
    code = run(["oracle", "--a", "0.5", "--grid=-1:1:5;-1:1:5",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert len(lines) == 26


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"a": 1.0, "x": 0.0, "y": 1.0}))
    code = run(["oracle", "--a", "0.0", "--config", str(conf)])
    # --a was given explicitly and wins; x and y come from the config
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["u"] == -1.0


def test_config_does_not_override_a_flag_at_its_default(tmp_path):
    # --a 0.5 is fiber-sample's default, but it was given and must win
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"a": 0.7, "count": 4}))
    code = run(["fiber-sample", "--a", "0.5", "--config", str(conf),
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fiber.csv").read_text().splitlines()
    assert len(lines) == 5                      # count comes from the config
    for line in lines[1:]:
        z1r, z1i, z2r, z2i, _, _ = map(float, line.split(","))
        assert abs((z1r**2 + z1i**2) - (z2r**2 + z2i**2) - 1.0) < 1e-9   # 2a, a = 0.5


def test_config_list_gives_way_to_a_repeated_flag(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cos": ["3=-1"], "a": 0.5}))
    code = run(["solve", "--kind", "disc", "--a", "1.0", "--n", "16", "--cos", "1=1",
                "--config", str(conf), "--out", str(tmp_path)])
    assert code == 0
    from slfib.elliptic import load_field

    fld = load_field(tmp_path / "field.csv")
    assert fld.boundary["circle"].cos_coeffs == ((1, 1.0),)
    assert fld.a == 1.0
