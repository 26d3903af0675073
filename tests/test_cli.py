import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slfib import cli, fibrations
from slfib.cli import main
from slfib.elliptic import DEFAULT_A_MIN, DomainSpec, field_from_callables, load_field, save_field
from slfib.errors import SolverDiverged
from slfib.models import na_oracle_grid


def run(args):
    return main(args)


@pytest.fixture
def fresh_cache(monkeypatch):
    """The family solves of a sweep start from an empty cache, whatever ran before."""
    monkeypatch.setattr(fibrations, "_shared_cache", fibrations.SolverCache())


def full_grid_residual(path):
    """The largest residual of the dumped field on its full grid."""
    fld = load_field(path)
    if fld.kind == "disc":
        res = fld.grid.residual(fld.f[:-1], fld.f[-1], fld.a)
    else:
        res = fld.grid.residual(fld.v[1:-1], fld.v[-1], fld.v[0], fld.a)
    return np.max(np.abs(res))


def test_solve_disc_smoke(tmp_path, capsys):
    code = run(["solve", "--kind", "disc", "--a", "1.0", "--cos", "1=1",
                "--cos", "3=-1", "--nx", "24", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "field.csv").exists()
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    assert diag["converged"] and diag["residual_norm"] < 1e-10
    assert diag["tolerance"] >= 1e-10 and diag["residual_norm"] < diag["tolerance"]
    assert diag["factorizations"] >= 1
    assert diag["newton_iterations"] == diag["factorizations"] + diag["chord_steps"]
    # odd cosines: Newton solved on the quarter 0 <= theta < pi/2 of the (24, 48) grid
    assert diag["unknowns"] == 23 * 12


def test_solve_strip_constant_limit(tmp_path):
    code = run(["solve", "--kind", "strip", "--a", "0", "--top", "const=1",
                "--bottom", "const=1", "--nx", "32", "--ny", "17",
                "--out", str(tmp_path)])
    assert code == 0
    fld = load_field(tmp_path / "field.csv")
    assert np.max(np.abs(fld.v - 1.0)) < 1e-12


def test_solve_strip_takes_the_half_width_and_the_period(tmp_path):
    edge = "const=-0.16,cos 1=0.5"
    assert run(["solve", "--kind", "strip", "--R", "2", "--P", "4", "--a", "0.05",
                "--nx", "32", "--ny", "17", "--top", edge, "--bottom", edge,
                "--out", str(tmp_path)]) == 0
    fld = load_field(tmp_path / "field.csv")
    x, y = fld.grid.nodes()
    assert (y.min(), y.max()) == (-2.0, 2.0)
    assert (x.min(), x.max()) == (0.0, 4.0 - 4.0 / 32)
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    assert full_grid_residual(tmp_path / "field.csv") <= diag["tolerance"]


def test_solve_extreme_alpha_is_recorded(tmp_path):
    # a huge first harmonic keeps the field far from the singular regime:
    # the run must finish with a recorded outcome either way
    code = run(["solve", "--kind", "disc", "--a", "0", "--cos", "1=9999",
                "--nx", "16", "--out", str(tmp_path)])
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
        lambda x, y: na_oracle_grid(0.0, x, y)[1])
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


def interior_records(report):
    return [(r["type"], r["multiplicity"], r["x_location"])
            for r in report["records"] if not r["boundary"]]


def solve_and_classify(tmp_path, *solve_flags):
    """The exit code of classify on the dump that solve writes from ``solve_flags``."""
    assert run(["solve", *solve_flags, "--out", str(tmp_path)]) == 0
    return run(["classify", "--field", str(tmp_path / "field.csv"), "--out", str(tmp_path)])


def test_classify_level_zero_disc(tmp_path):
    code = solve_and_classify(tmp_path, "--kind", "disc", "--a", "0", "--nx", "32", "--ny", "64",
                              "--cos", "1=1.25", "--cos", "3=-1")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert interior_records(report) == [("increasing", 1, pytest.approx(-0.6091748, abs=1e-6)),
                                        ("decreasing", 1, pytest.approx(0.6091748, abs=1e-6))]
    assert report["l"] == 3
    assert report["bound_ok"] is True and report["parity_ok"] is True


def test_classify_level_zero_strip_dump(tmp_path):
    # the dump goes through load_field, grid.axis and grid.interpolant
    code = solve_and_classify(tmp_path, "--kind", "strip", "--a", "0", "--nx", "64", "--ny", "33",
                              "--top", "cos 1=0.5", "--bottom", "cos 1=0.5")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert interior_records(report) == [
        ("decreasing", 1, pytest.approx(np.pi / 2, abs=1e-6)),
        ("increasing", 1, pytest.approx(3 * np.pi / 2, abs=1e-6))]
    assert report["parity_ok"] is True
    assert report["l"] is None


def test_classify_constant_field_empty(tmp_path):
    code = solve_and_classify(tmp_path, "--kind", "strip", "--a", "0", "--top", "const=1",
                              "--bottom", "const=1", "--nx", "32", "--ny", "17")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["records"] == []


def test_classify_nonisolated_exit_code(tmp_path):
    code = solve_and_classify(tmp_path, "--kind", "strip", "--a", "0",
                              "--top", "sin 1=0.5", "--bottom", "sin 1=-0.5",
                              "--nx", "32", "--ny", "17")
    assert code == 3


@pytest.mark.parametrize("damage, error", [
    (lambda lines: ["{}", *lines[1:]], "the dump's header lacks the key 'boundary'"),
    (lambda lines: lines[:-5],
     "the header's disc grid needs 1025 rows of 5 values, the body has 1020 rows of 5"),
    (lambda lines: [lines[0].replace('"n_x": 16', '"n_x": 32'), *lines[1:]],
     "the header's disc grid needs 2049 rows of 5 values, the body has 1025 rows of 5"),
    (lambda lines: [*lines[:-1], lines[-1][:lines[-1].rindex(",")]],
     "the number of columns changed from 5 to 4"),
    (lambda lines: ["null", *lines[1:]], "the dump's header is not a JSON object"),
    (lambda lines: lines[:2], "the dump has no body rows"),
], ids=["empty-header", "truncated-body", "wrong-n_x", "cut-row", "null-header", "no-body"])
def test_malformed_dump_exits_1_with_one_line_naming_it(damage, error, tmp_path, capsys):
    fld = field_from_callables(DomainSpec.disc(16, 64), 0.5, lambda x, y: -y, lambda x, y: x)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_field(fld, good)
    bad.write_text("\n".join(damage(good.read_text().splitlines())) + "\n")
    assert run(["classify", "--field", str(bad), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{bad}: {error}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, alpha, tol", [
    (["--t", "0", "--nx", "48", "--ny", "25"], 0.0, 1e-4),
    (["--t", "0.5", "--nx", "64", "--ny", "33"], -0.168392181, 1e-5),
], ids=["t=0", "t=0.5"])
def test_sweep_section7_band_edges(argv, alpha, tol, tmp_path, fresh_cache):
    # the band [alpha(t), beta(t)] is symmetric about b = 0
    code = run(["sweep", "--family", "section7", *argv, "--out", str(tmp_path)])
    assert code == 0
    (rec,) = [json.loads(line) for line in
              (tmp_path / "sweep.ndjson").read_text().splitlines()]
    assert abs(rec["alpha"] - alpha) < tol and abs(rec["beta"] + alpha) < tol
    assert abs(rec["alpha"] + rec["beta"]) < tol
    header, row = (tmp_path / "curves.csv").read_text().splitlines()
    assert header == "t,alpha_t,beta_t"
    assert [float(val) for val in row.split(",")[1:]] == [rec["alpha"], rec["beta"]]


def test_sweep_section6_roots_and_zero_counts(tmp_path, fresh_cache):
    code = run(["sweep", "--family", "section6", "--nx", "32", "--ny", "64",
                "--alpha-grid", "5", "--out", str(tmp_path)])
    assert code == 0
    records = [json.loads(line) for line in
               (tmp_path / "sweep.ndjson").read_text().splitlines()]
    (roots,) = [rec for rec in records if "alpha0" in rec]
    assert abs(roots["alpha0"] - 0.176115334) <= 1e-5
    assert abs(roots["alpha1"] - 2.241532505) <= 1e-5
    lines = (tmp_path / "zero_counts.csv").read_text().splitlines()
    assert lines[0] == "alpha,zero_count" and len(lines) == 6
    # below alpha0, between the roots and above alpha1: no, two and no interior zeros
    assert [lines[k].split(",")[1] for k in (1, 3, 5)] == ["0", "2", "0"]


def test_sweep_alpha_grid_row_whose_classification_raises(tmp_path, monkeypatch, fresh_cache):
    from slfib import singularities
    from slfib.errors import NonisolatedSingularities

    detect, calls = singularities.detect_axis_zeros, []

    def second_raises(fld):
        calls.append(fld)
        if len(calls) == 2:
            raise NonisolatedSingularities("v vanishes on a stretch of the axis")
        return detect(fld)

    monkeypatch.setattr(singularities, "detect_axis_zeros", second_raises)
    assert run(["sweep", "--family", "section6", "--nx", "32", "--ny", "64",
                "--alpha-grid", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "zero_counts.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [count for _, count in rows] == ["0", "-1", "0"]
    records = [json.loads(line) for line in
               (tmp_path / "sweep.ndjson").read_text().splitlines()]
    assert [rec for rec in records if "error" in rec] == [
        {"alpha": float(rows[1][0]), "error": "nonisolated-singularities"}]


def test_negative_alpha_grid_exits_1_before_any_solve(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fibrations, "find_alpha0_alpha1", None)   # a root search would fail
    assert run(["sweep", "--family", "section6", "--nx", "32", "--ny", "64",
                "--alpha-grid", "-2", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["--alpha-grid must be non-negative, got -2"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, line", [
    (["--family", "section7", "--t", "0.5", "--jobs", "-3"], "--jobs must be at least 1, got -3"),
    (["--family", "section7", "--t", "0.5", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["--family", "section7", "--t", "0.5", "--alpha-grid", "3"],
     "--alpha-grid is for section6 only, got 3 for section7"),
    (["--family", "section6", "--jobs", "4"], "--jobs is for section7 only, got 4 for section6"),
    (["--family", "section7", "--t", "0.5,x"], "--t item 'x' is not a number"),
    (["--family", "section7", "--t", "nan"], "--t items must be finite, got nan"),
    (["--family", "section7", "--t", "0.5,-inf"], "--t items must be finite, got -inf"),
    (["--family", "section6", "--t", "0.5"], "--t is for section7 only, got 0.5 for section6"),
], ids=["jobs-negative", "jobs-zero", "alpha-grid-section7", "jobs-section6", "t-malformed",
        "t-nan", "t-inf", "t-section6"])
def test_sweep_flag_out_of_range_exits_1_before_any_solve(argv, line, tmp_path, monkeypatch,
                                                          capsys):
    # a solve would fail: neither root search nor strip curve may be reached
    monkeypatch.setattr(fibrations, "find_alpha0_alpha1", None)
    monkeypatch.setattr(fibrations, "alpha_beta_curves", None)
    assert run(["sweep", *argv, "--nx", "32", "--ny", "17", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, line", [
    (["--family", "section6", "--t", "0.5"], "--t is for section7 only, got 0.5 for section6"),
    (["--family", "section7", "--t", "nan"], "--t must be finite, got nan"),
    (["--family", "section7", "--t", "inf"], "--t must be finite, got inf"),
], ids=["t-section6", "t-nan", "t-inf"])
def test_project_flag_out_of_range_exits_1_before_any_solve(argv, line, monkeypatch, capsys):
    # a solve would fail: the projection may not be reached
    monkeypatch.setattr(fibrations, "project_to_base", None)
    assert run(["project", *argv, "--z1", "1", "--z2", "1", "--z3", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def _no_solves(monkeypatch):
    """Make every solve and search that the CLI can reach fail."""
    for name in ("solve_disc", "solve_disc_limit", "solve_strip", "solve_strip_limit"):
        monkeypatch.setattr(cli, name, None)
    for name in ("find_alpha0_alpha1", "alpha_beta_curves", "project_to_base"):
        monkeypatch.setattr(fibrations, name, None)


@pytest.mark.parametrize("flag", ["--nx", "--ny"])
@pytest.mark.parametrize("argv", [
    ["solve", "--kind", "disc", "--a", "1", "--cos", "3=-1"],
    ["solve", "--kind", "strip", "--a", "0"],
    ["sweep", "--family", "section6"],
    ["sweep", "--family", "section7", "--t", "0.5"],
    ["project", "--family", "section7", "--z1", "1", "--z2", "1", "--z3", "0"],
], ids=["solve-disc", "solve-strip", "sweep-section6", "sweep-section7", "project"])
def test_zero_resolution_exits_1_before_any_solve(argv, flag, tmp_path, monkeypatch, capsys):
    _no_solves(monkeypatch)
    out = [] if argv[0] == "project" else ["--out", str(tmp_path / "out")]
    assert run([*argv, flag, "0", *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["resolutions must be at least 16"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, line", [
    (["solve", "--kind", "strip", "--cos", "1=7", "--const", "2"],
     "--cos is for --kind disc only, got ['1=7'] for --kind strip"),
    (["solve", "--kind", "strip", "--sin", "2=1"],
     "--sin is for --kind disc only, got ['2=1'] for --kind strip"),
    (["solve", "--kind", "strip", "--const", "2"],
     "--const is for --kind disc only, got 2.0 for --kind strip"),
    (["solve", "--kind", "disc", "--top", "const=5", "--R", "3"],
     "--top is for --kind strip only, got const=5 for --kind disc"),
    (["solve", "--kind", "disc", "--bottom", "const=5"],
     "--bottom is for --kind strip only, got const=5 for --kind disc"),
    (["solve", "--kind", "disc", "--R", "3"],
     "--R is for --kind strip only, got 3.0 for --kind disc"),
    (["solve", "--kind", "disc", "--P", "3"], "--P is for --kind strip only, got 3.0 for --kind disc"),
], ids=["cos", "sin", "const", "top", "bottom", "R", "P"])
def test_the_other_kinds_data_flag_exits_1_before_any_solve(argv, line, tmp_path, monkeypatch,
                                                            capsys):
    _no_solves(monkeypatch)
    assert run([*argv, "--a", "0.5", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--kind", "disc"], ["--kind", "strip"], ["--a", "0"], ["--a", "0.5"], ["--nx", "16"],
    ["--ny", "32"], ["--R", "2"], ["--P", "3"], ["--cos", "1=30"], ["--sin", "2=1"],
    ["--const", "1"], ["--top", "const=9"], ["--bottom", "const=9"], ["--out-field", "f.csv"],
    ["--cos", "1=30", "--kind", "strip", "--top", "const=9"],
], ids=lambda flags: "three-flags" if len(flags) > 2 else "-".join(flags))
def test_classify_refuses_a_solve_flag(flags, tmp_path, monkeypatch, capsys):
    # classify reads a dump only: the data flags belong to solve
    monkeypatch.setattr(cli, "load_field", None)
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--field", str(tmp_path / "no-such-dump.csv"), *flags,
             "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_diag_counts_each_factorisation_by_its_reason(tmp_path):
    code = run(["solve", "--kind", "disc", "--a", "0", "--nx", "32", "--ny", "64",
                "--cos", "1=2.2", "--cos", "3=-1", "--out", str(tmp_path)])
    assert code == 0
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    reasons = ("no_factor", "rejected_chord", "horizon", "damped")
    for record in (diag, *diag["levels"]):
        assert sorted(record["refactors"]) == sorted(reasons)
        assert sum(record["refactors"].values()) == record["factorizations"]
    assert diag["refactors"] == {r: sum(lev["refactors"][r] for lev in diag["levels"])
                                 for r in reasons}
    # one factor serves the whole continuation: only the first level starts without one
    assert [lev["refactors"]["no_factor"] for lev in diag["levels"]][:2] == [1, 0]
    assert diag["refactors"]["horizon"] >= 1


def test_sweep_jobs_matches_the_serial_run(tmp_path):
    # --jobs 2 solves each t in a worker process; the curves must not change
    for jobs in ("1", "2"):
        code = run(["sweep", "--family", "section7", "--t", "0.25,0.5",
                    "--nx", "32", "--ny", "17",
                    "--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert code == 0
    assert (tmp_path / "1" / "curves.csv").read_bytes() == \
        (tmp_path / "2" / "curves.csv").read_bytes()


def test_sweep_jobs_never_exceed_the_t_values(tmp_path, monkeypatch):
    # a fork-started pool starts all of its workers at the first submit
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    for ts in ("0.5,0.25", "0.5"):
        code = run(["sweep", "--family", "section7", "--t", ts, "--nx", "32", "--ny", "17",
                    "--jobs", "64", "--out", str(tmp_path / ts)])
        assert code == 0
    assert asked == [2]  # two t values ask for two workers, one t for no pool


def test_sweep_empty_t_usage_error(tmp_path):
    code = run(["sweep", "--family", "section7", "--t", "", "--out", str(tmp_path / "out")])
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_project_trivial_strip(capsys):
    code = run(["project", "--family", "section7", "--t", "0",
                "--z1", "1", "--z2", "1", "--z3", "1j",
                "--nx", "48", "--ny", "25"])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(out["a"]) < 1e-9
    assert abs(out["b"] - 1.0) < 1e-5
    assert abs(out["c"] - 1.0) < 1e-5


@pytest.mark.parametrize("argv", [
    # (Re z3, Im z1 z2) = (3, 0) lies off the unit disc and (0, 4) off the strip |y| < 1
    ["--family", "section6", "--z1", "1", "--z2", "1", "--z3", "3+2j"],
    ["--family", "section7", "--t", "0", "--z1", "2", "--z2", "2j", "--z3", "0"],
], ids=["section6", "section7"])
def test_project_outside_the_total_space_exits_1(argv, capsys):
    assert run(["project", *argv]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("outside-total-space:")


@pytest.mark.parametrize("argv, flag, text", [
    (["fiber-sample", "--count", "1", "--c", "nanj"], "c", "nanj"),
    (["fiber-sample", "--count", "1", "--c", "1+xj"], "c", "1+xj"),
    (["sl-check", "--frames", "1", "--c", "inf"], "c", "inf"),
    (["project", "--family", "section6", "--z1", "1", "--z2", "1", "--z3", "nan"], "z3", "nan"),
    (["project", "--family", "section6", "--z1", "1j+", "--z2", "1", "--z3", "0"], "z1", "1j+"),
    (["project", "--family", "section7", "--z1", "1", "--z2", "1-infj", "--z3", "0"],
     "z2", "1-infj"),
], ids=["c-nan", "c-malformed", "sl-check-c-inf", "z3-nan", "z1-malformed", "z2-inf"])
def test_complex_flag_that_is_malformed_or_not_finite_exits_1(argv, flag, text, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"--{flag} must be a finite complex number, got {text!r}"]
    assert list(tmp_path.iterdir()) == []


def test_fiber_sample(tmp_path):
    code = run(["fiber-sample", "--model", "na", "--a", "0.5", "--count", "16",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fiber.csv").read_text().splitlines()
    assert len(lines) == 17
    z1r, z1i, z2r, z2i, z3r, z3i = map(float, lines[1].split(","))
    assert abs((z1r**2 + z1i**2) - (z2r**2 + z2i**2) - 1.0) < 1e-9


def test_sl_check():
    code = run(["sl-check", "--model", "Fprime", "--a", "0.4", "--c", "0.2+0.1j",
                "--frames", "40"])
    assert code == 0


@pytest.mark.parametrize("frames", ["0", "-3"])
def test_sl_check_rejects_fewer_than_one_frame(frames, capsys):
    assert run(["sl-check", "--frames", frames]) == 1
    assert "--frames must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_sl_check_rejects_a_tolerance_that_is_not_finite_and_positive(tol, capsys):
    assert run(["sl-check", "--frames", "1", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--tol must be finite and positive" in lines[0]


@pytest.mark.parametrize("extent", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["fiber-sample", "sl-check"])
def test_extent_that_is_not_finite_and_non_negative_exits_1(command, extent, tmp_path, capsys):
    out = ["--out", str(tmp_path)] if command == "fiber-sample" else []
    assert run([command, "--extent", extent] + out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--extent must be finite and non-negative" in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["fiber-sample", "sl-check"])
def test_extent_zero_is_valid(command, tmp_path):
    count = ["--frames", "1"] if command == "sl-check" else ["--count", "2", "--out", str(tmp_path)]
    assert run([command, "--extent", "0"] + count) == 0


def test_negative_count_exits_1_and_writes_nothing(tmp_path, capsys):
    assert run(["fiber-sample", "--count", "-2", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--count must be non-negative" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_count_zero_writes_the_header_only(tmp_path):
    assert run(["fiber-sample", "--count", "0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fiber.csv").read_text() == "z1_re,z1_im,z2_re,z2_im,z3_re,z3_im\n"


@pytest.mark.parametrize("argv", [
    ["project", "--family", "section7", "--z1", "1", "--z2", "1", "--z3", "1j"],
    ["sl-check", "--frames", "1"],
], ids=["project", "sl-check"])
def test_commands_that_write_nothing_take_no_out(argv, capsys):
    with pytest.raises(SystemExit):
        run(argv + ["--out", "."])
    assert "unrecognized arguments: --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--kind", "disc", "--a", "0.5", "--nx", "16", "--ny", "32", "--cos", "1=nan"],
    ["solve", "--kind", "disc", "--a", "0.5", "--nx", "16", "--ny", "32", "--cos", "1=inf"],
    ["solve", "--kind", "disc", "--a", "nan", "--nx", "16", "--ny", "32", "--cos", "1=1"],
    ["solve", "--kind", "strip", "--a", "0.5", "--nx", "16", "--ny", "17",
     "--top", "const=nan", "--bottom", "const=nan"],
    ["sweep", "--family", "section7", "--t", "nan", "--nx", "16", "--ny", "17"],
    ["oracle", "--a", "nan", "--x", "1"],
], ids=["disc-cos-nan", "disc-cos-inf", "disc-a-nan", "strip-top-nan", "sweep-t-nan",
        "oracle-a-nan"])
def test_non_finite_input_exits_1_with_one_line(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "finite" in lines[0]


@pytest.mark.parametrize("token", ["cos=0.5", "sin=0.5", "cosine 1=0.5", "sinh 2=1",
                                   "cos 1 2=0.5", "const 1=0.5", "cos x=0.5", "cos 1"])
def test_malformed_strip_edge_token_exits_1_with_one_line(token, tmp_path, capsys):
    assert run(["solve", "--kind", "strip", "--a", "0.5", "--nx", "32", "--ny", "17",
                "--top", token, "--bottom", token, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"cannot parse edge token {token!r}"]
    assert not (tmp_path / "field.csv").exists()


@pytest.mark.parametrize("flag", ["--cos", "--sin"])
@pytest.mark.parametrize("item", ["1", "x=1", "1.5=1", "=2"])
def test_malformed_disc_item_exits_1_with_one_line_naming_it(flag, item, tmp_path, capsys):
    assert run(["solve", "--kind", "disc", "--a", "0.5", "--nx", "16", "--ny", "32",
                flag, item, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"cannot parse {flag} item {item!r}"]
    assert not (tmp_path / "field.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "disc", "--nx", "32", "--ny", "64", "--cos=-1=1", "--cos", "3=-1"],
    ["--kind", "strip", "--nx", "32", "--ny", "17", "--top", "cos -3=0.5",
     "--bottom", "cos -3=0.5"],
], ids=["disc", "strip"])
def test_negative_harmonic_index_exits_1_with_one_line(argv, tmp_path, capsys):
    assert run(["solve", "--a", "0.5", *argv, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "non-negative" in lines[0]
    assert not (tmp_path / "field.csv").exists()


def test_incompatible_strip_edges_exit_1(tmp_path, capsys):
    assert run(["solve", "--kind", "strip", "--a", "0.5", "--nx", "16", "--ny", "17",
                "--top", "const=1", "--bottom", "const=0.5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("incompatible-boundary: ")


def test_sl_check_stops_when_every_draw_is_excluded():
    # at a = 0 every draw this close to the origin lies in the cone-point
    # exclusion ball; a fresh interpreter with a timeout turns a loop that
    # never ends into a failure instead of a hung test run
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "slfib.cli", "sl-check", "--a", "0",
                           "--extent", "1e-5", "--frames", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "cone-point exclusion" in proc.stderr


def test_monodromy_default(tmp_path, capsys):
    code = run(["monodromy", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ribbon_positive.csv").exists()
    assert (tmp_path / "ribbon_negative.csv").exists()
    checks = json.loads((tmp_path / "monodromy_checks.json").read_text())
    assert checks["transpose_duality"] and checks["unipotent"]
    header = (tmp_path / "ribbon_positive.csv").read_text().splitlines()[0]
    assert header == "piece_id,x1,x2,x3"


def test_monodromy_checks_record_the_fixed_vectors(tmp_path):
    assert run(["monodromy", "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "monodromy_checks.json").read_text())
    assert [0, 1, 0] in checks["positive_fixed"]["column_fixed"]
    assert checks["negative_fixed"] == {"column_fixed": [[1, 0, 0]],
                                        "row_fixed": [[0, 0, 1], [0, 1, 0]]}


def test_monodromy_checks_record_transpose_duality(tmp_path):
    assert run(["monodromy", "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "monodromy_checks.json").read_text())
    assert checks["transpose_duality"] is True


@pytest.mark.parametrize("point, want", [
    (["--a", "1", "--x", "0", "--y", "1"], {"u": (-(1 + np.sqrt(2)) ** -0.5, 1e-12)}),
    # a point of 1e-11 scale: each value to 1e-15 relative
    (["--a", "0.001", "--x", "3.1622776601683794e-11", "--y", "3.1622776601683794e-11"],
     {"u": (-7.071067811865474e-10, 1e-15 * 7.071067811865474e-10),
      "v": (1.4142135623730954e-12, 1e-15 * 1.4142135623730954e-12)}),
], ids=["unit-scale", "1e-11-scale"])
def test_oracle_single(point, want, capsys):
    code = run(["oracle", *point])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    for name, (ref, tol) in want.items():
        assert abs(out[name] - ref) < tol


def test_oracle_grid(tmp_path):
    code = run(["oracle", "--a", "0.5", "--grid=-1:1:5;-1:1:5",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert len(lines) == 26
    assert lines[0] == "x,y,u,v"
    rows = np.array([[float(val) for val in line.split(",")] for line in lines[1:]])
    assert rows.shape == (25, 4)
    # rows run over x inside y
    x, y = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    u, v = na_oracle_grid(0.5, x, y)
    assert np.array_equal(rows, np.column_stack([x.ravel(), y.ravel(), u.ravel(), v.ravel()]))


@pytest.mark.parametrize("grid", ["1:2", "-1:1:x;0:1:2", "-1:1:-3;0:1:2", "-1:1:3;0:1:2;0:1:2"])
def test_malformed_oracle_grid_exits_1_with_one_line_naming_it(grid, tmp_path, capsys):
    assert run(["oracle", "--a", "0.5", f"--grid={grid}", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"cannot parse --grid {grid!r}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["x", "y"])
def test_oracle_point_flag_with_grid_exits_1_with_one_line_naming_it(flag, tmp_path, capsys):
    assert run(["oracle", "--a", "0.5", "--grid", "0:1:2;0:1:2", f"--{flag}", "5",
                "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"--{flag} is for a point only, got 5.0 with --grid"]
    assert list(tmp_path.iterdir()) == []


def test_oracle_grid_of_no_points_writes_the_header_only(tmp_path):
    assert run(["oracle", "--a", "0.5", "--grid=-1:1:0;-1:1:5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "oracle.csv").read_text() == "x,y,u,v\n"


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
    code = run(["solve", "--kind", "disc", "--a", "1.0", "--nx", "16", "--cos", "1=1",
                "--config", str(conf), "--out", str(tmp_path)])
    assert code == 0
    fld = load_field(tmp_path / "field.csv")
    assert fld.boundary["circle"].cos_coeffs == ((1, 1.0),)
    assert fld.a == 1.0


def test_config_supplies_a_required_flag_of_oracle(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"a": 0.5, "x": 1.0}))
    code = run(["oracle", "--config", str(conf)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["v"] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_config_supplies_the_required_flags_of_solve(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kind": "disc", "a": 1.0, "cos": ["1=1"], "nx": 16}))
    code = run(["solve", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 0
    fld = load_field(tmp_path / "field.csv")
    assert fld.kind == "disc" and fld.a == 1.0
    assert fld.boundary["circle"].cos_coeffs == ((1, 1.0),)


def test_config_numbers_take_the_option_type(tmp_path):
    # JSON numbers reach argparse as strings, so --t keeps its string type
    # and --nx / --ny become ints, as when given as flags
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "section7", "t": 0.5, "nx": 32, "ny": 17}))
    code = run(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "curves.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.5,")


def test_config_number_of_the_wrong_type_exits_2(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"nx": 32.5}))
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--family", "section7", "--config", str(conf), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --nx: invalid int value: '32.5'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, conf, line", [
    (["classify", "--field", "F"], {"nonsense_key": 3},
     "the key 'nonsense_key' is no option of slfib classify"),
    (["classify", "--field", "F"], {"kind": "disc"},
     "the key 'kind' is no option of slfib classify"),
    (["solve", "--kind", "disc", "--a", "1"], {"out-field": "f.csv", "n": 16},
     "the key 'n' is no option of slfib solve"),
    (["oracle", "--a", "1"], [{"x": 0.5}], "the config is not a JSON object"),
], ids=["classify-nonsense", "classify-kind", "solve-n", "not-an-object"])
def test_config_key_that_is_no_option_exits_2_with_one_line(argv, conf, line, tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--config", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"{path}: {line}"]
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv, missing", [
    (["oracle"], "--a"), (["solve", "--a", "1"], "--kind"),
    (["project", "--family", "section7"], "--z1, --z2, --z3"), (["classify"], "--field")])
def test_missing_required_flag_without_config_exits_2(argv, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_solve_limit_diag_totals_its_levels(tmp_path):
    code = run(["solve", "--kind", "disc", "--a", "0", "--nx", "24", "--ny", "48",
                "--cos", "1=1.25", "--cos", "3=-1", "--out", str(tmp_path)])
    assert code == 0
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    levels = diag["levels"]
    a = [lev["a"] for lev in levels]
    assert a[0] == 1.0 and a[-1] == DEFAULT_A_MIN and all(hi > lo for hi, lo in zip(a, a[1:]))
    assert len(diag["cauchy_increments"]) == len(levels) - 1
    for key in ("newton_iterations", "factorizations", "chord_steps"):
        assert diag[key] == sum(lev[key] for lev in levels)
    assert diag["newton_iterations"] > levels[-1]["newton_iterations"]
    assert diag["fill"] == [fill for lev in levels for fill in lev["fill"]]
    assert len(diag["fill"]) == diag["factorizations"]
    assert all(len(lev["fill"]) == lev["factorizations"] for lev in levels)


def test_solve_limit_diag_lists_the_retried_levels(tmp_path, monkeypatch):
    from slfib import elliptic

    tried, real = [], elliptic.solve_disc

    def diverge_at_the_second_level(boundary, a, *args, **kwargs):
        tried.append(a)
        if len(tried) == 2:
            raise SolverDiverged("forced", residual=1.0)
        return real(boundary, a, *args, **kwargs)

    # (24, 48) does not halve onto a coarse grid: every solve_disc call is a level
    monkeypatch.setattr(elliptic, "solve_disc", diverge_at_the_second_level)
    assert run(["solve", "--kind", "disc", "--a", "0", "--nx", "24", "--ny", "48",
                "--cos", "1=1.25", "--cos", "3=-1", "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    assert diag["retries"] == [tried[1]]
    assert [lev["a"] for lev in diag["levels"]] == [1.0, *tried[2:]]
    assert diag["converged"] and diag["is_limit"]
    assert load_field(tmp_path / "field.csv").diagnostics["retries"] == (tried[1],)


def test_solve_diag_lists_the_coarse_solves_apart_from_the_fine_totals(tmp_path):
    code = run(["solve", "--kind", "disc", "--a", "0.05", "--nx", "64", "--ny", "128",
                "--cos", "1=1.25", "--cos", "3=-1", "--out", str(tmp_path)])
    assert code == 0
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    assert diag["converged"] and diag["residual_norm"] <= diag["tolerance"]
    coarse = diag["coarse"]
    assert [(c["n_x"], c["n_y"]) for c in coarse] == [(16, 32), (32, 64)]
    assert all(c["a"] == 0.05 and c["converged"] for c in coarse)
    assert all(len(c["fill"]) == c["factorizations"] >= 1 for c in coarse)
    (level,) = diag["levels"]
    for key in ("newton_iterations", "factorizations", "chord_steps"):
        assert diag[key] == level[key]
    assert diag["fill"] == level["fill"]
    # the fine system, the (64, 128) quarter, is narrow enough for the band LU
    assert (diag["factor"], diag["half_bandwidth"]) == (level["factor"], 33) == ("band", 33)
    assert diag["factorizations"] <= 2
    # odd cosines: Newton solved on the quarter 0 <= theta < pi/2, 63 rings x 32 angles
    assert diag["unknowns"] == 63 * 32
    assert full_grid_residual(tmp_path / "field.csv") <= diag["tolerance"]


@pytest.mark.parametrize("argv, want", [
    # a sine term leaves no reflection: the full periodic grid, wider than the band LU takes
    (["--kind", "disc", "--a", "0.05", "--nx", "32", "--ny", "64", "--cos", "1=1.25",
      "--cos", "3=-1", "--sin", "2=0.1"], {"factor": "superlu", "half_bandwidth": 127}),
    # even in x and in y: Newton solved on 0 <= x <= pi, y <= 0, 16 rows x 33 nodes
    (["--kind", "strip", "--a", "0.05", "--nx", "64", "--ny", "33",
      "--top", "const=-0.16,cos 1=0.5", "--bottom", "const=-0.16,cos 1=0.5"],
     {"unknowns": 16 * 33}),
], ids=["disc-sine-full-grid", "strip-quarter"])
def test_solved_dump_solves_its_full_grid(argv, want, tmp_path):
    assert run(["solve", *argv, "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "field.csv.diag.json").read_text())
    assert diag["converged"] is True
    assert {key: diag[key] for key in want} == want
    assert full_grid_residual(tmp_path / "field.csv") <= diag["tolerance"]
