"""Command-line front end.

Subcommands: solve, classify, sweep, project, fiber-sample, sl-check,
monodromy, oracle.  Boundary data are given as finite trigonometric sums
(--cos k=v / --sin k=v on the disc, --top/--bottom token lists on the
strip) to ``solve``, the one command that turns data into a field;
``classify`` reads the dump that ``solve`` writes:

    slfib solve --kind disc --a 0 --cos 1=1.25 --cos 3=-1 --out D
    slfib classify --field D/field.csv --out D

A JSON config file can mirror any flag; explicit flags win, and a key
that names no flag of the subcommand exits 2.  All output
files are deterministic for a fixed config and seed.
"""

import argparse
import cmath
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import fibrations, monodromy, singularities
from .calibration import ComplexPoint3, chart_points, fiber_points, sl_defect
from .elliptic import (
    REFACTOR_REASONS,
    BoundarySpec,
    DomainSpec,
    level_record,
    load_field,
    save_field,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from .errors import LabError, NonisolatedSingularities
from .models import NaSlice, na_oracle, na_oracle_grid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONISOLATED = 3
EXIT_SOLVER = 4

_SOLVER_TOKENS = ("solver-diverged", "continuation-failed")
# the data flags of each --kind; a solve of the other kind refuses them
_DATA_FLAGS = {"disc": ("cos", "sin", "const"), "strip": ("top", "bottom", "R", "P")}


def _coefficient(item, where):
    """(K, V) of a 'K=V' item, K an integer; a ValueError naming ``where`` otherwise."""
    k, _, v = item.partition("=")
    try:
        return int(k), float(v)
    except ValueError:
        raise ValueError(f"cannot parse {where}") from None


def _parse_kv(flag, items):
    return dict(_coefficient(item, f"--{flag} item {item!r}") for item in items or [])


def _parse_edge(text):
    """Parse strip edge data: 'const=1,cos 1=0.5,sin 2=-1'.

    Each token is exactly const=V, cos K=V or sin K=V, K=V read as a
    --cos item is; any other token raises a ValueError that names it.
    """
    const = 0.0
    coeffs = {"cos": {}, "sin": {}}
    for token in (text or "").split(","):
        token = token.strip()
        if not token:
            continue
        head, _, val = token.partition("=")
        word, *item = token.split(None, 1)
        try:
            if head.split() == ["const"]:
                const = float(val)
            elif word in coeffs and item:
                k, coeffs[word][k] = _coefficient(item[0], f"edge token {token!r}")
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse edge token {token!r}") from None
    return BoundarySpec.make(const, coeffs["cos"], coeffs["sin"])


def _floats(flag, text):
    """The comma list of numbers that --flag gives; a ValueError naming an item that is not one."""
    out = []
    for item in text.split(","):
        try:
            out.append(float(item))
        except ValueError:
            raise ValueError(f"--{flag} item {item!r} is not a number") from None
    return tuple(out)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    """A header line, then each row's values by repr: Python scalars, not NumPy's."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# the options that a subcommand cannot run without, given as flags or by --config
REQUIRED = {"solve": ("kind", "a"), "classify": ("field",), "sweep": ("family",),
            "project": ("family", "z1", "z2", "z3"), "oracle": ("a",)}


def _parse_args(argv):
    """Parse argv; config-file values replace the defaults, explicit flags win.

    With --config, the config's keys must name options of the subcommand
    other than --config; another key exits 2 with one line naming it.  The
    keys become the options' defaults (numbers as strings, so that the
    option's type applies) and argv is parsed again, so a flag given at
    its default value still wins.  A key whose option argv already moved
    off its default is dropped, so a repeatable flag such as --cos
    replaces the config's list instead of extending it.  An option of
    REQUIRED that neither argv nor the config gives is an error.
    """
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    sub = commands[args.command]
    if args.config:
        with open(args.config) as fh:
            conf = json.load(fh)
        if not isinstance(conf, dict):
            parser.exit(2, f"{args.config}: the config is not a JSON object\n")
        options = set(vars(args)) - {"command", "fn", "config"}
        unknown = [key for key in conf if key.replace("-", "_") not in options]
        if unknown:
            parser.exit(2, f"{args.config}: the key {unknown[0]!r} is no option of "
                           f"slfib {args.command}\n")
        conf = {key.replace("-", "_"): value for key, value in conf.items()}
        # a JSON number goes in as a string, which argparse converts by the option's type
        sub.set_defaults(**{
            dest: str(value) if type(value) in (int, float) else value
            for dest, value in conf.items() if getattr(args, dest) == sub.get_default(dest)})
        args = parser.parse_args(argv)
    missing = [f"--{dest}" for dest in REQUIRED.get(args.command, ())
               if getattr(args, dest) is None]
    if missing:
        sub.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def _or_default(value, default):
    """A flag's value, or ``default`` when the flag was not given (0 is given)."""
    return default if value is None else value


def _domain_from_args(args):
    if args.kind == "disc":
        n_r = _or_default(args.nx, 128)
        return DomainSpec.disc(n_r, _or_default(args.ny, 2 * n_r))
    return DomainSpec.strip(_or_default(args.nx, 256), _or_default(args.ny, 129),
                            _or_default(args.R, 1.0), _or_default(args.P, 2.0 * np.pi))


def _solve_from_args(args):
    other = "strip" if args.kind == "disc" else "disc"
    for flag in _DATA_FLAGS[other]:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is for --kind {other} only, "
                             f"got {getattr(args, flag)} for --kind {args.kind}")
    domain = _domain_from_args(args)
    if args.kind == "disc":
        data = (BoundarySpec.make(_or_default(args.const, 0.0), _parse_kv("cos", args.cos),
                                  _parse_kv("sin", args.sin)),)
        solve, solve_limit = solve_disc, solve_disc_limit
    else:
        data = (_parse_edge(args.top), _parse_edge(args.bottom))
        solve, solve_limit = solve_strip, solve_strip_limit
    if args.a == 0.0:
        return solve_limit(*data, domain)
    return solve(*data, args.a, domain)


def cmd_solve(args):
    fld = _solve_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    field_path = os.path.join(args.out, args.out_field)
    save_field(fld, field_path)
    # a continuation's field carries its last level's counts; report every level's.
    # The coarse solves of a cold start are listed apart, outside the totals.
    levels = fld.diagnostics.get("levels") or (level_record(fld),)
    diag = {
        "residual_norm": fld.residual_norm,
        "tolerance": fld.diagnostics.get("tolerance"),
        "converged": fld.converged,
        "unknowns": fld.diagnostics.get("unknowns"),
        "factor": fld.diagnostics.get("factor"),
        "half_bandwidth": fld.diagnostics.get("half_bandwidth"),
        **{k: sum(lev[k] for lev in levels)
           for k in ("newton_iterations", "factorizations", "chord_steps")},
        "refactors": {r: sum(lev["refactors"][r] for lev in levels) for r in REFACTOR_REASONS},
        "fill": [fill for lev in levels for fill in lev["fill"]],
        "levels": list(levels),
        "retries": list(fld.diagnostics.get("retries", ())),
        "coarse": list(fld.diagnostics.get("coarse", ())),
        "cauchy_increments": list(fld.cauchy_increments),
        "is_limit": fld.is_limit,
    }
    _write_json(os.path.join(args.out, args.out_field + ".diag.json"), diag)
    print(f"field written to {field_path}")
    return EXIT_OK


def cmd_classify(args):
    report = singularities.analyze_field(load_field(args.field))
    payload = {
        "records": [r.to_json() for r in report["records"]],
        "l": report["l"],
        "parity_ok": report["parity_ok"],
        "bound_ok": report.get("bound_ok"),
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.report)
    _write_json(path, payload)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _sweep_point_section7(task):
    t, resolution = task
    curve = fibrations.alpha_beta_curves([t], resolution)
    return curve[0]


def cmd_sweep(args):
    if args.alpha_grid < 0:
        raise ValueError(f"--alpha-grid must be non-negative, got {args.alpha_grid}")
    if args.alpha_grid and args.family == "section7":
        raise ValueError(f"--alpha-grid is for section6 only, got {args.alpha_grid} for section7")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and args.family == "section6":
        raise ValueError(f"--jobs is for section7 only, got {args.jobs} for section6")
    if args.t and args.family == "section6":
        raise ValueError(f"--t is for section7 only, got {args.t} for section6")
    ts = _floats("t", args.t) if args.t else ()
    for t in ts:
        if not math.isfinite(t):
            raise ValueError(f"--t items must be finite, got {t!r}")
    if args.family == "section7" and not ts:
        print("empty t list", file=sys.stderr)
        return 2
    family, resolution = _family_from_args(args, 0.0)
    os.makedirs(args.out, exist_ok=True)
    records = []
    if args.family == "section7":
        tasks = [(t, resolution) for t in ts]
        # a fork-started pool starts every worker at the first submit
        workers = min(args.jobs, len(tasks))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_point_section7, tasks))
        else:
            rows = [_sweep_point_section7(task) for task in tasks]
        for t, alpha_t, beta_t in rows:
            fam = fibrations.strip_family(t)
            ribbon = fibrations.ribbon_report(fam, (alpha_t, beta_t))
            records.append({"t": t, "alpha": alpha_t, "beta": beta_t,
                            "ribbon": ribbon.__dict__})
        _write_csv(os.path.join(args.out, "curves.csv"), "t,alpha_t,beta_t", rows)
    else:
        alpha0, alpha1 = fibrations.find_alpha0_alpha1(resolution)
        ribbon = fibrations.ribbon_report(family, (alpha0, alpha1))
        counts = []
        if args.alpha_grid:
            spread = 0.5 * (alpha1 - alpha0)
            alphas = np.linspace(alpha0 - spread, alpha1 + spread, args.alpha_grid)
            for al in alphas:
                fld = fibrations.solve_family_member(family, 0.0, float(al), resolution)
                try:
                    interior, _ = singularities.detect_axis_zeros(fld)
                    counts.append((float(al), len(interior)))
                except LabError as exc:
                    records.append({"alpha": float(al), "error": exc.token})
                    counts.append((float(al), -1))
        records.append({"alpha0": alpha0, "alpha1": alpha1, "ribbon": ribbon.__dict__})
        _write_csv(os.path.join(args.out, "zero_counts.csv"), "alpha,zero_count", counts)
    nd_path = os.path.join(args.out, "sweep.ndjson")
    with open(nd_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"sweep written to {nd_path}")
    return EXIT_OK


def _complex(flag, text):
    """The finite complex number that --flag gives; a ValueError naming both otherwise."""
    try:
        z = complex(text.replace(" ", ""))
        if cmath.isfinite(z):
            return z
    except ValueError:
        pass
    raise ValueError(f"--{flag} must be a finite complex number, got {text!r}")


def _family_from_args(args, t):
    """The --family (at t for section7) and its (--nx, --ny), refused here by DomainSpec if bad."""
    if args.family == "section6":
        family, default = fibrations.disc_family(), fibrations.DEFAULT_DISC_RESOLUTION
    else:
        family, default = fibrations.strip_family(t), fibrations.DEFAULT_STRIP_RESOLUTION
    resolution = (_or_default(args.nx, default[0]), _or_default(args.ny, default[1]))
    family.domain(resolution)
    return family, resolution


def cmd_project(args):
    if args.t and args.family == "section6":
        raise ValueError(f"--t is for section7 only, got {args.t} for section6")
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    p = ComplexPoint3(*(_complex(flag, getattr(args, flag)) for flag in ("z1", "z2", "z3")))
    fam, resolution = _family_from_args(args, args.t)
    coords = fibrations.project_to_base(p, fam, resolution)
    print(json.dumps({"a": coords.a, "b": coords.b, "c": coords.c}, sort_keys=True))
    return EXIT_OK


def _model_field(args):
    if args.model in ("na", "F"):
        return NaSlice(args.a, _complex("c", args.c))
    if args.model == "Fprime":
        return NaSlice(args.a, _complex("c", args.c), negate=True)
    raise ValueError(f"unknown model {args.model!r}")


def _check_extent(args):
    if not (math.isfinite(args.extent) and args.extent >= 0):
        raise ValueError(f"--extent must be finite and non-negative, got {args.extent}")


def cmd_fiber_sample(args):
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    _check_extent(args)
    rng = np.random.default_rng(args.seed)
    field = _model_field(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.out_file)
    charts = itertools.islice(chart_points(field, rng, args.extent), args.count)
    points = [fiber_points(field, chart) for chart in charts]
    _write_csv(path, "z1_re,z1_im,z2_re,z2_im,z3_re,z3_im",
               ([v for z in (pt.z1, pt.z2, pt.z3) for v in (z.real, z.imag)] for pt in points))
    print(f"samples written to {path}")
    return EXIT_OK


def cmd_sl_check(args):
    if args.frames < 1:
        raise ValueError(f"--frames must be at least 1, got {args.frames}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    _check_extent(args)
    worst_omega, worst_imomega = sl_defect(_model_field(args), args.frames,
                                           np.random.default_rng(args.seed), args.extent)
    payload = {"frames": args.frames, "omega_residual_max": worst_omega,
               "imomega_residual_max": worst_imomega, "tol": args.tol}
    print(json.dumps(payload, sort_keys=True))
    ok = worst_omega < args.tol and worst_imomega < args.tol
    return EXIT_OK if ok else EXIT_ERROR


def cmd_monodromy(args):
    pos = monodromy.standard_positive_vertex()
    neg = monodromy.standard_negative_vertex()
    edge = monodromy.standard_edge()
    checks = {
        "edge_det": edge.determinant(),
        "edge_unipotent": edge.is_unipotent(),
        "dets": [m.determinant() for v in (pos, neg) for m in v.edge_matrices],
        "unipotent": all(m.is_unipotent() for v in (pos, neg) for m in v.edge_matrices),
        "positive_product_identity": monodromy.vertex_consistency(pos),
        "negative_product_identity": monodromy.vertex_consistency(neg),
        "transpose_duality": monodromy.duality_check(pos, neg),
        "positive_fixed": pos.fixed,
        "negative_fixed": neg.fixed,
    }
    os.makedirs(args.out, exist_ok=True)
    for name, model in (("positive", pos), ("negative", neg)):
        _write_csv(os.path.join(args.out, f"ribbon_{name}.csv"), "piece_id,x1,x2,x3",
                   ((piece["piece_id"], *vx) for piece in monodromy.ribbon_figure_data(model)
                    for vx in piece["vertices"]))
    _write_json(os.path.join(args.out, "monodromy_checks.json"), checks)
    verdicts = ("positive_product_identity", "negative_product_identity",
                "transpose_duality", "unipotent")
    print(json.dumps({k: checks[k] for k in verdicts}, sort_keys=True))
    all_ok = all(checks[k] for k in verdicts) and all(d == 1 for d in checks["dets"])
    return EXIT_OK if all_ok else EXIT_ERROR


def _grid_axis(part):
    lo, hi, n = part.split(":")
    return np.linspace(float(lo), float(hi), int(n))     # a negative n is a ValueError


def _parse_grid(text):
    """The x and y axes of an 'x0:x1:n;y0:y1:n' --grid; a ValueError naming it otherwise."""
    try:
        part_x, part_y = text.split(";")
        return _grid_axis(part_x), _grid_axis(part_y)
    except ValueError:
        raise ValueError(f"cannot parse --grid {text!r}") from None


def cmd_oracle(args):
    if args.grid:
        for flag in ("x", "y"):
            if value := getattr(args, flag):
                raise ValueError(f"--{flag} is for a point only, got {value} with --grid")
        x, y = np.meshgrid(*_parse_grid(args.grid))   # rows: y outer, x inner
        u, v = na_oracle_grid(args.a, x, y)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, args.out_file)
        _write_csv(path, "x,y,u,v", zip(*(w.ravel().tolist() for w in (x, y, u, v))))
        print(f"oracle grid written to {path}")
        return EXIT_OK
    u, v = na_oracle(args.a, args.x, args.y)
    print(json.dumps({"u": u, "v": v}, sort_keys=True))
    return EXIT_OK


def build_parser():
    """The argument parser and its subcommand parsers by name.

    No option is marked required, so that --config can supply it;
    _parse_args checks the options of REQUIRED.
    """
    parser = argparse.ArgumentParser(
        prog="slfib",
        description="Numerical laboratory for invariant special Lagrangian fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary)

    def config(p):
        p.add_argument("--config", default=None, help="JSON config file; flags win")

    def common(p):                    # a subcommand that writes into --out
        p.add_argument("--out", default=".", help="output directory")
        config(p)

    def resolution(p):                # a subcommand that solves on a grid
        p.add_argument("--nx", type=int, default=None)
        p.add_argument("--ny", type=int, default=None)

    def model(p):                     # a subcommand that samples an algebraic model
        p.add_argument("--model", choices=("na", "F", "Fprime"), default="na")
        p.add_argument("--a", type=float, default=0.5)
        p.add_argument("--c", default="0")
        p.add_argument("--extent", type=float, default=1.5)
        p.add_argument("--seed", type=int, default=0)

    p = command("solve", "solve one Dirichlet problem and dump the field")
    p.add_argument("--kind", choices=("disc", "strip"))
    p.add_argument("--a", type=float)
    resolution(p)
    p.add_argument("--R", type=float, help="strip half-width (default 1)")
    p.add_argument("--P", type=float, help="strip period (default 2 pi)")
    p.add_argument("--cos", action="append", metavar="K=V")
    p.add_argument("--sin", action="append", metavar="K=V")
    p.add_argument("--const", type=float, help="disc data constant (default 0)")
    p.add_argument("--top")
    p.add_argument("--bottom")
    p.add_argument("--out-field", default="field.csv")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = command("classify", "singularity report for a field")
    p.add_argument("--field", help="the field dump that solve wrote")
    p.add_argument("--report", default="report.json")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = command("sweep", "parameter sweep of a fibration family")
    p.add_argument("--family", choices=("section6", "section7"))
    p.add_argument("--t", default="", help="comma list of t values (section7)")
    p.add_argument("--alpha-grid", type=int, default=0, help="alpha count (section6)")
    resolution(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (section7)")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = command("project", "project a point of C^3 to base coordinates")
    p.add_argument("--family", choices=("section6", "section7"))
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--z1")
    p.add_argument("--z2")
    p.add_argument("--z3")
    resolution(p)
    config(p)
    p.set_defaults(fn=cmd_project)

    p = command("fiber-sample", "sample points of a model fibre")
    model(p)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--out-file", default="fiber.csv")
    common(p)
    p.set_defaults(fn=cmd_fiber_sample)

    p = command("sl-check", "special Lagrangian residuals on sampled frames")
    model(p)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    config(p)
    p.set_defaults(fn=cmd_sl_check)

    p = command("monodromy", "lattice checks and ribbon figure data")
    common(p)
    p.set_defaults(fn=cmd_monodromy)

    p = command("oracle", "evaluate the algebraic slice oracle")
    p.add_argument("--a", type=float)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--grid", default="", help="'x0:x1:n;y0:y1:n' grid evaluation")
    p.add_argument("--out-file", default="oracle.csv")
    common(p)
    p.set_defaults(fn=cmd_oracle)

    return parser, sub.choices


def main(argv=None):
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except NonisolatedSingularities as exc:
        print(f"{exc.token}: {exc}", file=sys.stderr)
        return EXIT_NONISOLATED
    except LabError as exc:
        print(f"{exc.token}: {exc}", file=sys.stderr)
        return EXIT_SOLVER if exc.token in _SOLVER_TOKENS else EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
