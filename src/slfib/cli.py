"""Command-line front end.

Subcommands: solve, classify, sweep, project, fiber-sample, sl-check,
monodromy, oracle.  Boundary data are given as finite trigonometric sums
(--cos k=v / --sin k=v on the disc, --top/--bottom token lists on the
strip).  A JSON config file can mirror any flag; explicit flags win.
All output files are deterministic for a fixed config and seed.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import fibrations, monodromy, singularities
from .calibration import FiberChartPoint, fiber_points, frame_from_chart, \
    imomega_residual, near_cone_point, omega_residual
from .elliptic import (
    BoundarySpec,
    DomainSpec,
    geometric_schedule,
    load_field,
    save_field,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from .errors import LabError, NonisolatedSingularities
from .models import NaSlice, na_oracle

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONISOLATED = 3
EXIT_SOLVER = 4

_SOLVER_TOKENS = ("solver-diverged", "continuation-failed")


def _parse_kv(pairs):
    out = {}
    for item in pairs or []:
        k, _, v = item.partition("=")
        out[int(k)] = float(v)
    return out


def _parse_edge(text):
    """Parse strip edge data: 'const=1,cos 1=0.5,sin 2=-1'."""
    const = 0.0
    cos = {}
    sin = {}
    for token in (text or "").split(","):
        token = token.strip()
        if not token:
            continue
        head, _, val = token.partition("=")
        head = head.strip()
        if head == "const":
            const = float(val)
        elif head.startswith("cos"):
            cos[int(head.split()[1])] = float(val)
        elif head.startswith("sin"):
            sin[int(head.split()[1])] = float(val)
        else:
            raise ValueError(f"cannot parse edge token {token!r}")
    return BoundarySpec.make(const, cos, sin)


def _parse_schedule(text):
    if not text:
        return None
    return tuple(float(tok) for tok in text.split(","))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    raise TypeError(f"not serialisable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _parse_args(argv):
    """Parse argv; config-file values replace the defaults, explicit flags win.

    The config keys that name an option of the chosen subcommand become
    that subcommand's defaults, and argv is parsed again, so a flag given
    at its default value still wins.  A key whose option the first parse
    already moved off its default is dropped, so a repeatable flag such
    as --cos replaces the config's list instead of extending it.
    """
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    sub = commands[args.command]
    own = {key.replace("-", "_"): value for key, value in conf.items()}
    sub.set_defaults(**{
        dest: value for dest, value in own.items()
        if hasattr(args, dest) and dest not in ("command", "fn", "config")
        and getattr(args, dest) == sub.get_default(dest)})
    return parser.parse_args(argv)


def _domain_from_args(args):
    kind = args.kind
    if kind == "disc":
        n_r = args.nx or args.n or 128
        n_t = args.ny or (2 * n_r)
        return DomainSpec.disc(n_r, n_t)
    n_x = args.nx or args.n or 256
    n_y = args.ny or 129
    return DomainSpec.strip(n_x, n_y, args.R, args.P)


def _solve_from_args(args):
    domain = _domain_from_args(args)
    schedule = _parse_schedule(args.schedule) or geometric_schedule()
    if args.kind == "disc":
        spec = BoundarySpec.make(args.const, _parse_kv(args.cos), _parse_kv(args.sin))
        if args.a == 0.0:
            return solve_disc_limit(spec, domain, schedule)
        return solve_disc(spec, args.a, domain)
    top = _parse_edge(args.top)
    bottom = _parse_edge(args.bottom)
    if args.a == 0.0:
        return solve_strip_limit(top, bottom, domain, schedule)
    return solve_strip(top, bottom, args.a, domain)


def _add_solve_args(p, required=True):
    p.add_argument("--kind", choices=("disc", "strip"), required=required,
                   default=None if required else "disc")
    p.add_argument("--a", type=float, required=required,
                   default=None if required else 0.0)
    p.add_argument("--n", type=int, default=None, help="base resolution")
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--P", type=float, default=2.0 * np.pi)
    p.add_argument("--cos", action="append", metavar="K=V")
    p.add_argument("--sin", action="append", metavar="K=V")
    p.add_argument("--const", type=float, default=0.0)
    p.add_argument("--top", default="")
    p.add_argument("--bottom", default="")
    p.add_argument("--schedule", default="", help="comma list for the a=0 continuation")


def cmd_solve(args):
    fld = _solve_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    field_path = os.path.join(args.out, args.out_field)
    save_field(fld, field_path)
    diag = {
        "residual_norm": fld.residual_norm,
        "tolerance": fld.diagnostics.get("tolerance"),
        "converged": fld.converged,
        "newton_iterations": fld.diagnostics.get("newton_iterations"),
        "factorizations": fld.diagnostics.get("factorizations"),
        "chord_steps": fld.diagnostics.get("chord_steps"),
        "cauchy_increments": list(fld.cauchy_increments),
        "is_limit": fld.is_limit,
    }
    _write_json(os.path.join(args.out, args.out_field + ".diag.json"), diag)
    print(f"field written to {field_path}")
    return EXIT_OK


def cmd_classify(args):
    if args.field:
        fld = load_field(args.field)
    else:
        fld = _solve_from_args(args)
    report = singularities.analyze_field(fld, l=args.l)
    payload = {
        "records": [r.to_json() for r in report["records"]],
        "l": report["l"],
        "parity_ok": report["parity_ok"],
        "bound_ok": report.get("bound_ok"),
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.report)
    _write_json(path, payload)
    print(json.dumps(payload, sort_keys=True, default=_json_default))
    return EXIT_OK


def _sweep_point_section7(task):
    t, resolution, schedule = task
    curve = fibrations.alpha_beta_curves([t], resolution, schedule)
    return curve[0]


def cmd_sweep(args):
    os.makedirs(args.out, exist_ok=True)
    schedule = _parse_schedule(args.schedule)
    records = []
    if args.family == "section7":
        ts = [float(v) for v in args.t.split(",")] if args.t else []
        if not ts:
            print("empty t list", file=sys.stderr)
            return 2
        resolution = (args.nx or 128, args.ny or 65)
        tasks = [(t, resolution, schedule) for t in ts]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_sweep_point_section7, tasks))
        else:
            rows = [_sweep_point_section7(task) for task in tasks]
        for t, alpha_t, beta_t in rows:
            fam = fibrations.strip_family(t)
            ribbon = fibrations.ribbon_report(fam, (alpha_t, beta_t))
            records.append({"t": t, "alpha": alpha_t, "beta": beta_t,
                            "ribbon": ribbon.__dict__})
        with open(os.path.join(args.out, "curves.csv"), "w") as fh:
            fh.write("t,alpha_t,beta_t\n")
            for t, a_t, b_t in rows:
                fh.write(f"{t!r},{a_t!r},{b_t!r}\n")
    else:
        resolution = (args.nx or 64, args.ny or 128)
        alpha0, alpha1 = fibrations.find_alpha0_alpha1(schedule, resolution)
        ribbon = fibrations.ribbon_report(fibrations.disc_family(), (alpha0, alpha1))
        grid_n = args.alpha_grid or 0
        counts = []
        if grid_n:
            spread = 0.5 * (alpha1 - alpha0)
            alphas = np.linspace(alpha0 - spread, alpha1 + spread, grid_n)
            for al in alphas:
                fld = fibrations.solve_family_member(
                    fibrations.disc_family(), 0.0, float(al), resolution, schedule)
                try:
                    zeros = singularities.detect_axis_zeros(fld)
                    counts.append((float(al), len(zeros)))
                except LabError as exc:
                    records.append({"alpha": float(al), "error": exc.token})
                    counts.append((float(al), -1))
        records.append({"alpha0": alpha0, "alpha1": alpha1, "ribbon": ribbon.__dict__})
        with open(os.path.join(args.out, "zero_counts.csv"), "w") as fh:
            fh.write("alpha,zero_count\n")
            for al, cnt in counts:
                fh.write(f"{al!r},{cnt}\n")
    nd_path = os.path.join(args.out, "sweep.ndjson")
    with open(nd_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=_json_default) + "\n")
    print(f"sweep written to {nd_path}")
    return EXIT_OK


def _complex(text):
    return complex(text.replace(" ", ""))


def cmd_project(args):
    from .calibration import ComplexPoint3

    p = ComplexPoint3(_complex(args.z1), _complex(args.z2), _complex(args.z3))
    if args.family == "section6":
        fam = fibrations.disc_family()
        resolution = (args.nx or 64, args.ny or 128)
    else:
        fam = fibrations.strip_family(args.t)
        resolution = (args.nx or 128, args.ny or 65)
    coords = fibrations.project_to_base(p, fam, resolution,
                                        _parse_schedule(args.schedule))
    print(json.dumps({"a": coords.a, "b": coords.b, "c": coords.c}, sort_keys=True))
    return EXIT_OK


def _model_field(args):
    if args.model in ("na", "F"):
        return NaSlice(args.a, _complex(args.c))
    if args.model == "Fprime":
        return NaSlice(args.a, _complex(args.c), negate=True)
    raise ValueError(f"unknown model {args.model!r}")


def cmd_fiber_sample(args):
    rng = np.random.default_rng(args.seed)
    field = _model_field(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.out_file)
    rows = []
    for _ in range(args.count):
        x = rng.uniform(-args.extent, args.extent)
        y = rng.uniform(-args.extent, args.extent)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        pt = fiber_points(field, FiberChartPoint(x, y, phase, field.a))
        rows.append((pt.z1, pt.z2, pt.z3))
    with open(path, "w") as fh:
        fh.write("z1_re,z1_im,z2_re,z2_im,z3_re,z3_im\n")
        for z1, z2, z3 in rows:
            fh.write(",".join(repr(v) for v in
                              (z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag)) + "\n")
    print(f"samples written to {path}")
    return EXIT_OK


def cmd_sl_check(args):
    rng = np.random.default_rng(args.seed)
    field = _model_field(args)
    worst_omega = 0.0
    worst_imomega = 0.0
    tried = 0
    while tried < args.frames:
        x = rng.uniform(-args.extent, args.extent)
        y = rng.uniform(-args.extent, args.extent)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if near_cone_point(field, x, y):
            continue
        frame = frame_from_chart(field, FiberChartPoint(x, y, phase, field.a))
        worst_omega = max(worst_omega, omega_residual(frame))
        worst_imomega = max(worst_imomega, imomega_residual(frame))
        tried += 1
    payload = {"frames": tried, "omega_residual_max": worst_omega,
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
    if args.duality:
        print(json.dumps(monodromy.duality_check(pos, neg)))
        return EXIT_OK
    if args.show_fixed:
        model = pos if args.vertex == "positive" else neg
        print(json.dumps(model.fixed, sort_keys=True, default=_json_default))
        return EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    for name, model in (("positive", pos), ("negative", neg)):
        path = os.path.join(args.out, f"ribbon_{name}.csv")
        with open(path, "w") as fh:
            fh.write("piece_id,x1,x2,x3\n")
            for piece in monodromy.ribbon_figure_data(model):
                for vx in piece["vertices"]:
                    fh.write(f"{piece['piece_id']},{vx[0]!r},{vx[1]!r},{vx[2]!r}\n")
    _write_json(os.path.join(args.out, "monodromy_checks.json"), checks)
    print(json.dumps({k: checks[k] for k in
                      ("positive_product_identity", "negative_product_identity",
                       "transpose_duality", "unipotent")}, sort_keys=True))
    all_ok = (checks["positive_product_identity"] and checks["negative_product_identity"]
              and checks["transpose_duality"] and checks["unipotent"]
              and all(d == 1 for d in checks["dets"]))
    return EXIT_OK if all_ok else EXIT_ERROR


def cmd_oracle(args):
    if args.grid:
        part_x, part_y = args.grid.split(";")

        def parse_axis(part):
            lo, hi, n = part.split(":")
            return np.linspace(float(lo), float(hi), int(n))

        xs = parse_axis(part_x)
        ys = parse_axis(part_y)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, args.out_file)
        with open(path, "w") as fh:
            fh.write("x,y,u,v\n")
            for yv in ys:
                for xv in xs:
                    u, v = na_oracle(args.a, xv, yv)
                    fh.write(f"{xv!r},{yv!r},{u!r},{v!r}\n")
        print(f"oracle grid written to {path}")
        return EXIT_OK
    u, v = na_oracle(args.a, args.x, args.y)
    print(json.dumps({"u": u, "v": v}, sort_keys=True))
    return EXIT_OK


def build_parser():
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="slfib",
        description="Numerical laboratory for invariant special Lagrangian fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--config", default=None, help="JSON config file; flags win")

    p = sub.add_parser("solve", help="solve one Dirichlet problem and dump the field")
    _add_solve_args(p)
    p.add_argument("--out-field", default="field.csv")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("classify", help="singularity report for a field")
    _add_solve_args(p, required=False)
    p.add_argument("--field", default=None, help="load a field dump instead of solving")
    p.add_argument("--l", type=int, default=None, help="boundary extrema count override")
    p.add_argument("--report", default="report.json")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="parameter sweep of a fibration family")
    p.add_argument("--family", choices=("section6", "section7"), required=True)
    p.add_argument("--t", default="", help="comma list of t values (section7)")
    p.add_argument("--alpha-grid", type=int, default=0, help="alpha count (section6)")
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--schedule", default="")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (section7)")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("project", help="project a point of C^3 to base coordinates")
    p.add_argument("--family", choices=("section6", "section7"), required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    p.add_argument("--z3", required=True)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--schedule", default="")
    common(p)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("fiber-sample", help="sample points of a model fibre")
    p.add_argument("--model", choices=("na", "F", "Fprime"), default="na")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--c", default="0")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--extent", type=float, default=1.5)
    p.add_argument("--out-file", default="fiber.csv")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_fiber_sample)

    p = sub.add_parser("sl-check", help="special Lagrangian residuals on sampled frames")
    p.add_argument("--model", choices=("na", "F", "Fprime"), default="na")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--c", default="0")
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--extent", type=float, default=1.5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_sl_check)

    p = sub.add_parser("monodromy", help="lattice checks and ribbon figure data")
    p.add_argument("--vertex", choices=("positive", "negative"), default="positive")
    p.add_argument("--show-fixed", action="store_true")
    p.add_argument("--duality", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("oracle", help="evaluate the algebraic slice oracle")
    p.add_argument("--a", type=float, required=True)
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
