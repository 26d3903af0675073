"""One benchmark process: set up one workload, run its passes, check them.

Started by run.py in a fresh interpreter per run, so set-up time and
peak memory cover exactly one workload.  Prints one JSON line.

  --role setup   import, build grids and inputs, report the ready time
  --role run     also run the passes: with --trace 0, passes until
                 --seconds have elapsed; with --trace 1, one untraced
                 pass and one traced pass, whose outputs must be
                 bit-identical

Both roles also report the host's speed at the ready time, and with
--trace 0 every pass is timed against the reference kernel of speed.py,
so run.py can scale the times to the reference speed.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEED_SAMPLES = 10               # kernel calls that give the speed at the ready time


def _import_slfib():
    sys.path.insert(0, str(SRC))
    import slfib

    origin = Path(slfib.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"slfib was imported from {origin}, not from this checkout's src")


def _true_residual(fld):
    """Sup norm of the grid residual of the stored (returned) field."""
    from slfib import elliptic

    d = fld.domain
    if fld.kind == "disc":
        grid = elliptic.disc_grid(d.n_x, d.n_y)
        res = grid.residual(fld.f[:-1], fld.f[-1], fld.a)
    else:
        grid = elliptic.strip_grid(d.n_x, d.n_y, d.R, d.P)
        res = grid.residual(fld.v[1:-1], fld.v[-1], fld.v[0], fld.a)
    return float(abs(res).max())


def _timed_pass(run_pass, inp, sampler):
    """One pass: (outcome or None, scaled seconds, raw seconds, error or None).

    Without a sampler (traced runs) the scaled time is the raw one.
    """
    from slfib.errors import LabError

    def work():
        try:
            return run_pass(inp), None
        except LabError as exc:
            return None, f"{exc.token}: {exc}"

    if sampler is None:
        t0 = time.perf_counter()
        out, err = work()
        raw = time.perf_counter() - t0
        return out, raw, raw, err
    (out, err), scaled, raw = sampler.measure(work)
    return out, scaled, raw, err


class PassLog:
    """Times, checks and digests of a run's passes.

    Each pass is checked right after it, outside its timed region, and
    only the latest outcome is kept, so peak memory is that of one pass
    whatever the number of passes.
    """

    def __init__(self, inp, run_pass, check, sampler=None):
        self.inp, self.run_pass, self.check = inp, run_pass, check
        self.sampler = sampler
        self.walls, self.raw_walls, self.solves = [], [], []
        self.digests, self.failures = [], []
        self.failed = 0
        self.values = {}
        self.last = None

    def run(self, label):
        self.last = None
        out, wall, raw, err = _timed_pass(self.run_pass, self.inp, self.sampler)
        self.walls.append(wall)
        self.raw_walls.append(raw)
        self.solves.append(out.solves if out else None)
        problems = [err] if err else self.check(self.inp, out)
        digest = out.digest() if out else None
        first = next((d for d in self.digests if d), digest)
        self.digests.append(digest)
        if digest and digest != first:
            problems.append("outputs differ from the first pass")
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)
        if out and not self.values:
            self.values = out.values
        self.last = out


def _layer_metrics(tracer, out, wall, untraced_wall, oracle):
    summary = tracer.summary()
    groups = summary["groups"]

    def secs(group):
        return groups.get(group, {}).get("s", 0.0)

    def calls(group):
        return groups.get(group, {}).get("calls", 0)

    fields = tracer.level_fields
    iters = sum(int(f.diagnostics.get("newton_iterations", 0)) for f in fields)
    cache = out.cache
    hits = cache.hits if cache is not None else 0
    misses = cache.misses if cache is not None else 0
    m = {}
    for name in ("linsolve", "factor", "trisolve", "jacobian", "residual", "field_eval"):
        m[f"elliptic.{name}.s"] = secs(f"elliptic.{name}")
        m[f"elliptic.{name}.calls"] = calls(f"elliptic.{name}")
    m["elliptic.newton_iters"] = iters
    m["elliptic.linesearch_ratio"] = iters / calls("elliptic.residual") if fields else 0.0
    m["elliptic.level_solves"] = calls("elliptic.level_solve")
    m["elliptic.level_solve.s"] = secs("elliptic.level_solve")
    m["elliptic.continuation.s"] = secs("elliptic.continuation")
    m["elliptic.ops64.s"] = secs("elliptic.ops64")
    m["elliptic.reconstruct_u.s"] = secs("elliptic.reconstruct_u")
    m["elliptic.residual_reported"] = max((float(f.residual_norm) for f in fields), default=0.0)
    m["elliptic.residual_true"] = max((_true_residual(f) for f in fields), default=0.0)
    m["fibrations.solves"] = misses
    m["fibrations.probes"] = summary["nested"].get("fibrations.solve_family_member", 0)
    m["fibrations.cache.hits"] = hits
    m["fibrations.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["fibrations.solves_per_root"] = out.search_misses / out.roots if out.roots else 0.0
    m["fibrations.search.s"] = secs("fibrations.search")
    m["singularities.analyze.s"] = secs("singularities.analyze")
    m["singularities.axis_zeros.calls"] = summary["functions"].get(
        "singularities.detect_axis_zeros", 0)
    m["singularities.winding_samples"] = tracer.counts["winding_samples"]
    m["models.boundary_data.s"] = secs("models.boundary_data")
    m["oracle_err_u"] = oracle[0]
    m["oracle_err_v"] = oracle[1]
    m["trace.overhead_s"] = wall - untraced_wall
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    _import_slfib()
    import workloads

    setup, run_pass, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace and args.role == "run":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inp = setup(args.seed)
    ready = time.monotonic()
    import speed

    sampler = speed.Sampler()
    ready_speed = sampler.factor(SPEED_SAMPLES)
    if args.role == "setup":
        print(json.dumps({"ready": ready, "speed": ready_speed}))
        return

    log = PassLog(inp, run_pass, check, sampler if tracer is None else None)
    if tracer is None:
        start = time.perf_counter()
        while not log.walls or time.perf_counter() - start < args.seconds:
            log.run(f"pass {len(log.walls) + 1}")
    else:
        tracer.uninstall()
        log.run("untraced pass")
        tracer.install()
        log.run("traced pass")
        tracer.uninstall()

    oracle = (0.0, 0.0)
    if args.workload == "disc_oracle" and log.last is not None:
        errs = workloads.oracle_errors(inp, log.last)
        oracle = (max(e[0] for e in errs), max(e[1] for e in errs))

    import numpy
    import scipy

    result = {
        "ready": ready,
        "speed": ready_speed,
        "attempted": len(log.walls),
        "failed": log.failed,
        "failures": log.failures,
        "walls": log.walls,
        "raw_walls": log.raw_walls,
        "kernel_samples": len(sampler.samples),
        "solves": log.solves,
        "digests": log.digests,
        "values": log.values,
        "oracle_err": oracle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None and log.last is not None:
        result["layers"] = _layer_metrics(tracer, log.last, log.raw_walls[-1], log.raw_walls[0],
                                          oracle)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
