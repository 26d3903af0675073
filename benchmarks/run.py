"""slfib benchmark: solver workloads, time to answer and per-layer timings.

Run from the root of a checkout:

  python3 benchmarks/run.py --workload disc_oracle --seed 0 --seconds 15 --trace 0
  python3 benchmarks/run.py --workload all

Each run starts fresh interpreters with BLAS/OpenMP pinned to one thread
and SLFIB_CACHE_DIR unset: several that only set up (set-up time is
their median) and one that runs the workload's passes.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end-to-end ones,
scaled to a reference host speed (speed.py), with --trace 1 the
per-layer ones.  A record of the run, with the
machine and library versions, goes to .bench_out/.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("disc_oracle", "disc_bifurcation", "strip_band")
SETUP_SAMPLES = 5                # set-up runs per benchmark run, the last one also measures
RUN_LIMIT_S = 170.0              # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "s_per_solve": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "elliptic.linsolve.s": "s", "elliptic.linsolve.calls": "count",
    "elliptic.factor.s": "s", "elliptic.factor.calls": "count",
    "elliptic.trisolve.s": "s", "elliptic.trisolve.calls": "count",
    "elliptic.jacobian.s": "s", "elliptic.jacobian.calls": "count",
    "elliptic.residual.s": "s", "elliptic.residual.calls": "count",
    "elliptic.newton_iters": "count", "elliptic.linesearch_ratio": "ratio",
    "elliptic.level_solves": "count", "elliptic.level_solve.s": "s",
    "elliptic.continuation.s": "s", "elliptic.ops64.s": "s",
    "elliptic.reconstruct_u.s": "s",
    "elliptic.field_eval.s": "s", "elliptic.field_eval.calls": "count",
    "elliptic.residual_reported": "1", "elliptic.residual_true": "1",
    "fibrations.solves": "count", "fibrations.probes": "count",
    "fibrations.cache.hits": "count", "fibrations.cache.hit_ratio": "ratio",
    "fibrations.solves_per_root": "count", "fibrations.search.s": "s",
    "singularities.analyze.s": "s", "singularities.axis_zeros.calls": "count",
    "singularities.winding_samples": "count",
    "models.boundary_data.s": "s",
    "oracle_err_u": "1", "oracle_err_v": "1",
    "trace.overhead_s": "s",
}


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("SLFIB_CACHE_DIR", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit():
    """Commit of the checkout from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(role, args, deadline, spans=None):
    """Run one worker process; returns its JSON line and its start time."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"{role} process for {args.workload} ran past the time limit")
    if proc.returncode != 0:
        raise RunFailed(f"{role} process for {args.workload} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{role} process for {args.workload} printed nothing")
    return json.loads(lines[-1]), started


def run_once(args):
    """One benchmark run of one workload; returns (result line, record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    spans = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.ndjson"
    else:
        for _ in range(SETUP_SAMPLES - 1):
            res, started = spawn("setup", args, deadline)
            setups.append((res["ready"] - started) * res["speed"])
    res, started = spawn("run", args, deadline, spans)
    setups.append((res["ready"] - started) * res["speed"])

    walls = [w for w, n in zip(res["walls"], res["solves"]) if n]
    per_solve = [w / n for w, n in zip(res["walls"], res["solves"]) if n]
    if args.trace:
        metrics = res.get("layers", {})
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else None,
            "s_per_solve": statistics.median(per_solve) if per_solve else None,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    line = {
        "correct": res["failed"] == 0 and all(name in metrics for name in units),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": line,
        "error_rate": res["failed"] / res["attempted"],
        "oracle_err_u": res["oracle_err"][0], "oracle_err_v": res["oracle_err"][1],
        "values": res["values"], "failures": res["failures"],
        "pass_walls_s": res["walls"], "pass_raw_walls_s": res["raw_walls"],
        "pass_solves": res["solves"], "kernel_samples": res["kernel_samples"],
        "setup_samples_s": setups, "digests": res["digests"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": res["versions"], "commit": git_commit(),
    }
    return line, record


def report(record):
    """Human-readable lines that precede the result line."""
    line = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={record['nproc']} commit={record['commit']} "
          + " ".join(f"{k}={v}" for k, v in record["versions"].items()))
    for name, m in line["metrics"].items():
        print(f"{record['workload']:>17} {name:<32} {m['value']!r:>24} {m['unit']}")
    print(f"{record['workload']:>17} {'error_rate':<32} {record['error_rate']!r:>24} 1")
    if record["workload"] == "disc_oracle" and not record["trace"]:
        for name in ("oracle_err_u", "oracle_err_v"):
            print(f"{record['workload']:>17} {name:<32} {record[name]!r:>24} 1")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "slfib" / "__init__.py").is_file():
        print("benchmark: no slfib sources under src/ in this checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        args.workload = name
        try:
            line, record = run_once(args)
        except RunFailed as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        report(record)
        lines[name] = line
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
