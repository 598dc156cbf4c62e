#!/usr/bin/env python3
"""csimplex benchmark: one command, three seeded workloads, checked outputs.

    python3 bench/run.py --workload readme_n128 --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` times the workload with tracing
off and prints the end-to-end metrics; ``--trace 1`` runs one unit untraced,
then traced units, and prints the per-layer metrics and the tracing
overhead.  ``--workload all`` (the default) runs every workload, each
in its own process so that peak memory is per workload.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the metrics and what each should move.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere: the workloads are single-threaded.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("readme_n128", "basin_battery", "classify_csv")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import csimplex.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.analyze_self_s": "s",
    "cli.simplex_self_s": "s", "cli.portrait_self_s": "s", "cli.verify_self_s": "s",
    "cli.mesh_load_s": "s", "cli.classify_io_s": "s",
    "classify.self_s": "s", "classify.table1_s": "s", "classify.rows": "count",
    "classify.refused": "count", "classify.out_of_range": "count",
    "analysis.self_s": "s", "analysis.fixed_points_s": "s", "analysis.fixed_points_calls": "count",
    "existence.self_s": "s", "existence.verify_s": "s", "existence.calls": "count",
    "simplex.self_s": "s", "simplex.mesh_s": "s", "simplex.mesh_calls": "count",
    "simplex.sweeps": "count", "simplex.s_per_sweep": "s", "simplex.contraction_rate": "ratio",
    "simplex.flagged": "count", "simplex.rays": "count", "simplex.unordered_s": "s",
    "simplex.invariance_s": "s",
    "manifolds.self_s": "s", "manifolds.unstable_s": "s", "manifolds.stable_s": "s",
    "manifolds.basin_s": "s", "manifolds.basin_calls": "count", "manifolds.basin_points": "count",
    "manifolds.resolved_frac": "ratio", "manifolds.diagnostics_s": "s",
    "portrait.self_s": "s", "portrait.raster_s": "s", "portrait.components_s": "s",
    "portrait.render_s": "s", "portrait.svg_bytes": "bytes",
    "models.self_s": "s", "models.map_s": "s", "models.map_calls": "count",
    "models.map_rows": "count", "models.rows_per_call": "rows/call",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def import_seconds() -> float:
    """Time to import csimplex.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """Content hash of src/, identifying the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import csimplex

    if Path(csimplex.__file__).resolve().parent != SRC / "csimplex":
        raise RuntimeError(f"csimplex imported from {csimplex.__file__}, not {SRC}")
    from hostspeed import HostSpeed
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imp = import_seconds()
            t0 = time.perf_counter()
            wl.write_inputs(work, seed)
            setups.append(imp + time.perf_counter() - t0)
            imports.append(imp)
        wl.prepare(work)
        speed = HostSpeed(wl.PROBES_PER_OP)

        units, layer_runs, spans = [], [], []
        nesting_ok = True
        if not trace:
            t0 = time.perf_counter()
            while True:
                units.append(wl.run_unit(NullTracer(), len(units), speed.probe))
                if time.perf_counter() - t0 >= seconds and len(units) >= wl.MIN_UNITS:
                    break
            speed.probe()
        else:
            # untraced twin of traced unit 0, for the overhead
            units.append(wl.run_unit(NullTracer(), 0, speed.probe))
            tracer = Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                while True:
                    index = len(layer_runs)
                    tracer.reset()
                    units.append(wl.run_unit(tracer, index, speed.probe))
                    layer_runs.append(tracer.layer_metrics())
                    nesting_ok = nesting_ok and tracer.nesting_ok()
                    spans.extend({**s.to_doc(), "unit": index} for s in tracer.spans)
                    if time.perf_counter() - t0 >= seconds:
                        break
            if tracer.missing:
                print(f"warning: not traced (missing): {tracer.missing}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    problems = [p for u in units for p in u.problems]
    if trace and not nesting_ok:
        problems.append("a span's children cover more time than the span")
    ops = [o for u in units for o in u.ops]
    op_seconds: dict[str, list[float]] = {}
    for o in ops:
        if o.name != "row":  # classify rows are not timed one by one
            op_seconds.setdefault(o.name, []).append(o.seconds)
    result = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "units": len(units),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "problems": problems,
        "unit_wall_s": [u.wall_s for u in units],
        "op_seconds": op_seconds,
    }
    if not trace:
        wall = _median([u.wall_s for u in units])
        metrics = {
            "setup_s": _median(setups),
            "wall_ref_s": wall / speed.factor(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        extra = {"wall_s": (wall, "s"), "host_factor": (speed.factor(), "ratio"),
                 **wl.extra_metrics(units),
                 "fail_frac": (result["failed"] / result["attempted"], "ratio")}
        result["extra"] = {k: {"value": v, "unit": unit} for k, (v, unit) in extra.items()}
    else:
        # Counts come from traced unit 0, which repeats the untraced unit's
        # inputs; times are medians over the traced units.
        counts = {k for k, unit in PER_LAYER.items() if unit in ("count", "bytes")}
        metrics = {key: layer_runs[0][key] if key in counts
                   else _median([run[key] for run in layer_runs]) for key in layer_runs[0]}
        metrics["cli.import_s"] = _median(imports)
        metrics["trace.overhead_s"] = units[1].wall_s - units[0].wall_s
        result["metrics"] = {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    OUT.mkdir(exist_ok=True)
    if trace:
        with (OUT / f"{name}-seed{seed}-spans.jsonl").open("w") as fh:
            for doc in spans:
                fh.write(json.dumps(doc) + "\n")
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"{name} env {json.dumps(result['env'], sort_keys=True)}")
    for key, m in {**result["metrics"], **result.get("extra", {})}.items():
        print(f"{name} {key} = {m['value']!r} {m['unit']}")
    print(f"{name} failed {result['failed']} of {result['attempted']} attempted ops")
    for p in result["problems"]:
        print(f"{name} CHECK FAILED: {p}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one after another."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        last = json.loads(lines[-1])
        final["correct"] = final["correct"] and last["correct"]
        final["attempted"] += last["attempted"]
        final["failed"] += last["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    return final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "csimplex" / "__init__.py").is_file():
        print(f"csimplex sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        final = {"correct": not result["problems"], "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
