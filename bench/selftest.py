#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of csimplex).

    python3 bench/selftest.py [--workload NAME ...]

Checks that:
  * the classify oracle gives the known answers on hand-made rows;
  * each workload's traced run is correct, its spans nest (children never
    cover more time than their parent), and its metric names and units
    match BENCHMARK.json;
  * two traced runs of the same code and seed report identical counts for
    the counters a later change may rest a claim on;
  * a timed run prints exactly the end-to-end metrics of BENCHMARK.json.
Exits 0 when every check holds.  Takes a few minutes.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPEATED_COUNTS = (
    "simplex.sweeps", "models.map_calls", "models.map_rows", "manifolds.basin_calls",
    "manifolds.basin_points", "analysis.fixed_points_calls", "simplex.mesh_calls",
)


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_oracle() -> list[str]:
    sys.path.insert(0, str(BENCH))
    import oracle

    problems = []
    class19 = [1.0, 1.2, 1.2, 0.5, 1.0, 2.0, 0.5, 2.0, 1.0]
    if oracle.expected(class19)[:2] != (19, "123"):
        problems.append(f"oracle: class-19 matrix gave {oracle.expected(class19)}")
    if oracle.expected([1.7] * 9)[0] != oracle.REFUSE:
        problems.append("oracle: all-equal matrix not refused")
    if oracle.expected([1.0, 2.0, 1.5, 0.5, 1.0, 1.3, 0.7, 0.9, 1.0])[0] != oracle.REFUSE:
        problems.append("oracle: a11 a22 == a12 a21 not refused")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    problems = check_oracle()
    for name in args.workload or names:
        first, second = run(name, args.seed, 1), run(name, args.seed, 1)
        for label, res in (("first", first), ("second", second)):
            if not res["correct"]:
                problems.append(f"{name}: {label} traced run not correct")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != per_layer:
                problems.append(f"{name}: traced metrics differ from BENCHMARK.json per_layer")
        for key in REPEATED_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{name}: {key} not repeated exactly ({a} vs {b})")
        print(f"{name}: traced twice, counts " + ", ".join(
            f"{k}={first['metrics'][k]['value']}" for k in REPEATED_COUNTS), flush=True)
    timed = run("classify_csv", args.seed, 0)
    if {k: v["unit"] for k, v in timed["metrics"].items()} != end_to_end:
        problems.append("timed metrics differ from BENCHMARK.json end_to_end")
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
