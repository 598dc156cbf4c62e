#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, per
printed metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 bench/spread.py --workload basin_battery --runs 10 --seconds 20

Each run is a separate process, one after another.  With ``--save`` every
run's last output line is kept, so a set of runs can serve as a baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--save", default=None, help="write all results to this JSON file")
    args = parser.parse_args()
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        last["seed"] = seed
        last["printed"] = {p[1]: float(p[3]) for p in map(str.split, proc.stdout.splitlines())
                           if len(p) == 5 and p[2] == "="}
        results.append(last)
        values = {k: round(v["value"], 4) for k, v in last["metrics"].items()}
        print(f"seed {seed}: correct={last['correct']} failed={last['failed']}/"
              f"{last['attempted']} {values}", flush=True)
    for key in results[0]["printed"]:
        values = [r["printed"][key] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        gated = "  (gated)" if key in results[0]["metrics"] else ""
        print(f"{args.workload} {key}: median {med:.6g}  spread {spread:.4f}{gated}")
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "runs": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
