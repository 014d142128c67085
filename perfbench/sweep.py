"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 perfbench/sweep.py --seeds 1-10 [--out perfbench/baseline.json]

Reads the command, run length, workloads and bounds from BENCHMARK.json and
runs each (workload, seed) pair in turn, untraced.  For every end-to-end
metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile spread as a
share of the median; a spread above a third of the metric's bound is flagged
``UNSTEADY``.  ``--out`` writes the summary as JSON, with each run's
``attempted`` and ``failed`` counts.  The exit code is 1 when a spread is
flagged or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    header = json.loads(lines[0].split(" ", 3)[3])
    return header, json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        collected = {name: [] for name in bounds}
        record = summary["workloads"][workload] = {"attempted": [], "failed": []}
        for seed in args.seeds:
            header, result = run_once(spec, workload, seed)
            record["attempted"].append(result["attempted"])
            record["failed"].append(result["failed"])
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} failed")
            for name in bounds:
                collected[name].append(result["metrics"][name]["value"])
        summary["environment"] = {
            k: header[k] for k in ("nproc", "blas", "blas_threads", "numpy", "python")
        }
        rows = record["metrics"] = {}
        for name, values in collected.items():
            row = rows[name] = summarise(values)
            bound = bounds[name]
            flag = ""
            spread = row["spread"]
            if spread is None or spread > bound / 3:
                flag, steady = "  UNSTEADY", False
            spread = "n/a" if spread is None else f"{spread:.3f}"
            print(
                f"{workload:15s} {name:34s} median {row['median']:.6g} "
                f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {spread} "
                f"(bound {bound}){flag}"
            )
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
