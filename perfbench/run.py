"""hardyliou benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload dmd-wide --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory.  With ``--trace 0`` the run times
``IMPORT_REPEATS`` fresh-interpreter imports and ``SETUP_REPEATS`` input
generations, then repeats the workload's operation cycle until ``--seconds``
have passed, and at least ``MIN_CYCLES`` times, and prints every end-to-end
metric.  With ``--trace 1`` every operation runs once per cycle: it times
``MIN_CYCLES`` untraced cycles, installs the tracer, sets up and cycles
again, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is the JSON result; a fuller record
(environment, sample counts, percentiles, failures and, when traced, the
spans) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
# run in a fresh interpreter; prints the perf_counter stamps around the import
IMPORT_SCRIPT = (
    "import time; start = time.perf_counter(); "
    "import numpy, hardyliou, hardyliou.cli; print(start, time.perf_counter())"
)
BLAS_THREADS = 1
MIN_CYCLES = 3  # so every operation is sampled in three separate windows
QUANTUM = 0.5  # seconds each operation runs per cycle, at least
WORKLOAD_NAMES = ("acceptance", "dmd-wide", "operators-deep")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
UNITS = {"predict_per_s": "1/s", "peak_rss_mb": "MB"}
# per-layer counts derived from arguments and results rather than measured
COMPUTED_SUFFIXES = ("bytes", "moments", "steps", "coeff_points")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """Pin BLAS pools to one thread; must run before numpy loads.

    At these sizes a second OpenBLAS thread on two cores spins more than it
    helps (N = 128 eigensolves and verify-all take the same wall time) and
    doubles the run's exposure to other load on the machine.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for level in PERCENTILES:
        if len(ordered) * (1.0 - level / 100.0) >= 10:
            rank = math.ceil(level / 100.0 * len(ordered))
            return f"p{level:g}", ordered[rank - 1]
    return None, None


class Loop:
    """Runs cycles of a Mix, collecting per-metric samples and failures."""

    def __init__(self, mix, quantum, tracer=None):
        self.mix = mix
        self.quantum = quantum
        self.tracer = tracer
        # flat (start, end) pairs; compact, so the run's memory stays flat
        self.samples = {metric: array("d") for metric, _ in mix.operations()}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cycles = 0

    def cycle(self) -> float:
        """One pass over every operation; returns the seconds it timed.

        A fast operation repeats until it has run for ``quantum`` seconds,
        so it gets enough samples for a steady median; with a quantum of 0
        each operation runs once.
        """
        timed = 0.0
        for metric, operation in self.mix.operations():
            if self.tracer is not None:
                self.tracer.op = f"c{self.cycles}:{metric}"
            spent, calls = 0.0, 0
            while calls == 0 or spent < self.quantum:
                calls += 1
                try:
                    results = operation()
                except Exception as exc:  # an operation that raises counts as failed
                    self.attempted += 1
                    self.failed += 1
                    self.errors.append(f"{metric}: {type(exc).__name__}: {exc}")
                    break
                for start, end, check in results:
                    try:
                        errors = check()
                    except Exception as exc:  # a check that cannot run fails
                        errors = [f"{metric} check: {type(exc).__name__}: {exc}"]
                    self.attempted += 1
                    self.samples[metric].extend((start, end))
                    spent += end - start
                    self.failed += bool(errors)
                    self.errors.extend(errors)
            timed += spent
        self.cycles += 1
        return timed

    def run_until(self, deadline) -> list:
        timed = [self.cycle() for _ in range(MIN_CYCLES)]
        while time.perf_counter() < deadline:
            timed.append(self.cycle())
        return timed


def end_to_end(samples, probe, setup_s, peak_rss_mb):
    metrics, detail = {}, {}
    for metric, stamps in samples.items():
        if not stamps:
            continue
        intervals = list(zip(stamps[0::2], stamps[1::2]))
        values = [probe.corrected(start, end) for start, end in intervals]
        value = statistics.median(values)
        raw = statistics.median(end - start for start, end in intervals)
        tail, tail_value = tail_percentile(values)
        if metric == "predict_per_s":
            value, raw = 1.0 / value, 1.0 / raw
            tail_value = None if tail_value is None else 1.0 / tail_value
        metrics[metric] = (value, UNITS.get(metric, "s"))
        # the uncorrected median, in the metric's unit
        detail[metric] = {
            "samples": len(values),
            "tail": tail,
            "tail_value": tail_value,
            "raw": raw,
        }
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, detail


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hardyliou" / "__init__.py").is_file():
        print(f"error: no hardyliou sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import hardyliou
    import hardyliou.cli  # noqa: F401
    sys.path.insert(0, str(HERE))
    import workloads

    scale = workloads.WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    env["hardyliou"] = hardyliou.__version__
    print(f"# hardyliou benchmark {json.dumps(env, sort_keys=True)}")
    try:
        if args.trace:
            record = traced_run(args, scale, run_dir, results_dir)
        else:
            record = timed_run(args, scale, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["environment"] = env
    metrics = record.pop("metrics")
    for name, (value, unit) in metrics.items():
        extra = record.get("detail", {}).get(name)
        note = ""
        if extra:
            note = f"  n={extra['samples']}"
            if extra["tail"]:
                note += f" {extra['tail']}={extra['tail_value']:.6g}"
            note += f" raw={extra['raw']:.6g}"
        if name in record.get("computed", ()):
            note += "  (computed)"
        print(f"{name:32s} {value:.6g} {unit}{note}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_ratio':32s} {failed / attempted:.6g} ({failed} of {attempted})")
    for error in record["errors"][:10]:
        print(f"# failure: {error}")
    record["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def import_seconds(probe):
    """Corrected seconds of each fresh-interpreter import of the program.

    The process has already imported the program, so the files are in the
    page cache and each child measures the same warm import.  The children
    run pinned to one core with this process, so the speed probe measures
    the core they run on: on a shared machine the cores can run at
    different speeds at the same moment.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        stamps = [
            subprocess.run(
                [sys.executable, "-c", IMPORT_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout.split()
            for _ in range(IMPORT_REPEATS)
        ]
    finally:
        os.sched_setaffinity(0, cores)
    return [probe.corrected(float(start), float(end)) for start, end in stamps]


def timed_run(args, scale, run_dir):
    import speed
    import workloads

    intervals = []
    with speed.SpeedProbe() as probe:
        imports = import_seconds(probe)
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workloads.generate(scale, args.seed, run_dir / "inputs")
            intervals.append((start, time.perf_counter()))
        loop = Loop(workloads.Mix(inputs, run_dir / "out"), QUANTUM)
        # the harness's own objects should not lengthen the program's collections
        gc.collect()
        gc.freeze()
        loop.run_until(time.perf_counter() + args.seconds)
    generation = [probe.corrected(start, end) for start, end in intervals]
    setup_s = statistics.median(imports) + statistics.median(generation)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, detail = end_to_end(loop.samples, probe, setup_s, peak_rss_mb)
    return {
        "metrics": metrics,
        "detail": detail,
        "import_s": imports,
        "generation_s": generation,
        "probes": len(probe.durations),
        "probe_median_s": statistics.median(probe.durations),
        "cycles": loop.cycles,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_ratio": loop.failed / loop.attempted,
        "errors": loop.errors,
    }


def traced_run(args, scale, run_dir, results_dir):
    import tracing
    import workloads

    inputs = workloads.generate(scale, args.seed, run_dir / "inputs")
    mix = workloads.Mix(inputs, run_dir / "out")
    # one call per operation per cycle, so counts per cycle are exact
    untraced = Loop(mix, 0.0)
    untraced_s = untraced.run_until(0.0)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    started = time.perf_counter()
    mix.inputs = workloads.generate(scale, args.seed, run_dir / "inputs")
    loop = Loop(mix, 0.0, tracer)
    traced_s = loop.run_until(started + args.seconds)
    metrics = tracing.layer_metrics(tracer, loop.cycles)
    overhead = statistics.mean(traced_s) - statistics.mean(untraced_s)
    metrics["trace.overhead_s"] = (overhead, "s")
    spans_name = f"{args.workload}-seed{args.seed}-spans.json"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(results_dir / spans_name, "w") as handle:
        json.dump(
            [[n, s - origin, e - origin, p, op] for n, s, e, p, op in tracer.spans],
            handle,
        )
    attempted = untraced.attempted + loop.attempted
    failed = untraced.failed + loop.failed
    return {
        "metrics": metrics,
        "computed": [k for k in metrics if k.endswith(COMPUTED_SUFFIXES)],
        "untraced_cycle_s": untraced_s,
        "traced_cycle_s": traced_s,
        "cycles": loop.cycles,
        "spans": spans_name,
        "span_count": len(tracer.spans),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": untraced.errors + loop.errors,
    }


if __name__ == "__main__":
    sys.exit(main())
