"""hypcurv benchmark: one closed-loop client, one operation in flight.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

runs the workload's operations in whole rounds for ``--seconds`` after one warm-up
round, checks every output (``checks``), and prints a table of metrics followed by
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured with no instrumentation;
with ``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer figures of the traced rounds plus the tracing overhead. ``--workload all``
runs every workload, each in its own process. ``--smoke`` skips the warm-up round
and takes one set-up sample, for a quick end-to-end test.

See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported, here and in child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(descriptors, samples: int) -> float:
    """Median over fresh interpreters of import plus descriptor loading."""
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                              *descriptors], capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs rounds of a workload, checking outputs and counting failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.check_failures = []

    def round(self) -> list:
        """One pass over the operations; returns (op, seconds) per success."""
        times, results = [], {}
        faults = (self.failed, len(self.check_failures))
        for op in self.workload.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except (Exception, SystemExit):
                self.failed += 1
                print(f"operation failed: {op.label}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            times.append((op, time.perf_counter() - t0))
            self._checked(op.label, op.check, out, results)
        # checks across operations need every operation of the round to have passed
        if faults == (self.failed, len(self.check_failures)):
            for check in self.workload.round_checks:
                self._checked(check.__name__, check, results, {})
        return times

    def _checked(self, label, check, value, results):
        """Run one check; keep what it returns under ``label`` if it passed.

        Output the check cannot read (a missing key, malformed text) fails it too.
        """
        try:
            results[label] = check(value)
        except (checks.CheckFailure, KeyError, IndexError, TypeError, ValueError) as exc:
            self.check_failures.append(f"{label}: {exc!r}")
            print(f"check failed: {label}: {exc!r}", file=sys.stderr)


def e2e_metrics(ops: list, rounds: list) -> dict:
    """End-to-end figures from each operation's median time over the rounds.

    Taking the median per operation before summing keeps a stall in one round out of
    every figure, and the sum keeps the whole mix of operations in each one. An
    operation listed twice in a round counts twice, with the median of both.
    """
    samples = defaultdict(list)
    for times in rounds:
        for op, seconds in times:
            samples[op.label].append(seconds)
    by_kind = defaultdict(list)
    for op in ops:
        if samples[op.label]:
            by_kind[op.kind].append((statistics.median(samples[op.label]), op.points))

    def total(kind, i=0):
        return sum(t[i] for t in by_kind[kind])

    def mean(kind):
        return total(kind) / len(by_kind[kind]) if by_kind[kind] else 0.0

    def rate(kind):
        return total(kind, 1) / total(kind) if by_kind[kind] else 0.0

    return {"pass_s": sum(total(kind) for kind in by_kind),
            "scan_points_per_s": rate("scan"), "sampled_points_per_s": rate("sampled"),
            "analyze_ms": 1e3 * mean("analyze"), "classify_s": mean("classify"),
            "solve_s": mean("solve"), "probe_s": mean("probe")}


def run_workload(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "hypcurv", "cli.py")):
        sys.exit(f"error: no hypcurv sources at {SRC}; run from a full checkout")
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        rng = np.random.default_rng(args.seed)
        sys.path.insert(0, SRC)
        from hypcurv import cli, gridfn, plaplace
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            sys.exit(f"error: hypcurv imported from {cli.__file__}, not from {SRC}")
        builder = workloads.Builder(cli, plaplace, gridfn, args.seed, work)
        workload = builder.build(args.workload, rng)
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = measure_setup(workload.descriptors,
                                               1 if args.smoke else SETUP_SAMPLES)
        runner = Runner(workload)
        if not args.smoke:
            runner.round()
        untraced, traced, layers = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            untraced.append(runner.round())
            if args.trace:
                tracer = spans.Tracer()
                with tracer.installed():
                    traced.append(runner.round())
                layers.append(tracer.layer_metrics())
            if time.perf_counter() >= deadline:
                break
        if args.trace:
            metrics = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
            plain = e2e_metrics(workload.ops, untraced)["pass_s"]
            overhead = e2e_metrics(workload.ops, traced)["pass_s"] - plain
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_pct"] = 100.0 * overhead / plain
        else:
            metrics.update(e2e_metrics(workload.ops, untraced))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = declared_units(args.trace)
        if set(units) != set(metrics):
            sys.exit(f"error: metrics {sorted(set(units) ^ set(metrics))} are not "
                     "both measured and declared in BENCHMARK.json")
        return {"correct": not runner.check_failures, "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": float(v), "unit": units[k]}
                            for k, v in sorted(metrics.items())}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(name: str, result: dict):
    print(f"[{name}] attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print_table(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="no warm-up round and a single set-up sample")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print_table(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
