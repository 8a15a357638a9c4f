"""Run one coopcap benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME [--seed 0] [--seconds 35] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/.
Set-up (interpreter start, imports, inputs) is timed in five fresh
processes and reported as the median. Then whole rounds of the workload
run, one after another in this process, while another round still fits in
--seconds (at least one). Each round's outputs are checked, apart from the
program, as soon as it ends, and then dropped. The peak RSS is read after
the first round, so it does not grow with the number of rounds that fit.

With --trace 0 the end-to-end metrics are printed. With --trace 1 one
round runs untraced, then traced rounds run with spans around the calls
into each layer; the per-layer metrics are printed and the spans written
to .bench_runs/traces/. The metric names and units are those of
BENCHMARK.json. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 5


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def time_setups(argv) -> float:
    """Median wall time of SETUP_SAMPLES fresh processes doing set-up only."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Runner:
    """Runs whole rounds of one workload, checking each one as it ends."""

    def __init__(self, workload, inputs, workdir: Path):
        from tracing import peak_rss_mb
        from workloads import Ops

        self.read_peak_rss_mb = peak_rss_mb
        self.workload, self.inputs, self.workdir = workload, inputs, workdir
        self.ops = Ops()
        self.done = 0
        self.errors: list[str] = []
        self.estimates: list[float] = []
        self.peak_rss_mb = None
        self.aborted = False

    def round(self, span=None) -> float | None:
        """One round, checked and its outputs dropped; its wall time, or
        None if it raised."""
        out = self.workdir / "round"
        out.mkdir(parents=True)
        before = self.ops.attempted
        try:
            with span("bench.round") if span else contextlib.nullcontext():
                wall, result = self.workload.run_round(self.inputs, self.ops, out)
        except Exception:
            traceback.print_exc()
            missing = self.workload.ops_per_round - (self.ops.attempted - before)
            self.ops.attempted += missing
            self.ops.failed += missing
            self.aborted = True
            shutil.rmtree(out, ignore_errors=True)
            return None
        if self.peak_rss_mb is None:
            self.peak_rss_mb = self.read_peak_rss_mb()
        self.done += 1
        print(f"{self.workload.name} round {self.done}: {wall:.3f} s", file=sys.stderr)
        self.errors += self.workload.check(self.inputs, result)
        self.estimates.append(result["ie_estimate_bits"])
        del result
        shutil.rmtree(out)
        return wall

    def rounds(self, seconds: float, span=None) -> list[float]:
        """Rounds while another one fits in `seconds`; their wall times."""
        walls = []
        while not self.aborted:
            wall = self.round(span)
            if wall is None:
                break
            walls.append(wall)
            if sum(walls) + statistics.median(walls) > seconds:
                break
        return walls


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def traced_metrics(runner: Runner, args) -> dict[str, float]:
    """One untraced round, then traced rounds; per-layer medians.

    The tracing overhead is the measured cost of one span times the spans
    of a round: the untraced round runs cold, first in the process, so the
    difference of the two rounds' wall times is dominated by that and by
    host noise, not by the spans.
    """
    import tracing

    untraced = runner.rounds(0)  # exactly one round
    tracer = tracing.Tracer()
    with tracer:
        traced = runner.rounds(args.seconds, span=tracer.span)
    rounds = [span for span in tracer.spans if span["name"] == "bench.round"]
    per_round = [
        tracing.layer_metrics(tracing.descendants(tracer.spans, span["id"])) for span in rounds
    ]
    metrics = {
        name: statistics.median(r.get(name, 0.0) for r in per_round) if per_round else 0.0
        for name in metric_units("per_layer")
    }
    span_cost = tracing.span_cost_s()
    metrics["trace.span_cost_us"] = span_cost * 1e6
    metrics["trace.overhead_s"] = span_cost * metrics["trace.spans"]
    if untraced and traced:
        metrics["trace.untraced_wall_s"] = untraced[0]
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / untraced[0]
    RUNS.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = RUNS / "traces" / f"{args.workload}-s{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "metrics": metrics,
        "spans": tracer.spans,
    }, indent=1))
    print(f"spans written to {trace_path}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coopcap" / "__init__.py").is_file():
        print(f"error: no coopcap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process; BLAS may use every core this process may run on, no more.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # set-up time is an end-to-end metric, so traced runs skip timing it
    setup_s = None if args.setup_only or args.trace else time_setups(child_argv)
    workload = workloads.WORKLOADS[args.workload]
    workdir = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        inputs = workload.setup(args.seed, workdir)
        if args.setup_only:
            return 0
        runner = Runner(workload, inputs, workdir)
        if args.trace:
            metrics = traced_metrics(runner, args)
            units = metric_units("per_layer")
        else:
            walls = runner.rounds(args.seconds)
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls) if walls else float("nan"),
                "peak_rss_mb": runner.peak_rss_mb or float("nan"),
                "ie_estimate_bits": (
                    statistics.median(runner.estimates) if runner.estimates else float("nan")
                ),
            }
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not runner.errors and not runner.aborted
    print(json.dumps({
        "correct": correct,
        "attempted": runner.ops.attempted,
        "failed": runner.ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
