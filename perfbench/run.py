"""planecover benchmark: one closed-loop workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run loads planecover from ``src/`` of the checkout it sits in, runs one
untimed warm-up pass, then whole passes, each followed by a slice of the
host-speed kernel (hostspeed.py) a tenth as long, until passes and slices
together reach ``--seconds``.  Every op's output is checked after its pass,
outside the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary with
sample counts and the host-speed factor goes to stderr.

``--trace 0`` reports the end-to-end metrics, every time in them scaled to
the host's reference speed by the kernel slice that follows its pass
(setup_s by the median factor of the run).
``setup_s`` is the median, over SETUP_LAUNCHES fresh interpreters, of the
time from starting one to the point where it would begin its first op
(importing planecover.cli and reading or generating the inputs).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see tracer.py), the growth exponent
from the untraced ones, and ``trace.overhead_ratio`` = median traced pass
time / median untraced pass time.  The spans of the first traced pass go
to ``perfbench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from math import log
from time import perf_counter

from harness import HERE, Program, latency, run_pass
from hostspeed import REFERENCE_S, HostSpeed
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

SETUP_LAUNCHES = 9
HOST_SHARE = 0.1  # kernel time sampled after each timed pass, as a share of the pass
GROWTH_METRIC = {"arrangement": "normalize.growth_exponent", "census": "census.growth_exponent"}


def measure_setup(workload: str, seed: int) -> float:
    """Median launch-to-first-op time over fresh interpreters, after one discarded launch."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            times.append(perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe failed with exit {probe.returncode}")
    return statistics.median(times[1:])


def growth_exponent(samples: list[tuple[int, int, float]]) -> float:
    """Least-squares slope of log(latency) on log(size), pooled within series.

    Each (series, size) point is the median latency of its ops; every series
    keeps its own intercept, so the slope compares sizes only within one.
    """
    latencies = defaultdict(list)
    for series, size, seconds in samples:
        latencies[series, size].append(seconds)
    points = defaultdict(list)
    for (series, size), values in latencies.items():
        points[series].append((log(size), log(statistics.median(values))))
    num = den = 0.0
    for pts in points.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
    return num / den if den else 0.0


class Run:
    """Passes of one workload, with every op's output checked."""

    def __init__(self, program: Program, workload):
        self.program = program
        self.workload = workload
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer: Tracer | None = None):
        ops = self.workload.ops(self.passes)
        gc.collect()  # every pass starts from the same collector state
        if tracer is None:
            seconds, results = run_pass(self.program, ops)
        else:
            with tracer.installed():
                seconds, results = run_pass(self.program, ops, tracer, self.attempted)
        for op, res in zip(ops, results):
            problem = self.workload.check(self.program, op, res)
            if problem is not None:
                self.failures.append(f"pass {self.passes} {op.key}: {problem}")
        self.passes += 1
        self.attempted += len(ops)
        return seconds, ops, results


def end_to_end(run: Run, seconds: float, setup_s: float) -> tuple[dict, str]:
    run.one_pass()  # warm-up
    host = HostSpeed()
    pass_times, p50, p90, largest = [], [], [], []
    measured = 0.0
    while not pass_times or measured + host.spent < seconds:
        elapsed, ops, results = run.one_pass()
        scale = host.sample(HOST_SHARE * elapsed)
        measured += elapsed
        pass_times.append(elapsed * scale)
        lat = [latency(res) * scale for res in results]
        p50.append(statistics.median(lat))
        p90.append(statistics.quantiles(lat, n=10, method="inclusive")[8])
        largest.append(scale * sum(latency(res) for op, res in zip(ops, results) if op.largest))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = statistics.median(host.factors)
    metrics = {
        "ops_per_s": (len(ops) / statistics.median(pass_times), "1/s"),
        "op_ms_p50": (1000 * statistics.median(p50), "ms"),
        "op_ms_p90": (1000 * statistics.median(p90), "ms"),
        "max_size_op_s": (statistics.median(largest), "s"),
        "ops_ok_ratio": ((run.attempted - len(run.failures)) / run.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }
    note = (
        f"{len(pass_times)} timed passes of {len(ops)} ops, setup over {SETUP_LAUNCHES} launches; "
        f"times scaled pass by pass, median factor {scale:.4f} "
        f"({host.count} kernel runs, mean {1000 * host.spent / host.count:.3f} ms, "
        f"reference {1000 * REFERENCE_S:.3f} ms)"
    )
    return metrics, note


def traced(run: Run, seconds: float, workload: str) -> tuple[dict, str]:
    run.one_pass()  # warm-up
    plain_times, traced_times, summaries, samples = [], [], [], []
    first = None
    while sum(plain_times) + sum(traced_times) < seconds or not traced_times:
        elapsed, ops, results = run.one_pass()
        plain_times.append(elapsed)
        samples += [(op.series, op.size, latency(res)) for op, res in zip(ops, results) if op.size]
        tracer = Tracer()
        elapsed, _, _ = run.one_pass(tracer)
        traced_times.append(elapsed)
        summaries.append(tracer.summary())
        first = first or tracer
    metrics = {name: (value, _layer_unit(name)) for name, value in layer_metrics(summaries).items()}
    for name in GROWTH_METRIC.values():
        exponent = growth_exponent(samples) if GROWTH_METRIC.get(workload) == name else 0.0
        metrics[name] = (exponent, "slope")
    ratio = statistics.median(traced_times) / statistics.median(plain_times)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}.spans.jsonl", "w", encoding="utf-8") as handle:
        written = first.write_jsonl(handle)
    note = (
        f"{len(traced_times)} traced and {len(plain_times)} untraced passes, "
        f"{written} spans of the first traced pass written"
    )
    return metrics, note


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    program = Program()
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.ops(0)
        print("ready", flush=True)
        return 0

    run = Run(program, workload)
    if args.trace:
        metrics, note = traced(run, args.seconds, args.workload)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics, note = end_to_end(run, args.seconds, setup_s)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {note}, {len(run.failures)} of {run.attempted} ops failed",
          file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
