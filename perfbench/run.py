"""Layered benchmark for almost-squares.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0

One process drives the package as a closed loop with one client: every
operation is one in-process ``almost_squares.cli.main(argv)`` call with
stdout and stderr captured to memory, issued after the previous one has
returned.  All inputs are generated from ``--seed`` before timing starts.
Every answer is checked outside the timed region (see ``reference.py``);
a wrong answer, an uncaught exception or a traceback counts as a failed
operation.  Operations run block by block (``workloads.py``) until their
summed time reaches ``--seconds``, or until the seeded blocks run out.
A full garbage collection runs, untimed, before each operation, so that
none pays for the garbage of the one before.  Metric names, units and
bounds are defined in ``BENCHMARK.json``.

With ``--trace 0`` the run reports the end-to-end metrics.  Their times
are scaled to a reference host speed by a fixed kernel timed between
operations (``speed.py``), since the speed of a shared host drifts by a
third or more over minutes; the wall-clock figures are printed beside
them and kept in the run record.

* ``setup_s`` (s, lower): median over nine fresh interpreters, started
  between blocks, of the time from start until the first operation can be
  issued -- importing ``almost_squares`` and whatever the workload's verbs
  load lazily (numpy and mpmath for ``series``).  Input generation and
  reference answers are excluded.
* ``ops_per_s`` (1/s, higher): operations per second of operation time.
* ``op_p50_ms`` / ``op_tail_ms`` (ms, lower): per-operation latency as
  Harrell-Davis percentile estimates; the tail is the highest of
  p99.9/p99/p90/p50 with at least ten samples beyond it, and the report
  names it and the sample count.
* ``rows_per_s`` (1/s, higher): result rows per second -- listed members
  for ``windows``, CSV rows for ``series``, integers verified for
  ``oracle-verify``, one answer per query for ``point-queries``.
* ``peak_rss_mb`` (MB, lower): peak resident memory of this process,
  the harness and its reference data included.

The failure rate (failed / attempted) is printed in the report.  Grid
points above 10^308 in ``series`` currently end in an uncaught
``OverflowError``; they run untimed as known-defect probes whose failures
the report counts separately, so that the timed workloads stay free of
failing operations.

With ``--trace 1`` each block runs twice, once with span wrappers
installed (``tracing.py``) and once without, in alternating order.  The
run reports layer metrics per operation (time, calls, rows) from the
traced executions and the tracing overhead (traced over untraced
operation time), and writes the spans to ``perfbench/out``.  Layers not
exercised by a workload report 0.  Which layer metric should move which
end-to-end metric:

* ``cli.build_parser_s``, ``cli.parse_args_s``, ``cli.self_s``: ``op_p50_ms``
  on point-queries and ``rows_per_s`` on windows;
* ``core.floor_almost_square.*``, ``core.nth.*``: ``op_tail_ms`` and
  ``ops_per_s`` on point-queries, with series and oracle-verify flat;
* ``core.enumerate_range.*``: ``op_tail_ms`` and ``peak_rss_mb`` on windows;
* ``analysis.*``: ``rows_per_s`` and ``op_p50_ms`` on series;
* ``oracle.*``: ``ops_per_s`` and ``rows_per_s`` on oracle-verify.

The point-queries digit ladder stops at a band around 3*10^4 digits
(2.5*10^4 to 3.6*10^4) because ``floor`` and ``nth`` at 10^5 digits take
about 3 s each; raising it is a change to this benchmark.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report and the run metadata.  A full record of each run
goes to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe, bracketed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 9
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

# metric names, units and directions are defined once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _import_package():
    """Import almost_squares from this checkout's src/, never from elsewhere."""
    if not (SRC / "almost_squares" / "__init__.py").is_file():
        sys.exit(f"perfbench: no almost_squares package under {SRC}")
    sys.path.insert(0, str(SRC))
    import almost_squares

    if SRC not in Path(almost_squares.__file__).resolve().parents:
        sys.exit(f"perfbench: imported almost_squares from {almost_squares.__file__}")


class SetupTimer:
    """Start-to-ready times of fresh interpreters importing the workload's modules.

    Samples are spread over the run, between blocks, so that the median
    does not rest on one moment of a machine whose speed drifts.
    """

    def __init__(self, imports: tuple[str, ...], seconds: float) -> None:
        self.code = "".join(
            ["import sys, time\n", f"sys.path.insert(0, {str(SRC)!r})\n"]
            + [f"import {name}\n" for name in imports]
            + ["print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"]
        )
        self.seconds = seconds
        self.samples: list[float] = []
        self._start()  # the first start fills the bytecode and file caches
        self.sample()

    def _start(self) -> float:
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        return (int(proc.stdout.split()[-1]) - t0) * 1e-9

    def sample(self) -> None:
        self.samples.append(bracketed(self._start))

    def between_blocks(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_SAMPLES * min(1.0, elapsed / self.seconds):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def call(main, argv: list[str]):
    """One operation: (seconds, exit code, stdout, stderr, traceback or None)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc, exc = None, None
    gc.collect()  # start each operation without garbage left by the previous one
    try:
        t0 = time.perf_counter_ns()
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception:
            exc = traceback.format_exc()
        t1 = time.perf_counter_ns()
    finally:
        sys.stdout, sys.stderr = saved
    return (t1 - t0) * 1e-9, rc, out.getvalue(), err.getvalue(), exc


def judge(op, ref, rc, out: str, err: str, exc: str | None) -> tuple[str | None, int]:
    """(failure message or None, rows produced)."""
    from workloads import Wrong

    if exc is not None:
        return "uncaught " + exc.strip().splitlines()[-1], 0
    if "Traceback" in err:
        return "traceback on stderr", 0
    try:
        return None, op.check(ref, rc, out, err)
    except Wrong as wrong:
        return str(wrong), 0
    except (ValueError, KeyError, TypeError) as bad:  # unparseable output
        return f"unreadable output: {type(bad).__name__}: {bad}"[:300], 0


def percentile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A mean of all order statistics, weighted by the beta density of the
    quantile's position (taken at each statistic's midpoint), so that an
    estimate falling in a gap between two clusters of costs moves smoothly
    with the sample instead of jumping across the gap.
    """
    n = len(sorted_values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


def _label(argv: list[str]) -> str:
    """argv with long integers shortened to their leading digits and length."""
    return " ".join(a if len(a) <= 24 else f"{a[:12]}...({len(a)} digits)" for a in argv)


class Tally:
    """Operation times, rows, output sizes and failures of one kind of execution."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.rows = 0
        self.bytes_out = 0
        self.input_digits = 0
        self.failures: list[str] = []
        self.labels: list[str] = []

    def add(self, op, ref, result) -> None:
        seconds, rc, out, err, exc = result
        self.times.append(seconds)
        self.labels.append(_label(op.argv))
        self.bytes_out += len(out)
        self.input_digits += sum(len(a) for a in op.argv if a.isdigit())
        failure, rows = judge(op, ref, rc, out, err, exc)
        self.rows += rows
        if failure is not None:
            self.failures.append(f"{_label(op.argv)}: {failure}")


def run_untraced(blocks, ref, seconds: float, setup: SetupTimer,
                 probe: SpeedProbe) -> tuple[Tally, int]:
    from almost_squares.cli import main

    tally = Tally()
    used = 0
    for block in blocks:
        for op in block:
            probe.before(len(tally.times))
            result = call(main, op.argv)
            probe.after(result[0])
            tally.add(op, ref, result)
        used += 1
        elapsed = sum(tally.times)
        if elapsed >= seconds:
            break
        setup.between_blocks(elapsed)
    probe.finish(len(tally.times))
    return tally, used


def run_traced(blocks, ref, seconds: float, tracer) -> tuple[Tally, Tally, int]:
    """Run each block untraced and traced, alternating which goes first."""
    from almost_squares.cli import main
    from tracing import ROOT_SPAN

    plain, traced = Tally(), Tally()

    def plain_pass(block) -> None:
        for op in block:
            plain.add(op, ref, call(main, op.argv))

    def traced_pass(block) -> None:
        with tracer.installed():
            traced_main = tracer.wrap(ROOT_SPAN, main)
            for op in block:
                tracer.op += 1
                result = call(traced_main, op.argv)
                tracer.end_op()
                traced.add(op, ref, result)

    used = 0
    for block in blocks:
        for one_pass in (plain_pass, traced_pass) if used % 2 == 0 else (traced_pass, plain_pass):
            one_pass(block)
        used += 1
        if sum(plain.times) + sum(traced.times) >= seconds:
            break
    return plain, traced, used


def metadata(args, tail_p: float | None, samples: int, blocks_used: int, pool: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "tail_percentile": tail_p,
        "latency_samples": samples,
        "blocks_run": blocks_used,
        "blocks_generated": pool,
        "blocks_exhausted": blocks_used == pool,
    }


@dataclass
class Measured:
    """What one run measured, in the shape the report and the record need."""

    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failures: list[str]
    blocks_used: int
    samples: int
    tail_p: float | None = None
    notes: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)


def time_metrics(times: list[float], rows: int, tail_p: float) -> dict[str, float]:
    times = sorted(times)
    total = sum(times)
    return {
        "ops_per_s": len(times) / total,
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_tail_ms": percentile(times, tail_p) * 1e3,
        "rows_per_s": rows / total,
    }


def measure_untraced(blocks, ref, seconds: float, setup: SetupTimer,
                     bigint: bool) -> Measured:
    probe = SpeedProbe(bigint)
    tally, used = run_untraced(blocks, ref, seconds, setup, probe)
    n = len(tally.times)
    scales = probe.scales()
    scaled = [t * k for t, k in zip(tally.times, scales)]
    tail_p = tail_percentile(n)
    metrics = {"setup_s": setup.median(), **time_metrics(scaled, tally.rows, tail_p),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    wall = time_metrics(tally.times, tally.rows, tail_p)
    return Measured(
        metrics, END_TO_END_UNITS, n, tally.failures, used, n, tail_p,
        notes=[f"op_tail_ms is p{tail_p:g} of {n} operations; "
               f"{tally.rows} rows in {sum(tally.times):.3f} s of operation time",
               f"times are at the reference speed (speed.py); host speed was "
               f"{statistics.median(scales):.3f} of it; as wall time: "
               + ", ".join(f"{name} {value:.6g}" for name, value in wall.items())],
        record={"setup_samples_s": setup.samples, "wall_metrics": wall,
                "kernel_samples": probe.samples,
                "operations": list(zip(tally.labels, tally.times, scaled))})


def measure_traced(blocks, ref, seconds: float, spans_path: Path) -> Measured:
    from tracing import Tracer

    tracer = Tracer(spans_path)
    try:
        plain, traced, used = run_traced(blocks, ref, seconds, tracer)
    finally:
        tracer.close()
    overhead = sum(traced.times) / sum(plain.times) - 1
    return Measured(
        tracer.per_layer(len(traced.times), traced.bytes_out, traced.input_digits),
        PER_LAYER_UNITS, len(plain.times) + len(traced.times),
        plain.failures + traced.failures, used, len(traced.times),
        notes=[f"tracing overhead {overhead * 100:.1f}% ({sum(traced.times):.3f} s traced / "
               f"{sum(plain.times):.3f} s untraced over the same {len(traced.times)} "
               f"operations); spans in {spans_path.name}"],
        record={"tracing_overhead": overhead, "spans": tracer.span_count})


def main(argv: list[str] | None = None) -> int:
    _import_package()
    from reference import ORACLE_LIMIT, Reference
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Layered benchmark for almost-squares.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup = None if args.trace else SetupTimer(workload.imports, args.seconds)
    for name in workload.imports:
        __import__(name)
    sys.set_int_max_str_digits(0)  # inputs and answers run to tens of thousands of digits
    ref = None
    if workload.needs_oracle:
        from almost_squares.oracle import brute_record_set

        ref = Reference(brute_record_set(ORACLE_LIMIT))
    rng = random.Random(args.seed)
    blocks = workload.make_blocks(rng, ROOT, workload.pool_blocks)
    probes = workload.probes(rng) if workload.probes else []
    gc.collect()
    gc.freeze()  # keep the harness's own objects out of the program's collections

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        run = measure_traced(blocks, ref, args.seconds, OUT_DIR / f"{args.workload}.spans.csv.gz")
    else:
        run = measure_untraced(blocks, ref, args.seconds, setup, workload.bigint_kernel)

    probe_failures = []
    for op in probes:
        _, rc, out, err, exc = call(sys.modules["almost_squares.cli"].main, op.argv)
        failure, _ = judge(op, ref, rc, out, err, exc)
        if failure is not None:
            probe_failures.append(f"{_label(op.argv)}: {failure}")
    error_rate = (len(run.failures) + len(probe_failures)) / (run.attempted + len(probes))
    meta = metadata(args, run.tail_p, run.samples, run.blocks_used, len(blocks))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in run.units.items()},
    }
    record = dict(run.record, result=result, meta=meta, failures=run.failures,
                  probe_failures=probe_failures, probes_attempted=len(probes),
                  error_rate=error_rate)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    width = max(map(len, run.units))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, unit in run.units.items():
        print(f"{name:<{width}}  {run.metrics[name]:.6g} {unit}")
    for note in run.notes:
        print(note)
    print(f"error_rate {error_rate:.6g}: {len(run.failures)}/{run.attempted} operations failed, "
          f"known-defect probes {len(probe_failures)}/{len(probes)} failed")
    for failure in (run.failures + probe_failures)[:10]:
        print(f"  failed: {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
