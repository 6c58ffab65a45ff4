"""liecurv benchmark: long transports, a CLI request stream, and a traced breakdown.

Run from the repository root:

    python3 benchmarks/run.py --workload flat-long --seed 1 --seconds 30 --trace 0

Workloads (defined, with the reason each exists, in ``workloads.py``):

* ``flat-long``   long transports under the flat forms, plus transport_quat;
* ``sphere-long`` long transports under the sphere-rolling forms, plus
  unit-sphere sections through verify.lift_transport;
* ``cli-mix``     a seeded stream of short requests through liecurv.cli.main.

Load comes from this one process and thread in a closed loop: each
operation is issued after the previous one returned. A run repeats whole
passes over the seeded operation list until ``--seconds`` have elapsed
(always at least one pass) and checks every result against its closed
form. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and any failures.

A shared host changes speed by tens of percent, at times twofold, within
seconds and between minutes. Two things keep the figures steady: every
wall time is scaled to a reference host speed measured by a calibration
kernel run between calls (``HostClock``), and each operation counts at
its median time over the run's passes (each is issued once per pass, see
``run_passes``). End-to-end metrics (``--trace 0``):

* ``setup_s``: median over fresh interpreters of the wall time from their
  start to the first timed operation (import liecurv.cli, build inputs and
  references, one warm-up operation);
* ``steps_per_s``: integration intervals per second over the fixed-step cases;
* ``tol_solve_s``: median time of one equal-error solve (the default
  method, steps doubling from 64 until within 1e-7 of the closed form);
* ``requests_per_s``, ``request_ms.p50``, ``request_ms.p95``: throughput
  and nearest-rank latency quantiles over the operations other than the
  equal-error solves (CLI requests on cli-mix, whole transports
  elsewhere);
* ``fail_rate``: failures per attempted operation, each pass adding half a
  failure and one operation, (failed + passes / 2) / (attempted + passes),
  so the rate is never 0 and one new failure moves it by a large factor;
* ``peak_rss_mb``: peak resident memory of this process.

``correct`` is false when an operation with a valid input got a wrong
answer, or when a CLI request's stdout differed between two issues of it.
Requests that the exit-code contract says must be refused (exit 1, empty
stdout) but are not count in ``failed`` and ``fail_rate`` only: the mix
keeps the ones the program mishandles.

``--trace 1`` first runs untraced passes for half the time, then installs
the tracer (``tracing.py``) and runs traced passes; it prints the per-layer
table and reports per-layer counts and self times for one pass, plus
``trace.overhead_frac`` = 1 - traced throughput / untraced throughput.

Held-out seed: 20261017. Tune and develop on other seeds; confirm a claimed
gain on this one.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools to one thread before numpy loads; probes inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def _import_library():
    """Import liecurv from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import liecurv.cli  # noqa: F401

    import liecurv

    if Path(liecurv.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"liecurv was imported from {liecurv.__file__}, not from {src}")


def _setup(workload: str, seed: int):
    import workloads

    wl = workloads.build(workload, seed)
    wl.warmup()
    return wl


CAL_ITERATIONS = 150
CAL_REF_S = 0.005  # kernel time that defines the reference host speed
KERNEL_EVERY_S = 0.1
KERNEL_SHARE = 0.1
WINDOW_S = 1.0


def calibration_kernel() -> float:
    """Fixed work shaped like the program's: a Python loop over 3-vector and 3x3 numpy operations."""
    v = np.array([0.3, -0.2, 0.5])
    M = np.eye(3)
    for _ in range(CAL_ITERATIONS):
        th = float(np.linalg.norm(v))
        K = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        M = (np.eye(3) + (np.sin(th) / th) * K + ((1.0 - np.cos(th)) / (th * th)) * (K @ K)) @ M
        v = np.cross(v, M[0]) + v
        v = v / np.linalg.norm(v)
    return float(M[0, 0])


class HostClock:
    """Wall time scaled to a reference host speed.

    A shared host changes speed by tens of percent, at times twofold, over
    seconds to minutes, for every process on it alike. So a fixed
    calibration kernel (this file's code, not the program's) runs between
    timed calls, at least every KERNEL_EVERY_S and after a long call for
    KERNEL_SHARE of its time, and a call's wall time is multiplied by
    CAL_REF_S over the median kernel time within WINDOW_S of the call:
    times read as if the host ran at the speed where the kernel takes
    CAL_REF_S. Raw wall times are kept for the record.
    """

    def __init__(self):
        self.kernel_t: list[float] = []  # midpoints of kernel runs, increasing
        self.kernel_s: list[float] = []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.kernel_t.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)

    def timer(self, calls: list):
        """A ``timed(fn)`` that runs fn and appends its (start, end) to ``calls``."""

        def timed(fn):
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                t1 = time.perf_counter()
                calls.append((t0, t1))
                # sample at least every KERNEL_EVERY_S, and for KERNEL_SHARE of a long call's time
                budget = KERNEL_SHARE * (t1 - t0)
                while t1 - self.kernel_t[-1] >= KERNEL_EVERY_S or budget > 0.0:
                    self.sample()
                    budget -= self.kernel_s[-1]

        return timed

    def scaled(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.kernel_t, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.kernel_t, t1 + WINDOW_S)
        return (t1 - t0) * CAL_REF_S / statistics.median(self.kernel_s[lo:hi])


def probe_setup_s(host: HostClock, workload: str, seed: int) -> float:
    """Median scaled wall time, over fresh interpreters, from start to ready-to-time."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--probe"]
    for _ in range(SETUP_PROBES):
        host.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        host.sample()
        times.append(host.scaled(t0, t1))
    return statistics.median(times)


class Results:
    """Timings and check outcomes of every operation issued in a run."""

    def __init__(self, ops, host: HostClock):
        self.ops = ops
        self.host = host
        self.issues: list[tuple[int, list, int]] = []  # (op index, timed calls, pass index)
        self.failed = 0
        self.wrong = 0  # failures of operations with valid input
        self.reasons: dict[str, int] = {}
        self._outputs: dict[tuple, tuple] = {}

    def add(self, index, calls, result, error, pass_index):
        op = self.ops[index]
        self.issues.append((index, calls, pass_index))
        reason = error
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as e:  # a malformed result is a failed check
                reason = f"check raised {type(e).__name__}: {e}"
        if reason is None and op.argv is not None:
            if self._outputs.setdefault(op.argv, result) != result:
                reason = "stdout differs from an earlier issue of the same request"
        if reason is not None:
            self.failed += 1
            self.wrong += not op.must_refuse
            tag = f"{op.label}: {reason}"
            self.reasons[tag] = self.reasons.get(tag, 0) + 1

    def typical(self, passes=None) -> dict[int, float]:
        """Median scaled time of each operation over the given pass indices."""
        per_op: dict[int, list[float]] = {}
        for i, calls, p in self.issues:
            if passes is None or p in passes:
                per_op.setdefault(i, []).append(sum(self.host.scaled(t0, t1) for t0, t1 in calls))
        return {i: statistics.median(v) for i, v in per_op.items()}

    def wall_s(self, passes) -> tuple[float, float]:
        """Raw and scaled time of the timed calls in the given passes."""
        calls = [c for _, cs, p in self.issues if p in passes for c in cs]
        return sum(t1 - t0 for t0, t1 in calls), sum(self.host.scaled(*c) for c in calls)


def run_passes(results: Results, seconds: float, first_pass: int = 0) -> int:
    """Whole passes until ``seconds`` have elapsed; returns the pass count.

    A pass issues every operation once, except that the equal-error solves
    take turns, one per pass; every solve runs at least once.
    """
    host, ops = results.host, results.ops
    ladders = [i for i, op in enumerate(ops) if op.ladder]
    start = time.perf_counter()
    passes = 0
    while passes < max(1, len(ladders)) or time.perf_counter() - start < seconds:
        turn = ladders[(first_pass + passes) % len(ladders)] if ladders else None
        host.sample()
        for i, op in enumerate(ops):
            if op.ladder and i != turn:
                continue
            error = result = None
            calls: list = []
            try:
                result = op.run(host.timer(calls))
            except (Exception, SystemExit) as e:  # the program failed this operation
                error = f"raised {type(e).__name__}: {e}"
            results.add(i, calls, result, error, first_pass + passes)
        passes += 1
    host.sample()
    return passes


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[k - 1]


def end_to_end(results: Results, passes: int, setup_s: float) -> dict[str, float]:
    ops, typical = results.ops, results.typical()
    fixed = [i for i in typical if ops[i].intervals]
    requests = [typical[i] for i in typical if not ops[i].ladder]
    # the solves of one workload all stop at the same step count
    solves = [sum(results.host.scaled(*c) for c in calls) for i, calls, _ in results.issues if ops[i].ladder]
    attempted = len(results.issues)
    return {
        "setup_s": setup_s,
        "steps_per_s": sum(ops[i].intervals for i in fixed) / sum(typical[i] for i in fixed),
        "tol_solve_s": statistics.median(solves),
        "requests_per_s": len(requests) / sum(requests),
        "request_ms.p50": 1e3 * _nearest_rank(requests, 0.50),
        "request_ms.p95": 1e3 * _nearest_rank(requests, 0.95),
        "fail_rate": (results.failed + 0.5 * passes) / (attempted + passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric names and units declared in BENCHMARK.json (``end_to_end`` or ``per_layer``)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("flat-long", "sphere-long", "cli-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        _import_library()
    except ImportError as e:
        print(f"benchmark: cannot import liecurv from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    if args.probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    host = HostClock()
    setup_s = None if args.trace else probe_setup_s(host, args.workload, args.seed)
    wl = _setup(args.workload, args.seed)
    results = Results(wl.ops, host)
    print(json.dumps({"env": environment(), "workload": wl.name, "seed": args.seed,
                      "operations_per_pass": len(wl.ops)}))

    if not args.trace:
        passes = run_passes(results, args.seconds)
        metrics = end_to_end(results, passes, setup_s)
        units = declared_metrics("end_to_end")
    else:
        import tracing

        plain = run_passes(results, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(results, args.seconds / 2, first_pass=plain)
        finally:
            tracer.uninstall()
        raw, scaled = results.wall_s(range(plain, plain + traced))
        untraced_s = sum(results.typical(range(plain)).values())
        traced_s = sum(results.typical(range(plain, plain + traced)).values())
        print(f"per-layer breakdown, {wl.name}, seed {args.seed}, per pass over {traced} traced pass(es):")
        # span times are wall times: scale them like the traced passes' calls
        print(tracer.table(traced, raw, scaled / raw))
        metrics = tracer.metrics(traced, 1.0 - untraced_s / traced_s, scaled / raw)
        units = declared_metrics("per_layer")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    passes_run = range(1 + max(p for _, _, p in results.issues))
    raw, scaled = results.wall_s(passes_run)
    print(json.dumps({"passes": len(passes_run), "timed_raw_s": raw, "timed_scaled_s": scaled,
                      "calibration_kernel_median_s": statistics.median(host.kernel_s)}))
    for reason, count in sorted(results.reasons.items()):
        print(f"failure x{count}: {reason}")
    print(json.dumps({
        "correct": results.wrong == 0,
        "attempted": len(results.issues),
        "failed": results.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
