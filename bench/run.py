"""Benchmark runner: one workload, one process, one caller, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``. The next operation starts when the previous one returns. With
``--trace 0`` the workload's pass (its fixed list of operations) is
repeated while another pass fits in ``--seconds``, and the end-to-end
metrics are printed. With ``--trace 1`` one untraced pass is followed
by one traced pass, and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's environment and details. Nothing is pinned and no
machine setting is changed: the environment is only read from /proc.

End-to-end times are scaled to a nominal machine speed. On a shared
virtual machine the speed of the same work drifts by 20-40 % within a
minute, which would swamp any change to the engine. So a fixed
exact-arithmetic reference is timed every 0.2 s of CPU time, also in the
middle of a long operation, and each operation's time (less the time
spent on the reference) is multiplied by the nominal reference time over
the reference times measured during it and within 2 s of it. The
unscaled metrics are printed on the summary line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SETUP_REPEATS = 5
NOTE = "nothing pinned; no machine setting changed; environment read-only from /proc"

# The reference's time at nominal speed (close to its median on the 2-vCPU
# Xeon VM the benchmark was tuned on), how often it is sampled (in CPU
# time), and how far around an operation its samples count.
REFERENCE_NOMINAL_S = 0.0035
SAMPLE_EVERY_S = 0.2
SPEED_WINDOW_S = 2.0
_HILBERT = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(6)]


def reference() -> None:
    """Fixed exact Gauss-Jordan elimination of a 6x9 Hilbert block, twice:
    the engine's kind of work, in code the engine does not share."""
    for _ in range(2):
        rows = [row[:] for row in _HILBERT]
        for c in range(len(rows)):
            inv = 1 / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
            for r in range(len(rows)):
                if r != c:
                    f = rows[r][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


class Speedometer:
    """Reference timings taken through a run, to scale times to nominal speed.

    Once started, a CPU-time interval timer (SIGVTALRM) takes a sample
    every ``SAMPLE_EVERY_S``, wherever the program is. ``spent`` is the
    total time the samples took, so callers can take it out of a timing.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t = time.perf_counter()
        reference()
        d = time.perf_counter() - t
        self.times.append(t)
        self.durations.append(d)
        self.spent += d

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scale(self, start: float, end: float) -> float:
        """Nominal over measured reference time, from samples around [start, end]."""
        lo = bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect_right(self.times, end + SPEED_WINDOW_S)
        window = self.durations[lo:hi] or [self.durations[min(lo, len(self.durations) - 1)]]
        return REFERENCE_NOMINAL_S / statistics.median(window)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass(frozen=True)
class OpResult:
    name: str
    verdict: str | None
    start: float
    latency: float
    status: str  # "ok" | "timeout" | "error"
    passed: bool
    observed: str


@dataclass(frozen=True)
class Pass:
    results: list[OpResult]
    elapsed: float  # including the gates

    @property
    def wall(self) -> float:
        return sum(r.latency for r in self.results)


def run_op(op, limit: float, tracer=None, index: int = -1, speed: Speedometer | None = None) -> OpResult:
    """Time one call (with a time limit), then gate its output untimed."""
    op.prepare()
    if tracer is not None:
        tracer.op = index
    out, status = None, "ok"
    spent = speed.spent if speed else 0.0
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except Exception as exc:  # a crash in the engine counts as a failed operation
        status = f"error: {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0 - ((speed.spent - spent) if speed else 0.0)
    if tracer is not None:
        tracer.op = None
    passed, observed = False, status
    if status == "ok":
        try:
            passed, observed = op.check(out)
        except Exception as exc:  # a malformed output fails its gate
            observed = f"gate error: {type(exc).__name__}: {exc}"
    return OpResult(op.name, op.verdict, t0, latency, status, passed, observed)


def run_pass(ops, limit: float, speed: Speedometer) -> Pass:
    start = time.perf_counter()
    results = [run_op(op, limit, speed=speed) for op in ops]
    return Pass(results, time.perf_counter() - start)


def run_traced_pass(ops, limit: float, tracer) -> tuple[Pass, Pass]:
    """Each operation untraced, then traced, so drift in machine speed
    affects both sides of the overhead ratio alike."""
    start = time.perf_counter()
    plain, traced = [], []
    for index, op in enumerate(ops):
        plain.append(run_op(op, limit))
        tracer.install()
        try:
            traced.append(run_op(op, limit, tracer, index))
        finally:
            tracer.remove()
    elapsed = time.perf_counter() - start
    return Pass(plain, elapsed), Pass(traced, elapsed)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def loadavg() -> list[str]:
    return _read("/proc/loadavg").split()[:3]


def environment() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "python": platform.python_version()}


def end_to_end(passes: list[Pass], setup_s: float, scale) -> dict:
    """The metrics, with each operation's time multiplied by ``scale(result)``.

    Latency percentiles are taken over operations, each at its median over
    the passes, so a host stall that hits one call of a short operation
    does not reach the tail.
    """
    times = [[r.latency * scale(r) for r in p.results] for p in passes]
    verdicts = [r.verdict for r in passes[0].results]

    def median_wall(verdict=None) -> float:
        return statistics.median(
            sum(t for t, v in zip(ts, verdicts) if verdict in (None, v)) for ts in times
        )

    latencies = [statistics.median(op_times) for op_times in zip(*times)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_wall(), "s"),
        "problems_per_s": (len(verdicts) / median_wall(), "1/s"),
        "feasible_wall_s": (median_wall("feasible"), "s"),
        "infeasible_wall_s": (median_wall("infeasible"), "s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p99_ms": (1000 * statistics.quantiles(latencies, n=100, method="inclusive")[98], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, overhead: float) -> dict:
    calls, total, own = tracer.layer_totals()
    counts = tracer.counts
    pivots = counts["simplex.pivots"]
    return {
        "feasibility.decide.calls": (calls["feasibility.decide"], "count"),
        "feasibility.decide.self_s": (own["feasibility.decide"], "s"),
        "feasibility.monomial_value.calls": (counts["feasibility.monomial_value.calls"], "count"),
        "feasibility.verify_certificate.calls": (calls["feasibility.verify_certificate"], "count"),
        "feasibility.verify_certificate.s": (total["feasibility.verify_certificate"], "s"),
        "feasibility.oracle.calls": (calls["feasibility.oracle"], "count"),
        "feasibility.oracle.self_s": (own["feasibility.oracle"], "s"),
        "simplex.solve.calls": (calls["simplex.solve"], "count"),
        "simplex.solve.s": (total["simplex.solve"], "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.us_per_pivot": (1e6 * total["simplex.solve"] / pivots if pivots else 0.0, "us"),
        "simplex.tableau_cells": (counts["simplex.tableau_cells"], "count"),
        "geometry.cone_membership.calls": (calls["geometry.cone_membership"], "count"),
        "geometry.cone_membership.s": (total["geometry.cone_membership"], "s"),
        "geometry.dual_rays.calls": (calls["geometry.dual_rays"], "count"),
        "geometry.dual_rays.s": (total["geometry.dual_rays"], "s"),
        "geometry.generators": (counts["geometry.generators"], "count"),
        "geometry.rays": (counts["geometry.rays"], "count"),
        "inequalities.eval.calls": (calls["inequalities.eval"], "count"),
        "inequalities.eval.s": (total["inequalities.eval"], "s"),
        "inequalities.eval_surd.calls": (calls["inequalities.eval_surd"], "count"),
        "inequalities.eval_surd.s": (total["inequalities.eval_surd"], "s"),
        "hidden_variable.construct.s": (total["hidden_variable.construct"], "s"),
        "hidden_variable.verify_factorization.calls": (calls["hidden_variable.verify_factorization"], "count"),
        "hidden_variable.verify_factorization.s": (total["hidden_variable.verify_factorization"], "s"),
        "files.load_problem_file.s": (total["files.load_problem_file"], "s"),
        "files.render_report.s": (total["files.render_report"], "s"),
        "files.report_bytes": (counts["files.report_bytes"], "count"),
        "cli.self_s": (own["cli.run"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def import_engine() -> float:
    """Time a fresh import of the whole engine, as the command line loads it.

    The first import also loads numpy; later ones reload only the engine's
    own modules, so the median leaves out the one-off cold start."""
    for name in [m for m in sys.modules if m == "jointfeas" or m.startswith("jointfeas.")]:
        del sys.modules[name]
    t = time.perf_counter()
    importlib.import_module("jointfeas.cli")
    return time.perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread in this process; numpy is imported below
    load_start = loadavg()
    speed = Speedometer()
    for _ in range(5):
        speed.sample()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_times = [import_engine() for _ in range(SETUP_REPEATS)]
        import numpy
        import jointfeas.cli
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the engine from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = statistics.median(import_times)
    if not Path(jointfeas.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: jointfeas was imported from {jointfeas.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, limit = workloads.WORKLOADS[args.workload]

    workdir = WORK_DIR / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t = time.perf_counter()
        ops = build(args.seed, workdir)
        setup_times.append(time.perf_counter() - t)
    setup_raw = import_s + statistics.median(setup_times)
    setup_end = time.perf_counter()
    for _ in range(5):
        speed.sample()
    setup_s = setup_raw * speed.scale(t0, setup_end)

    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    details: dict = {}
    raw: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = run_traced_pass(ops, limit, tracer)
        passes = [plain, traced]
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans_path)
        reproduced = [r.observed for r in traced.results] == [r.observed for r in plain.results]
        metrics = per_layer(tracer, traced.wall / plain.wall)
        details = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
                   "verdicts_reproduced": reproduced}
    else:
        reproduced = True
        speed.start()  # not in trace mode: samples inside spans would distort them
        passes = [run_pass(ops, limit, speed)]
        while time.perf_counter() - start + passes[-1].elapsed <= args.seconds:
            passes.append(run_pass(ops, limit, speed))
        speed.stop()
        metrics = end_to_end(passes, setup_s, lambda r: speed.scale(r.start, r.start + r.latency))
        raw = {name: value for name, (value, _) in end_to_end(passes, setup_raw, lambda r: 1.0).items()}

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if not r.passed]
    incorrect = [r for r in failed if r.status != "timeout"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "operations_per_pass": len(ops),
        "latency_samples": len(ops),
        "failed_ratio": len(failed) / len(results),
        "failures": [(r.name, r.status, r.observed) for r in failed[:10]],
        "time_limit_s": limit,
        "setup_import_s": import_times,
        "setup_build_s": setup_times,
        "unscaled_metrics": raw,
        "speed_samples": len(speed.durations),
        "reference_median_s": statistics.median(speed.durations),
        "measured_s": time.perf_counter() - start,
        "environment": {**environment(), "numpy": numpy.__version__,
                        "loadavg_start": load_start, "loadavg_end": loadavg()},
        "note": NOTE,
        **details,
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not incorrect and reproduced,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
