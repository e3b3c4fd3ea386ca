"""cliffsim benchmark: closed-loop CLI jobs, untraced end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in this process calls ``cliffsim.cli.main(argv)`` job after job
(a closed loop: the next job starts when the previous one returns), with
reports written to a scratch directory inside the checkout.  Every job
passes the correctness gate in ``gate.py`` or counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of ``pass_jobs`` jobs each and reports the
per-layer metrics of ``tracer.py``, per pass.  Human-readable lines come
first; the last line of stdout is one JSON object.  See README.md.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: at d <= 64 threads only add
# scheduler noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from gate import GateFailure, check_job
from tracer import EIGEN, LAYERS, Tracer
from workloads import WORKLOADS, Job, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 0        # jobs of this workload seed are compared with reference/
MIN_TIMED_JOBS = 100    # so job_s.p90 has at least ten jobs beyond it
MAX_MEASURE_S = 60.0    # hard stop for the measuring loop, whatever the job count
SETUP_REPEATS = 24     # fresh interpreters per run, half before and half after the loop

# Speed calibration.  On a shared host the same job's wall time swings by up
# to 2x with the neighbours' load, in bursts of a few seconds; raw per-run
# p50/p90 spread by 10-43% (IQR/median) over five runs.  A fixed kernel of
# the same kind of work (calkernel.py) slows with it, so every job's time is
# scaled by REF_CAL_S over the mean kernel time just before and just after
# that job.  Job times are thus seconds at the kernel speed of REF_CAL_S.
REF_CAL_S = 7.0e-4
CAL_WARMUP = 20

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (function, metrics) read from the tracer's per-function summary.
FUNCTION_METRICS = (
    (EIGEN, ("calls", "self_s")),
    ("linalg.expm_i", ("calls", "self_s")),
    ("linalg.spectral_norm", ("calls", "self_s")),
    ("linalg.hermiticity_defect", ("calls",)),
    ("linalg.tensor", ("calls", "self_s")),
    ("clifford.omega_count_dense", ("self_s",)),
    ("clifford.gram_rank", ("self_s",)),
    ("clifford.Blade.dense", ("calls",)),
    ("cqp.encode", ("calls", "self_s")),
    ("cqp.forward", ("calls", "self_s")),
    ("cqp.train", ("self_s",)),
    ("gqft.gqft_dense", ("calls", "self_s")),
    ("gqft.gqft_column_factored", ("calls", "self_s")),
    ("gqft.distance_report", ("self_s",)),
    ("trotter.error_sweep", ("calls", "self_s")),
    ("simulator.swap_test_circuit_probability", ("calls", "self_s")),
    ("simulator.swap_test_sampled", ("self_s",)),
    ("circuits.two_level_decompose", ("self_s",)),
    ("circuits.compile_unitary", ("self_s",)),
    ("cli.main", ("self_s",)),
)
EIGEN_EXTRAS = ("calls_d2", "calls_d4", "calls_d8", "calls_d16", "calls_d64", "repeat_frac")
UNITS = {"calls": "count", "self_s": "s", "errors": "count", "repeat_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        for kind in ("calls", "self_s", "errors"):
            units[f"{layer}.{kind}"] = UNITS[kind]
    for fn, kinds in FUNCTION_METRICS:
        for kind in kinds:
            units[f"{fn}.{kind}"] = UNITS[kind]
        if fn == EIGEN:
            for extra in EIGEN_EXTRAS:
                units[f"{fn}.{extra}"] = UNITS.get(extra, "count")
    units["cli.report_bytes"] = "bytes"
    units["trace_overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# running and gating one job

@dataclass
class JobResult:
    seconds: float          # wall time of cliffsim.cli.main
    failure: str | None
    report: str | None


class Runner:
    """Runs jobs through ``cli.main`` in the current directory and gates them."""

    def __init__(self, cli, references: list[dict] | None = None):
        self.cli = cli
        self.references = references or []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: Job) -> JobResult:
        out = Path("report.txt" if job.command == "decompose" else "report.csv")
        out.unlink(missing_ok=True)
        argv = [*job.argv, "--out", str(out)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback escaping main is a failed job, not a crash
                code = f"uncaught {type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        text = out.read_text() if out.is_file() else None
        reference = None
        failure = None
        if job.index < len(self.references):
            ref = self.references[job.index]
            if ref["argv"] != list(job.argv):
                failure = f"reference argv {ref['argv']} != job argv (stale reference file)"
            reference = ref["report"]
        if failure is None:
            try:
                check_job(argv, code, captured.getvalue(), text, reference)
            except GateFailure as exc:
                failure = str(exc)
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"job {job.index} ({' '.join(job.argv)}): {failure}")
        return JobResult(seconds, failure, text)


# ---------------------------------------------------------------------------
# the two modes

def time_imports(repeats: int, calibrate) -> list[tuple[float, float]]:
    """(wall, calibrated) seconds of ``import cliffsim.cli`` in fresh interpreters.

    Calibrated like job times, by the kernel times just before and after.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import cliffsim.cli; print(time.perf_counter() - t)")
    times = []
    before = calibrate.steady()
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        after = calibrate.steady()
        wall = float(proc.stdout.split()[-1])
        times.append((wall, wall * REF_CAL_S / ((before + after) / 2.0)))
        before = after
    return times


def pin_to_one_cpu() -> list[int]:
    """Bind this process, and so every process it starts, to one CPU.

    On a shared host each CPU is slowed by its own neighbours, so the
    calibration kernel only tracks the jobs' speed when both run on the
    same CPU.  The jobs are single-threaded, and BLAS is pinned to one
    thread, so this takes no parallelism they use away from them; a gain
    from running on more CPUs would not show.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))


class Calibrator:
    """Times the calibration kernel in a helper process, between jobs.

    The helper (calkernel.py) never imports cliffsim, and this process
    waits for its answer, so the kernel time follows the host's speed but
    not the benchmark process's own state.  The helper inherits this
    process's CPU binding.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "calkernel.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for _ in range(CAL_WARMUP):
            self()
        return self

    def __call__(self) -> float:
        """Seconds taken by one run of the kernel."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper ended early")
        return float(line)

    def steady(self) -> float:
        """Median of five kernel runs, for timings much longer than one."""
        return statistics.median(self() for _ in range(5))

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def untraced(workload: Workload, runner: Runner, seed: int, seconds: float, calibrate):
    cycle = len(workload.cycle)
    for index in range(cycle):  # warm-up cycle: gated, not timed
        runner.run(workload.job(seed, index))
    index = cycle
    wall, scaled, cals, passed = [], [], [calibrate()], 0
    t_start = perf_counter()
    while True:
        for _ in range(cycle):  # stop on whole cycles only, so the command mix is exact
            res = runner.run(workload.job(seed, index))
            index += 1
            cals.append(calibrate())
            wall.append(res.seconds)
            scaled.append(res.seconds * REF_CAL_S / ((cals[-2] + cals[-1]) / 2.0))
            passed += res.failure is None
        elapsed = perf_counter() - t_start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(wall) >= MIN_TIMED_JOBS):
            break
    n = len(scaled)
    metrics = {
        "job_s.p50": (statistics.median(scaled), n),
        "job_s.p90": (statistics.quantiles(scaled, n=10)[-1], n),
        "jobs_per_s": (passed / sum(scaled), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    notes = [
        f"uncalibrated wall clock: job p50 {statistics.median(wall):.6g} s, "
        f"p90 {statistics.quantiles(wall, n=10)[-1]:.6g} s, "
        f"{passed / elapsed:.6g} jobs/s over {elapsed:.3f} s of loop",
        f"calibration kernel: median {statistics.median(cals) * 1e3:.4g} ms, "
        f"mean {statistics.fmean(cals) * 1e3:.4g} ms, reference {REF_CAL_S * 1e3:.4g} ms, "
        f"n={len(cals)}",
    ]
    return metrics, notes


def traced(workload: Workload, runner: Runner, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes of ``pass_jobs`` new jobs each.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; self times are medians over all traced passes.
    """
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_ranges: list[tuple[int, int]] = []
    report_bytes = 0
    index = 0
    t_start = perf_counter()
    while True:
        for is_traced in (False, True):
            lo = tracer.span_count()
            wall = 0.0
            with tracer if is_traced else contextlib.nullcontext():
                for _ in range(workload.pass_jobs):
                    tracer.begin_job(index)
                    res = runner.run(workload.job(seed, index))
                    index += 1
                    wall += res.seconds
                    if is_traced and not traced_ranges and res.report is not None:
                        report_bytes += len(res.report.encode())
            walls[is_traced].append(wall)
            if is_traced:
                traced_ranges.append((lo, tracer.span_count()))
        elapsed = perf_counter() - t_start
        if elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break

    per_pass = [tracer.summarize(lo, hi) for lo, hi in traced_ranges]
    first, samples = per_pass[0], len(per_pass)

    def total(summary, prefix, kind):
        return sum(v[kind] for name, v in summary.items() if name.startswith(prefix))

    def median_self(prefix):
        return statistics.median(total(s, prefix, "self_s") for s in per_pass)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (total(first, f"{layer}.", "calls"), 1)
        metrics[f"{layer}.self_s"] = (median_self(f"{layer}."), samples)
        metrics[f"{layer}.errors"] = (total(first, f"{layer}.", "errors"), 1)
    for fn, kinds in FUNCTION_METRICS:
        for kind in kinds:
            if kind == "self_s":
                metrics[f"{fn}.self_s"] = (statistics.median(
                    s.get(fn, {}).get("self_s", 0.0) for s in per_pass), samples)
            else:
                metrics[f"{fn}.{kind}"] = (first.get(fn, {}).get(kind, 0), 1)
    for extra, value in tracer.eigen_summary(*traced_ranges[0]).items():
        metrics[f"{EIGEN}.{extra}"] = (value, 1)
    metrics["cli.report_bytes"] = (report_bytes, 1)
    metrics["trace_overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0, samples)
    notes = [f"{samples} traced and {len(walls[False])} untraced passes of "
             f"{workload.pass_jobs} jobs; counts from the first traced pass"]
    return metrics, notes


# ---------------------------------------------------------------------------
# environment and output

def environment(args, cpus: list[int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": cpus,
        "cpu_model": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_cli():
    sys.path.insert(0, str(SRC))
    import cliffsim
    import cliffsim.cli

    if not Path(cliffsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cliffsim imported from {cliffsim.__file__}, not from {SRC}")
    return cliffsim.cli


def load_references(name: str) -> list[dict]:
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text())["jobs"] if path.is_file() else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cliffsim" / "__init__.py").is_file():
        print(f"error: no cliffsim sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cpus = pin_to_one_cpu()

    with contextlib.ExitStack() as stack:
        calibrate = None if args.trace else stack.enter_context(Calibrator())
        setup = []
        if calibrate:  # one warm-up interpreter first, then half the repeats
            setup = time_imports(1 + SETUP_REPEATS // 2, calibrate)[1:]
        cli = import_cli()
        references = load_references(workload.name) if args.seed == DEFAULT_SEED else []
        runner = Runner(cli, references)
        scratch_parent = ROOT / ".bench_run"
        scratch_parent.mkdir(exist_ok=True)
        scratch = tempfile.mkdtemp(dir=scratch_parent)
        home = os.getcwd()
        os.chdir(scratch)
        try:
            if calibrate:
                measured, notes = untraced(workload, runner, args.seed, args.seconds, calibrate)
            else:
                measured, notes = traced(workload, runner, args.seed, args.seconds)
        finally:
            os.chdir(home)
            shutil.rmtree(scratch)
            with contextlib.suppress(OSError):
                scratch_parent.rmdir()
        if calibrate:
            setup += time_imports(SETUP_REPEATS - len(setup), calibrate)
            measured["setup_s"] = (statistics.median(c for _, c in setup), len(setup))
            notes.append(f"uncalibrated setup: median {statistics.median(w for w, _ in setup):.6g} s")

    units = per_layer_units() if args.trace else END_TO_END
    failed = len(runner.failures)
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"# workload {workload.name}: {workload.why}")
    for name, unit in units.items():
        value, samples = measured[name]
        print(f"{name:<46} {value:>16.6g} {unit:<6} n={samples}")
    print(f"{'failed_frac':<46} {failed / runner.attempted:>16.6g} {'ratio':<6} "
          f"n={runner.attempted}")
    for note in notes:
        print(f"# {note}")
    print("# env " + json.dumps(environment(args, cpus), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
