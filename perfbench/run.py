"""End-to-end benchmark of modelpot: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  One client in one process runs the workload's jobs one
at a time (a closed loop).  A first pass runs every job once; its outcomes
are checked against the theory table (``theory.py``).  Untraced, the loop
then runs every job twice more and gives every job an equal share of
the remaining time, so cheap jobs get many samples; it stops when the
next job would end after ``--seconds``.  Traced, it makes whole passes
instead, so that the counts are those of whole passes over the job list.

Each job runs between two runs of a fixed reference kernel, and every
time metric is given in units of that kernel's time (``ref``): a shared
2-vCPU Xeon host can switch between a fast and a ~1.8x slower speed for
minutes at a time, and the ratio cancels that.  The seconds are printed
beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layers' public functions (``tracing.py``) and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads before numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import dataclasses
import io
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
MIN_SAMPLES = 3      # per job and run, before time is shared out
MAX_SAMPLES = 25


def import_program():
    """Import modelpot from this checkout's sources, and from nowhere else."""
    package = SRC / "modelpot"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no modelpot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modelpot
    if Path(modelpot.__file__).resolve().parent != package:
        raise SystemExit(f"error: modelpot imported from {modelpot.__file__}")
    return modelpot


def measure_setup() -> float:
    """Median time for a fresh interpreter to start and import modelpot."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import modelpot"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> str:
    import numpy
    import scipy
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"nproc={NPROC} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas_threads={os.environ[BLAS_VARS[0]]} loadavg={load}")


def serialize(result) -> bytes:
    """Deterministic bytes of a direct call's result dataclass."""
    parts = []
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        raw = value.tobytes() if hasattr(value, "tobytes") \
            else repr(value).encode()
        parts.append(field.name.encode() + b"=" + raw)
    return b"\n".join(parts)


def reference_kernel() -> float:
    """Wall time of a fixed ~2 ms mix of the kinds of work the program
    does: adaptive quadrature of Python integrands, one of them nested,
    small-array numpy arithmetic and a Python loop.  Nothing in the
    program touches it."""
    import math

    import numpy as np
    from scipy.integrate import quad

    def oscillating(x):
        return math.exp(-0.05 * x) * math.sin(20.0 * x)

    def inner(y):
        return quad(lambda x: math.exp(-x * y), 0.0, 1.0)[0]
    t0 = time.perf_counter()
    quad(oscillating, 0.0, 30.0, limit=200)
    quad(inner, 1.0, 3.0)
    quad(inner, 2.0, 5.0)
    v = np.linspace(0.0, 1.0, 200)
    for _ in range(100):
        v = np.maximum(np.sqrt(v * v + 1e-3), 0.5 * v)
    acc = 0
    for i in range(6000):
        acc += i * i
    return time.perf_counter() - t0


def run_job(job, out_path):
    """Run one job; returns (latency in s, Outcome).  A job that raises is
    recorded as failed, and the pass goes on."""
    from modelpot import cli
    t0 = time.perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(job.argv + ["--out", str(out_path)])
            latency = time.perf_counter() - t0
            data = out_path.read_bytes() if out_path.exists() else b""
            out_path.unlink(missing_ok=True)
            return latency, Outcome(code, data, error=err.getvalue().strip())
        result = job.call()
        latency = time.perf_counter() - t0
        return latency, Outcome(0, serialize(result), result)
    except Exception as exc:  # noqa: BLE001 -- a failed job, reported below
        latency = time.perf_counter() - t0
        return latency, Outcome(-1, b"", error=f"{type(exc).__name__}: {exc}")


@dataclasses.dataclass
class Sample:
    latency: float      # s
    cpu: float          # s of process CPU time
    ref: float          # s, the reference kernel's mean time around it
    code: int
    digest: str
    output_bytes: int


class Loop:
    """The closed loop's record: every job's samples in the order run, and
    the per-pass layer summaries of a traced run."""

    def __init__(self, jobs, workdir, tracer=None):
        self.jobs, self.workdir, self.tracer = jobs, workdir, tracer
        self.samples = [[] for _ in jobs]
        self.first = [None] * len(jobs)   # outcomes of the first pass
        self.pass_walls, self.layers = [], []
        self.ref_before = reference_kernel()

    def run(self, i):
        cpu0 = time.process_time()
        latency, outcome = run_job(self.jobs[i],
                                   self.workdir / f"out-{i}.csv")
        cpu = time.process_time() - cpu0
        ref_after = reference_kernel()
        ref = 0.5 * (self.ref_before + ref_after)
        self.ref_before = ref_after
        self.samples[i].append(Sample(latency, cpu, ref, outcome.code,
                                      outcome.digest(), len(outcome.data)))
        if self.first[i] is None:
            self.first[i] = outcome

    def run_pass(self):
        wall0 = time.perf_counter()
        for i in range(len(self.jobs)):
            self.run(i)
        self.pass_walls.append(time.perf_counter() - wall0)
        if self.tracer is not None:
            self.layers.append(self.tracer.summary())
            self.tracer.reset()


def run_loop(jobs, seconds, workdir, tracer=None) -> Loop:
    """The closed loop: one pass, then (untraced) two more samples of every
    job and an equal share of the remaining time per job, or (traced)
    whole passes, until the next job or pass would end after
    ``seconds``."""
    loop = Loop(jobs, workdir, tracer)
    deadline = time.perf_counter() + seconds
    loop.run_pass()
    if tracer is not None:
        while time.perf_counter() + statistics.median(loop.pass_walls) \
                <= deadline:
            loop.run_pass()
        return loop
    while True:
        open_jobs = [i for i, s in enumerate(loop.samples)
                     if len(s) < MAX_SAMPLES]
        if not open_jobs:
            return loop
        i = min(open_jobs, key=lambda i: (
            len(loop.samples[i]) >= MIN_SAMPLES,
            sum(x.latency for x in loop.samples[i])))
        expected = statistics.median(x.latency for x in loop.samples[i])
        if time.perf_counter() + expected > deadline:
            return loop
        loop.run(i)


def judge(jobs, loop):
    """Per job: None if it agrees with the theory table and repeats
    byte-identically, else the reason.  Returns (reasons, unexpected)."""
    reasons, unexpected = [], []
    for i, job in enumerate(jobs):
        outcome = loop.first[i]
        if outcome.code == -1:
            reason = f"raised {outcome.error}"
        else:
            try:
                reason = job.check(outcome)
            except Exception as exc:  # noqa: BLE001 -- unreadable output
                reason = f"output unreadable ({type(exc).__name__}: {exc})"
            if reason and outcome.error:
                reason += f" [{outcome.error.splitlines()[-1][:120]}]"
        repeats = {(s.code, s.digest) for s in loop.samples[i]}
        if len(repeats) > 1:
            reason = "output differs between samples"
            unexpected.append(True)
        else:
            unexpected.append(reason is not None and job.defect is None)
        reasons.append(reason)
    return reasons, unexpected


def per_job_medians(loop, field, unit="ref"):
    """Each job's median latency (``field="latency"``) or CPU time
    (``"cpu"``) over its samples, in seconds or in reference-kernel
    times."""
    return [statistics.median(
        getattr(x, field) / (x.ref if unit == "ref" else 1.0) for x in s)
        for s in loop.samples]


def latency_stats(per_job):
    """Median and the highest percentile with ``TAIL_BEYOND`` jobs beyond
    it, over the per-job median latencies (one sample per job, so the rank
    does not move with the number of samples)."""
    ordered = sorted(per_job)
    n = len(ordered)
    rank = n - TAIL_BEYOND          # 1-based rank of the tail sample
    return statistics.median(ordered), ordered[rank - 1], rank, n


def layer_metrics(loop, stationarity, calibration):
    """Per-layer metrics: the median over passes of each pass's values."""
    def med(key):
        return statistics.median(p.get(key, 0) for p in loop.layers)

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("core.quad", "core.volume_ratio",
                 "criteria.test_L1_at_infinity", "radial.volterra_apply",
                 "radial.solve_on_interval", "radial.solve_cauchy",
                 "core.phi_inverse_array", "obstacle.solve_obstacle"):
        m[name + ".calls"] = (med(name + ".calls"), "count")
        m[name + ".s"] = (med(name + ".s"), "s")
    m["core.quad.integrand_evals"] = (med("core.quad.integrand_evals"),
                                      "count")
    m["core.phi_inverse.calls"] = (med("core.phi_inverse.calls"), "count")
    m["core.phi_inverse.s"] = (med("core.phi_inverse.s"), "s")
    m["core.phi_inverse_array.elements"] = (
        med("core.phi_inverse_array.elements"), "count")
    m["criteria.test_L1_at_infinity.self_s"] = (
        med("criteria.test_L1_at_infinity.self_s"), "s")
    m["criteria.keller_osserman.s"] = (med("criteria.keller_osserman.s"), "s")
    m["criteria.inconclusive_share"] = (share(
        med("criteria.inconclusive"),
        med("criteria.test_L1_at_infinity.calls")), "share")
    windows = med("radial.solve_on_interval.calls")
    failed_windows = med("radial.solve_on_interval.failed")
    m["radial.solve_on_interval.failed"] = (failed_windows, "count")
    m["radial.window_accept_share"] = (
        share(windows - failed_windows, windows), "share")
    m["radial.picard_per_window"] = (
        share(med("radial.volterra_apply.calls"), windows), "count")
    m["obstacle.solve_obstacle.failed"] = (
        med("obstacle.solve_obstacle.failed"), "count")
    for name in ("obstacle.solve_dirichlet", "obstacle.make_problem",
                 "obstacle.khasminskii_construct",
                 "obstacle.is_supersolution"):
        m[name + ".s"] = (med(name + ".s"), "s")
    nodes = med("obstacle.nodes_solved")
    m["obstacle.nodes_solved"] = (nodes, "count")
    m["obstacle.s_per_node"] = (
        share(med("obstacle.solve_obstacle.s"), nodes), "s")
    m["obstacle.kkt_stationarity_max"] = (stationarity, "residual")
    m["cli.main.calls"] = (med("cli.main.calls"), "count")
    m["cli.self_s"] = (med("cli.main.self_s"), "s")
    m["cli.output_bytes"] = (sum(s[0].output_bytes for s in loop.samples),
                             "bytes")
    wall = statistics.median(loop.pass_walls)
    overhead = statistics.median(
        p["trace.spans"] * calibration["span"]
        + p.get("core.quad.integrand_evals", 0) * calibration["count"]
        + p.get("core.phi_inverse.calls", 0) * calibration["leaf"]
        for p in loop.layers)
    m["trace.wall_s"] = (wall, "s")
    m["trace.wall_ref"] = (sum(per_job_medians(loop, "latency")), "ref")
    m["trace.overhead_share"] = (overhead / wall, "share")
    return m


def max_stationarity(first):
    """Largest ``# stationarity=`` the obstacle command reported."""
    worst = 0.0
    for outcome in first:
        for line in outcome.data.decode(errors="replace").splitlines():
            if line.startswith("# stationarity="):
                worst = max(worst, float(line.split("=", 1)[1]))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    print(f"# env {environment()}", flush=True)
    setup_s = measure_setup()
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        inputs = workloads.make_inputs(args.seed, workdir)
        jobs = workloads.JOB_LISTS[args.workload](inputs)
        if len(jobs) <= TAIL_BEYOND:
            raise SystemExit("error: too few jobs for the latency tail")
        # library logging would go to the first job's captured stderr
        logging.getLogger().addHandler(logging.NullHandler())
        tracer = calibration = None
        if args.trace:
            import tracing
            calibration = tracing.calibrate()
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                loop = run_loop(jobs, args.seconds, workdir, tracer)
        else:
            loop = run_loop(jobs, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons, unexpected = judge(jobs, loop)
    per_job_s = per_job_medians(loop, "latency", "s")
    refs = [x.ref for s in loop.samples for x in s]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} samples={len(refs)} "
          f"reference kernel median={statistics.median(refs) * 1e3:.3f} ms")
    if args.trace:
        print("# pass wall_s: "
              + " ".join(f"{w:.3f}" for w in loop.pass_walls))
    for job, latency, runs, reason, bad in zip(jobs, per_job_s, loop.samples,
                                               reasons, unexpected):
        if reason is None:
            verdict = "ok"
            if job.defect:
                verdict = "ok (known defect no longer reproduces)"
        elif bad:
            verdict = f"FAILED: {reason}"
        else:
            verdict = f"known defect: {job.defect}: {reason}"
        print(f"{latency:10.4f} s x{len(runs):<3d} {job.name}  -> {verdict}")

    mismatched = sum(r is not None for r in reasons)
    failed_share = mismatched / len(jobs)
    if args.trace:
        metrics = layer_metrics(loop, max_stationarity(loop.first),
                                calibration)
        metrics["failed_share"] = (failed_share, "share")
    else:
        p50_s, tail_s, rank, n = latency_stats(per_job_s)
        per_job = per_job_medians(loop, "latency")
        p50, tail, _, _ = latency_stats(per_job)
        print(f"# latency_tail is p{100 * rank / n:.0f}: rank {rank} of "
              f"{n} per-job median latencies; failed_share={failed_share:.4f}"
              f" ({mismatched} of {len(jobs)} jobs disagree with theory)")
        print(f"# in seconds: wall_s = {sum(per_job_s):.6g}, latency_p50_s = "
              f"{p50_s:.6g}, latency_tail_s = {tail_s:.6g}, cpu_s = "
              f"{sum(per_job_medians(loop, 'cpu', 's')):.6g}")
        metrics = {
            "wall_ref": (sum(per_job), "ref"),
            "latency_p50_ref": (p50, "ref"),
            "latency_tail_ref": (tail, "ref"),
            "ok_share": (1.0 - failed_share, "share"),
            "cpu_ref": (sum(per_job_medians(loop, "cpu")), "ref"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = sum(len(s) for s, bad in zip(loop.samples, unexpected) if bad)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(refs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
