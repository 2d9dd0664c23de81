"""Closed-loop runner of the poslab benchmark.

One client runs one poslab CLI command at a time, in-process through the
``poslab.cli`` click entry point, and waits for it before sending the next
(a closed loop with zero think time).  A run repeats passes over its
workload's job list (see ``workloads.py``) until its passes have taken
``--seconds``, parses and checks the stdout JSON of every command, and
prints one JSON result line.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer metrics from the traced ones instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
}


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run one poslab command in-process; returns (exit code, stdout)."""
    from poslab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(args=argv, prog_name="poslab", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()


def run_job(job, tracer: Tracer | None) -> tuple[float, str | None]:
    """Time one job and check its output; returns (seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code, text = invoke(job.argv)
        else:
            code, text = tracer.call("cli", invoke, job.argv)
    except Exception as exc:  # a crashing command is a failed job; the loop goes on
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return seconds, f"exit {code}, stdout is not JSON: {text[:120]!r}"
    if "error" in out:
        return seconds, f"exit {code}, error {out['error']}"
    if code != 0:
        return seconds, f"exit code {code}"
    try:
        return seconds, job.check(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return seconds, f"malformed output ({type(exc).__name__}: {exc})"


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it: (value, percentile)."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, generate the job list, report."""
    import poslab.cli  # noqa: F401

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        make_jobs(workload, seed, 0, workdir)
        print(time.monotonic_ns(), flush=True)
    finally:
        shutil.rmtree(workdir)


def measure_setup(workload: str, seed: int) -> float:
    """Process start to first-job-ready, in a fresh process (CLOCK_MONOTONIC)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic_ns()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return (int(done.stdout.split()[-1]) - t0) / 1e9


def run(workload: str, seed: int, seconds: float, trace: bool,
        limit: int | None = None, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info).

    The set-up probes are spread over the run, between passes, so that
    ``setup_s`` averages over the same stretch of machine time as the
    other metrics; their time does not count towards ``seconds``.
    """
    probes = 0 if trace else probes
    setup: list[float] = []
    import poslab
    import poslab.cli  # noqa: F401  (imported before timing, as in the probes)

    if not os.path.abspath(poslab.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise RuntimeError(f"poslab imported from {poslab.__file__}, not from {ROOT}/src")

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    latencies: list[float] = []
    layers: list[dict] = []
    failures: list[str] = []
    problems: list[str] = []
    attempted = jobs_per_pass = 0
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        busy = 0.0  # seconds spent in passes
        p = 0
        while True:
            # probe i runs once i/probes of the measuring time has passed
            while len(setup) < probes and len(setup) * seconds <= probes * busy:
                setup.append(measure_setup(workload, seed))
            pass_start = time.perf_counter()
            traced = trace and p % 2 == 1
            jobs = make_jobs(workload, seed, p, workdir, limit)
            jobs_per_pass = len(jobs)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, pass_latencies = 0.0, []
                for job in jobs:
                    dt, failure = run_job(job, tracer if traced else None)
                    attempted += 1
                    wall += dt
                    pass_latencies.append(dt)
                    if failure:
                        failures.append(f"{' '.join(job.argv)}: {failure}")
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if traced:
                problems += tracer.check(wall)
                certificates = sum(job.argv[0] == "certify" for job in jobs)
                layers.append(tracer.snapshot(certificates))
            else:
                latencies += pass_latencies
            p += 1
            busy += time.perf_counter() - pass_start
            if busy >= seconds and p >= (2 if trace else 1):
                break
        while len(setup) < probes:
            setup.append(measure_setup(workload, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.mean(walls[True]) - statistics.mean(walls[False])
        units = PER_LAYER_UNITS
    else:
        tail_value, tail_percentile = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            # The mean, not the median, of the pass times: the machine's speed
            # drifts in phases of seconds, and the mean of a run's passes
            # follows the share of slow phases smoothly where the median jumps.
            "wall_s": statistics.mean(walls[False]),
            "job_s.p50": statistics.median(latencies),
            "job_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape": "closed loop, one client, one CLI command at a time, in-process",
        "passes": len(walls[False]) + len(walls[True]),
        "traced_passes": len(walls[True]),
        "jobs_per_pass": jobs_per_pass,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:10],
        "trace_problems": problems[:10],
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    if not trace:
        info["job_samples"] = len(latencies)
        info["tail_percentile"] = tail_percentile
        info["setup_samples_s"] = setup
    return result, info


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0
