#!/usr/bin/env python3
"""Benchmark of ibrown: one workload per process, a closed loop of
sequential jobs, every job's output checked apart from ibrown.

    python3 ibench/run.py --workload compute-density --seed 1 --seconds 30 --trace 0
    python3 ibench/run.py --write-spec        # writes BENCHMARK.json

Run it from anywhere; it imports ibrown from the ``src`` directory next to
``ibench``. With ``--trace 0`` it times jobs for ``--seconds`` seconds and
reports the end-to-end metrics. With ``--trace 1`` it runs a fixed list of
jobs twice each, plainly and under the per-layer tracer, and reports the
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads its libraries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

import oracle
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-ups per run: SETUP_FIRST before the first job, then one after each
#: job until there are SETUP_REPS. setup_s is their median; spread over the
#: run, they are not all taken in one spell of a faster or slower machine.
SETUP_REPS = 15
SETUP_FIRST = 3

SPEC = {
    "command": ["python3", "ibench/run.py"],
    "paths": ["ibench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "compute-density", "why": "CLI compute on semicircle and piecewise-polynomial laws: adaptive quadrature in the kernel layer does most of the work"},
        {"name": "compute-atomic", "why": "CLI compute on atomic laws whose source region splits: no quadrature, the v_t and a0 Newton loops and the region scan do the work"},
        {"name": "crosscheck", "why": "library cross-checks on atomic laws: maps, jn, characteristics, rmt and J_t inverse do the work, profile little"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "job_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in (
            ("numerics.quad_calls", "count", "lower"),
            ("numerics.quad_nodes", "count", "lower"),
            ("numerics.quad_self_s", "s", "lower"),
            ("numerics.newton_calls", "count", "lower"),
            ("numerics.newton_iters", "count", "lower"),
            ("measure.bundles", "count", "lower"),
            ("measure.bundles_self_s", "s", "lower"),
            ("measure.p0_zero_calls", "count", "lower"),
            ("measure.cauchy_calls", "count", "lower"),
            ("measure.log_potential_calls", "count", "lower"),
            ("measure.quantile_calls", "count", "lower"),
            ("subordination.vt_solves", "count", "lower"),
            ("subordination.bundles_per_solve", "bundles/solve", "lower"),
            ("subordination.self_s", "s", "lower"),
            ("subordination.region_s", "s", "lower"),
            ("subordination.jt_inverse_calls", "count", "lower"),
            ("subordination.jt_inverse_s", "s", "lower"),
            ("brown.a0_inversions", "count", "lower"),
            ("brown.sweep_nodes", "count", "lower"),
            ("brown.sweep_s", "s", "lower"),
            ("brown.profile_self_s", "s", "lower"),
            ("maps.law_additive_s", "s", "lower"),
            ("maps.pushforward_s", "s", "lower"),
            ("jn.solve_g_calls", "count", "lower"),
            ("jn.solve_g_s", "s", "lower"),
            ("jn.density_s", "s", "lower"),
            ("characteristics.s_of_calls", "count", "lower"),
            ("characteristics.s_of_s", "s", "lower"),
            ("characteristics.pde_residual_s", "s", "lower"),
            ("rmt.eigvals_s", "s", "lower"),
            ("rmt.simulate_self_s", "s", "lower"),
            ("rmt.compare_s", "s", "lower"),
            ("cli.compute_self_s", "s", "lower"),
            ("cli.bytes_written", "B", "lower"),
            ("trace.overhead_s", "s", "lower"),
        )
    ],
}


def import_ibrown():
    """Import ibrown afresh from SRC, as a new process would."""
    for name in [m for m in sys.modules if m == "ibrown" or m.startswith("ibrown.")]:
        del sys.modules[name]
    import ibrown
    import ibrown.cli  # noqa: F401  (the CLI is not imported by the package)

    return ibrown


def clear_caches():
    """Empty ibrown's module-level caches, so a job repeated in one process
    does the same work again."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ibrown"):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


class Inputs:
    """The job list of a run, drawn from the seed and written to disk a chunk
    at a time as the run reaches it; the jobs do not depend on the chunking."""

    CHUNK = 32

    def __init__(self, workload: str, seed: int, work: Path):
        self.make = workloads.WORKLOADS[workload][0]
        self.rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
        self.work = work
        self.jobs = []
        work.mkdir(parents=True)

    def __getitem__(self, i: int):
        while i >= len(self.jobs):
            self.jobs += self.make(self.rng, len(self.jobs), self.CHUNK, self.work)
        return self.jobs[i]


def setup(workload: str, seed: int, work: Path):
    """One set-up: a fresh import of ibrown, and drawing and writing the first
    chunk of inputs into ``work``. Returns its time, the package and the
    inputs."""
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    ib = import_ibrown()
    inputs = Inputs(workload, seed, work)
    inputs[Inputs.CHUNK - 1]
    return time.perf_counter() - t0, ib, inputs


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs and checks jobs; counts failed jobs and failed checks."""

    def __init__(self, ib, workload: str, work: Path):
        _, self.run, self.check = workloads.WORKLOADS[workload]
        self.ib, self.work = ib, work
        self.failed = 0
        self.bad_checks = 0
        self.bytes_written = 0

    def one(self, i: int, job, tracer: Tracer | None = None) -> float:
        out = self.work / f"out{i}"
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = self.run(self.ib, job, out)
        except Exception:  # a job that raises counts as failed; the run goes on
            res = None
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        try:
            if res is None or not self.check(job, res, out):
                self.failed += 1
        except oracle.CheckFailed as exc:
            self.bad_checks += 1
            print(f"job {i}: check failed: {exc}", file=sys.stderr)
        except Exception:  # output the checks cannot read is wrong output
            self.bad_checks += 1
            traceback.print_exc()
        if out.exists():
            self.bytes_written += _dir_bytes(out)
            shutil.rmtree(out)
        return elapsed


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    setups = []
    for _ in range(SETUP_FIRST):
        elapsed, ib, inputs = setup(workload, seed, work / "inputs")
        setups.append(elapsed)
    runner = Runner(ib, workload, work)
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        job = inputs[len(times)]
        times.append(runner.one(len(times), job))
        if len(setups) < SETUP_REPS:  # the jobs go on with the fresh package
            elapsed, runner.ib, _ = setup(workload, seed, work / "setup")
            setups.append(elapsed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return _result(runner, len(times), metrics)


def traced_run(workload: str, seed: int, work: Path) -> dict:
    """Each job of a fixed list runs plainly and then traced, with caches
    emptied before each, so the counts repeat exactly for a seed and the
    tracing overhead is the difference of the two wall times."""
    n = workloads.TRACE_JOBS[workload]
    _, ib, inputs = setup(workload, seed, work / "inputs")
    jobs = [inputs[i] for i in range(n)]
    runner = Runner(ib, workload, work)
    tracer = Tracer()
    plain = traced = 0.0
    for i, job in enumerate(jobs):
        clear_caches()
        plain += runner.one(i, job)
        clear_caches()
        traced += runner.one(i, job, tracer)
    print(tracer.table(), file=sys.stderr)
    # both passes write the same files and fail the same jobs
    metrics = tracer.metrics(runner.bytes_written // 2, traced - plain)
    return _result(runner, n, metrics, failed=runner.failed // 2)


def _result(runner: Runner, attempted: int, metrics: dict, failed: int | None = None) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r:>24} {unit}")
    return {
        "correct": runner.bad_checks == 0,
        "attempted": attempted,
        "failed": runner.failed if failed is None else failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json at the repository root")
    ns = ap.parse_args(argv)
    if ns.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n", encoding="utf-8")
        return 0
    if ns.workload is None:
        ap.error("--workload is required")
    if not (SRC / "ibrown" / "__init__.py").is_file():
        print(f"error: no ibrown sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".ibench_work" / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    try:
        if ns.trace:
            result = traced_run(ns.workload, ns.seed, work)
        else:
            result = timed_run(ns.workload, ns.seed, ns.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
