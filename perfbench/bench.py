"""Benchmark worker: set-up, the query loop, checks, metrics and report.

Spawned by run.py; prints "ready" when set up, then the report lines and
the JSON result line.  Runnable alone with the same arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# BLAS threads are fixed before numpy loads: one per available core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import curvedelta.cli  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK_DIR = ".perfbench_work"


@dataclass
class Outcome:
    query: workloads.Query
    latency_s: float
    exit_code: int
    results: int = 0
    reason: str = ""
    check_failed: bool = False

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.check_failed


def _check(query: workloads.Query, out: str) -> int:
    circle = query.curve == "circle"
    if query.command == "spectrum":
        lams = [float(x) for x in workloads.SPECTRUM_LAMBDAS.split(",")]
        return checks.check_spectrum(out, circle, query.n, lams)
    if query.command == "bound-states":
        return checks.check_bound_states(out, circle, query.alpha)
    if query.command == "isoperimetric":
        return checks.check_isoperimetric(out, query.alpha)
    if query.command == "scattering":
        lams = [float(x) for x in workloads.SCATTERING_LAMBDAS.split(",")]
        return checks.check_scattering(out, query.n, lams)
    return checks.check_probe(out)


def run_query(index: int, query, curve_path: str, work: str,
              tracer: Tracer | None) -> Outcome:
    out = os.path.join(work, f"q{index}")
    os.makedirs(out)
    argv = query.argv(curve_path, out)
    captured = io.StringIO()
    if tracer is not None:
        tracer.start_query(index)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(captured):
            code = curvedelta.cli.main(argv)
    except Exception:                  # a crash is a failed query, like a CLI traceback
        code = 1
        captured.write(traceback.format_exc(limit=2))
    outcome = Outcome(query, time.perf_counter() - start, code,
                      reason=captured.getvalue().strip().replace("\n", " | "))
    if code == 0:
        try:
            outcome.results = _check(query, out)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            outcome.check_failed = True
            outcome.reason = f"check failed: {exc!r}"
    shutil.rmtree(out)
    return outcome


def set_up(args, work: str):
    """Workload files plus one tiny query, so lazy library initialisation
    (BLAS thread pool, LAPACK bindings) is paid here, not by the first
    timed query.  N = 16 is used by no workload query."""
    queries, paths = workloads.build(args.workload, args.seed, args.seconds, work)
    warm = workloads.Query("bound-states", "circle", 16, 0.1)
    outcome = run_query(-1, warm, os.path.join(work, "circle.json"), work, None)
    if not outcome.ok:
        raise RuntimeError(f"warm-up query failed: {outcome.reason}")
    return queries, paths


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                sizes[f"L{level}"] = fh.read().strip()
        except OSError:
            continue
    return {k: v for k, v in sizes.items() if k in ("L2", "L3")}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_state"):
        return "count/state"
    if name.endswith("repeat_frac"):
        return "fraction"
    if name.endswith("_s"):
        return "s"
    return "count"


def end_to_end(outcomes: list[Outcome]) -> dict:
    good = [o for o in outcomes if o.ok]
    results = sum(o.results for o in good)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(sum(o.latency_s for o in outcomes), "s"),
        "query_p50_s": _metric(statistics.median(o.latency_s for o in good), "s"),
        "unit_s": _metric(sum(o.latency_s for o in good) / results, "s"),
        "peak_rss_mb": _metric(rss_kib / 1024.0, "MB"),
    }


def measure(args, work: str) -> int:
    queries, paths = set_up(args, work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        outcomes = [run_query(i, query, path, work, tracer)
                    for i, (query, path) in enumerate(zip(queries, paths))]
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = sum(not o.ok for o in outcomes)
    if failed == len(outcomes):
        sys.stderr.write("perfbench: every query failed\n")
        return 1
    if tracer is not None:
        values = tracer.metrics()
        values["trace.wall_s"] = sum(o.latency_s for o in outcomes)
        metrics = {k: _metric(v, _layer_unit(k)) for k, v in values.items()}
    else:
        metrics = end_to_end(outcomes)
    _report(args, outcomes, metrics)
    print(json.dumps({"correct": not any(o.check_failed for o in outcomes),
                      "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


def _report(args, outcomes, metrics) -> None:
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    for i, o in enumerate(outcomes):
        q = o.query
        tag = "ok" if o.ok else ("CHECK-FAIL" if o.check_failed else f"exit {o.exit_code}")
        detail = "" if o.ok else f"  {o.reason[:200]}"
        print(f"# q{i:02d} {q.command:13s} {q.curve:8s} n={q.n:<5d} "
              f"alpha={q.alpha!s:6s} {o.latency_s:8.3f}s results={o.results} {tag}{detail}")
    good = sum(o.ok for o in outcomes)
    failed = len(outcomes) - good
    print(f"# fail_frac {failed / len(outcomes):.4f} fraction "
          f"({failed} of {len(outcomes)} queries failed)")
    samples = {"query_p50_s": f"median of {good} successful queries",
               "unit_s": f"over {sum(o.results for o in outcomes if o.ok)} results",
               "wall_s": f"{len(outcomes)} queries"}
    for name, m in metrics.items():
        note = samples.get(name, "")
        print(f"# {name} {m['value']!r} {m['unit']}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (one set-up sample)")
    args = p.parse_args(argv)
    work = os.path.join(ROOT, WORK_DIR, str(os.getpid()))
    os.makedirs(work)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, WORK_DIR))


if __name__ == "__main__":
    sys.exit(main())
