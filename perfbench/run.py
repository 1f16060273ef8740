"""Benchmark of the curvedelta CLI: one closed-loop client, in-process.

    python3 perfbench/run.py --workload bound-states --seed 1 --seconds 30 --trace 0

Run from the repository root.  This script only spawns and times worker
processes (perfbench/bench.py); the worker drives curvedelta.cli.main.

--trace 0: SETUP_RUNS fresh workers set up (imports, workload generation,
curve files, warm-up) and report "ready"; the last of them then runs the
query list.  setup_s is the median spawn-to-ready time.
--trace 1: one untraced worker gives the untraced wall_s, then one traced
worker gives the per-layer metrics and the tracing overhead.

The last stdout line is the JSON result; the lines before it are the
human-readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="bound-states, spectrum-large or continuum (checked by the worker)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, trace: int, setup_only: bool = False):
    """Run one worker; return (spawn-to-ready seconds, stdout lines after 'ready')."""
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            first = child.stdout.readline()
            ready_s = time.perf_counter() - start
            rest, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if first.strip() != "ready" or child.returncode != 0:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited {child.returncode}")
    return ready_s, rest.splitlines()


def _result(lines):
    if not lines:
        raise WorkerError("worker printed no result")
    return lines[:-1], json.loads(lines[-1])


def measure(args) -> tuple[list[str], dict]:
    if args.trace:
        _, untraced = _result(_worker(args, 0)[1])
        report, result = _result(_worker(args, 1)[1])
        metrics = result["metrics"]
        untraced_wall = untraced["metrics"]["wall_s"]["value"]
        metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.wall_s"]["value"] - untraced_wall, "unit": "s"}
        report += [f"# {name} {metrics[name]['value']!r} s" for name in
                   ("trace.untraced_wall_s", "trace.overhead_s")]
        return report, result
    samples = [_worker(args, 0, setup_only=True)[0] for _ in range(SETUP_RUNS - 1)]
    ready_s, lines = _worker(args, 0)
    samples.append(ready_s)
    report, result = _result(lines)
    result["metrics"] = {"setup_s": {"value": statistics.median(samples), "unit": "s"},
                         **result["metrics"]}
    report.append(f"# setup_s {result['metrics']['setup_s']['value']!r} s  (median of "
                  f"{len(samples)} fresh processes: "
                  + ", ".join(f"{s:.3f}" for s in samples) + ")")
    return report, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "curvedelta", "__init__.py")):
        sys.stderr.write(f"perfbench: no curvedelta sources under {ROOT}/src\n")
        return 2
    try:
        report, result = measure(args)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
