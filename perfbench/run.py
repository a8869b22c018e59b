"""Benchmark of the epsdelta package: three seeded workloads, checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload tolerance-grid --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of one traced pass.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The
workloads run in a child process on the unmodified package in ./src;
set-up is measured in separate short-lived copies of that process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 8  # set-up is the median over these and the measuring process
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
# one BLAS thread: the default pool costs each CLI process ~110 ms of CPU and widens spread
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def steal_ticks() -> int | None:
    """Cumulative CPU steal of the machine, in clock ticks, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def spawn(args: argparse.Namespace, env: dict, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    p = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"workload process failed with exit code {p.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("tolerance-grid", "analysis-light", "cli-oneshot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "epsdelta", "__init__.py")):
        sys.exit(f"no epsdelta package under {SRC}: run from a checkout of the repository")

    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    steal0, wall0 = steal_ticks(), time.monotonic()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, env, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"])
    trace_path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
    res = spawn(args, env, ["--trace-path", trace_path], WORKER_TIMEOUT_S)
    setups.append(res["setup_s"])
    steal1, wall = steal_ticks(), time.monotonic() - wall0

    steal = "n/a" if steal0 is None or steal1 is None else \
        f"{(steal1 - steal0) / os.sysconf('SC_CLK_TCK'):.2f}s over {wall:.1f}s wall"
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={res['numpy']} threads: {threads} seed={args.seed} cpu_steal={steal}")
    print(f"run: workload={args.workload} passes={res['passes']} "
          f"queries_per_pass={res['queries_per_pass']} " +
          " ".join(f"{k}={v}" for k, v in res["note"].items()))
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    units = declared_units(args.trace)
    if set(values) != set(units):
        sys.exit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
