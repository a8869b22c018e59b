"""One workload in one process: set up, run timed or traced passes, check.

Started by run.py with the package on PYTHONPATH.  It prints one JSON
object on its last stdout line; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy

import workloads
from reference import KERNEL_REFERENCES, Wrong, require

MIN_QUERIES = 100  # so that at least ten samples lie beyond the 90th percentile
AGREEMENT_SAMPLES = 2  # kernel calls per kernel replayed against the O(n^2) scans
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60


def run_cli_child(argv: list[str]) -> tuple[int, bytes]:
    p = subprocess.run([sys.executable, "-m", "epsdelta.cli", *argv], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr.decode(errors="replace"))
    return p.returncode, p.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    from epsdelta import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue().encode()


def run_query(q, cli_runner):
    """The query's output, or the exception it raised, which counts as failed."""
    try:
        return cli_runner(q.argv) if q.argv is not None else q.run()
    except Exception as exc:  # a failing query is recorded, and the loop goes on
        return exc


def run_pass(queries, cli_runner, durations, tracer=None):
    outs = []
    for q in queries:
        t = time.perf_counter()
        if tracer is None:
            out = run_query(q, cli_runner)
        else:
            with tracer.span(f"query.{q.kind}"):
                out = run_query(q, cli_runner)
        durations.append(time.perf_counter() - t)
        outs.append(out)
    return outs


def stored(out):
    """What is kept of an output for checking: CLI stdout is kept once, then hashed."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], bytes):
        return out[0], hashlib.sha256(out[1]).hexdigest()
    return out


def verdict(q, out):
    """None when the output passes the query's check, else the reason."""
    try:
        if isinstance(out, Exception):
            raise Wrong(f"raised {out!r}")
        if q.argv is None:
            q.check(out)
        else:
            require(out[0] == 0, f"exit code {out[0]}")
            q.check(out[1])
    except Wrong as exc:
        return str(exc)
    return None


def rerun_verdict(first, out):
    """A later pass of a CLI query must reproduce the first pass's stdout."""
    if isinstance(out, Exception):
        return f"raised {out!r}"
    try:
        workloads.check_rerun(first[1], out[1])
    except Wrong as exc:
        return str(exc)
    return None


def check_outputs(queries, passes):
    """(failed, errors of queries that are not known faults) over all passes.

    The first pass is checked in full; a later pass of an in-process query
    is checked again, a later pass of a CLI query against the first's bytes.
    """
    first = [verdict(q, out) for q, out in zip(queries, passes[0])]
    failed, errors = 0, []
    for p, outs in enumerate(passes):
        for i, (q, out) in enumerate(zip(queries, outs)):
            if p == 0:
                why = first[i]
            elif q.argv is None:
                why = verdict(q, out)
            else:
                why = rerun_verdict(passes[0][i], out) or first[i]
            if why:
                failed += 1
                if not q.known_fault:
                    errors.append(f"{q.kind} {' '.join(q.argv or [])}: {why}")
    return failed, errors


def timed(queries, cli_runner, seconds, in_process):
    durations, passes = [], []
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    r0 = resource.getrusage(who)
    start = time.perf_counter()
    while True:
        outs = run_pass(queries, cli_runner, durations)
        passes.append(outs if not passes else [stored(o) for o in outs])
        wall = time.perf_counter() - start
        if wall >= seconds and len(durations) >= MIN_QUERIES:
            break
    r1 = resource.getrusage(who)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    ms = sorted(d * 1e3 for d in durations)
    metrics = {
        "ops_per_s": len(durations) / wall,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "cpu_ms_per_op": cpu * 1e3 / len(durations),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    return metrics, passes, len(durations)


def import_times() -> tuple[float, float]:
    """Cumulative import time of epsdelta.cli and of numpy, from -X importtime."""
    cli_ms, np_ms = [], []
    for _ in range(IMPORT_REPEATS):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import epsdelta.cli"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           timeout=CHILD_TIMEOUT_S, check=True)
        total, numpy_us = 0, 0
        for line in p.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2][1:]
            if name.startswith("epsdelta"):
                total += int(fields[1])
            elif name.strip() == "numpy":
                numpy_us = int(fields[1])
        cli_ms.append(total / 1e3)
        np_ms.append(numpy_us / 1e3)
    return statistics.median(cli_ms), statistics.median(np_ms)


def agreement_gate(tracer, seed: int) -> list[str]:
    """Replay a seeded sample of the traced kernel calls on the O(n^2) scans."""
    rng = random.Random(seed)
    errors = []
    for name, ref in KERNEL_REFERENCES.items():
        calls = tracer.kernel_calls[name]
        for args, kwargs, out in rng.sample(calls, min(AGREEMENT_SAMPLES, len(calls))):
            want = ref(*args, **kwargs)
            got = out if isinstance(out, tuple) else (out,)
            want = want if isinstance(want, tuple) else (want,)
            if got != want:
                errors.append(f"kernel {name} on {args[0].size} points: {got} != reference {want}")
    return errors


def traced(queries, cli_runner, seconds, seed, trace_path):
    from tracer import Tracer, layer_metrics

    # untraced passes first: after the traced pass the retained spans and
    # kernel arguments would slow them and understate the overhead
    untraced, passes = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        passes.append([stored(o) for o in run_pass(queries, cli_runner, [])])
        untraced.append(time.perf_counter() - t)
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    passes.insert(0, run_pass(queries, cli_runner, [], tracer))
    traced_s = time.perf_counter() - start
    tracer.uninstall()
    overhead = traced_s / statistics.median(untraced) - 1.0
    metrics, layer_ms = layer_metrics(tracer, *import_times())
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    share = {layer: round(100.0 * ms / (traced_s * 1e3), 1) for layer, ms in
             sorted(layer_ms.items(), key=lambda kv: -kv[1])}
    note = {"traced_pass_s": traced_s, "untraced_pass_s": statistics.median(untraced),
            "tracing_overhead_pct": 100.0 * overhead, "self_time_share_pct": share,
            "trace_file": os.path.relpath(trace_path)}
    return metrics, passes, agreement_gate(tracer, seed), note


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-path", default="")
    args = ap.parse_args()

    make, warmup = workloads.WORKLOADS[args.workload]
    queries = make(args.seed)
    in_process = warmup is not None
    if in_process:
        warmup()
    else:
        code, _ = run_cli_child(workloads.CLI_WARMUP)
        if code != 0:
            sys.exit("warm-up CLI call failed")
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:  # CLI queries run in process, through cli.run, to be traced
            metrics, passes, gate, note = traced(queries, run_cli_inprocess, args.seconds,
                                                 args.seed, args.trace_path)
        else:
            metrics, passes, samples = timed(queries, run_cli_child, args.seconds, in_process)
            gate, note = [], {"latency_samples": samples}
        failed, errors = check_outputs(queries, passes)
        errors += gate
        for e in errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        result.update(attempted=len(queries) * len(passes), failed=failed, correct=not errors,
                      metrics=metrics, note=note, numpy=numpy.__version__,
                      queries_per_pass=len(queries), passes=len(passes))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
