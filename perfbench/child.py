"""One workload process: set up, print ``ready``, then run one phase.

Started by ``run.py`` with ``PYTHONPATH=src``; not meant to be run by
hand.  ``--mode setup`` exits after set-up, ``timed`` runs the closed
loop for ``--seconds`` and ``trace`` runs a warm, an untraced and a traced
pass.  The phase's record is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def _run_ops(wl, ops, tracer=None) -> tuple[float, int, list[str]]:
    """Runs prepared ``(index, operation)`` pairs one at a time; returns wall, failures."""
    failed, errors = 0, []
    start = perf_counter()
    for i, op in ops:
        try:
            if tracer is None:
                op()
            else:
                tracer.op = i
                tracer.span("op", op)
        except Exception as exc:  # a failed check or a library error: count it, go on
            failed += 1
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
    return perf_counter() - start, failed, errors


def _prepared(wl, indices) -> list:
    return [(i, wl.prepare(i)) for i in indices]


def timed(wl, seconds: float) -> dict:
    latencies, failed, errors = [], 0, []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        op = wl.prepare(i)
        t0 = perf_counter()
        try:
            op()
        except Exception as exc:  # a failed check or a library error: count it, go on
            failed += 1
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
        i += 1
        if i % wl.cycle == 0 and perf_counter() >= deadline:
            break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_of_children
                               else resource.RUSAGE_SELF)
    return {"attempted": i, "failed": failed, "errors": errors[:5],
            "wall_s": perf_counter() - start, "latencies_s": latencies,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def traced(wl, lib, spans_path: Path) -> dict:
    from layers import layer_metrics
    from tracer import NullTracer, Tracer

    n = wl.trace_ops
    wl.in_process = True  # cli_calls: every pass calls ``dispatch`` in this process
    # A warm pass first, so that both measured passes find the same code paths warm.
    _wall, failed, errors = _run_ops(wl, _prepared(wl, range(2 * n, 3 * n)))
    plain_wall, plain_failed, plain_errors = _run_ops(wl, _prepared(wl, range(n)))
    ops = _prepared(wl, range(n, 2 * n))  # before tracing, so input drawing is not traced
    tracer = Tracer()
    wl.tracer = tracer
    tracer.install(lib)
    try:
        traced_wall, traced_failed, traced_errors = _run_ops(wl, ops, tracer)
    finally:
        tracer.uninstall()
    wl.tracer = NullTracer()
    extras = wl.trace_extras()
    values, absent, idle = layer_metrics(tracer, extras, traced_wall / plain_wall)
    tracer.write(spans_path)
    return {"attempted": 3 * n, "failed": failed + plain_failed + traced_failed,
            "errors": (errors + plain_errors + traced_errors)[:5], "layers": values, "absent": absent,
            "not_exercised": idle, "traced_ops": n, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "trace"], required=True)
    ap.add_argument("--perturb", type=float, default=0.0)
    args = ap.parse_args()

    import numpy as np
    from tracer import Lib
    from workloads import WARMUP, WORKLOADS, workers

    lib = Lib()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](lib, args.seed, workers(), workdir)
        if args.perturb:
            wl.perturb(args.perturb)
        _wall, warm_failed, warm_errors = _run_ops(
            wl, _prepared(wl, range(WARMUP, WARMUP + wl.warmup_ops)))
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "timed":
            record = timed(wl, args.seconds)
        else:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            record = traced(wl, lib, spans)
        record["attempted"] += wl.warmup_ops
        record["failed"] += warm_failed
        record["errors"] = (warm_errors + record["errors"])[:5]
        record["provenance"] = {
            "workload": args.workload, "seed": args.seed, "workers": wl.workers,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": _version("scipy"), "ldpcontract": sys.modules["ldpcontract"].__version__,
            **wl.provenance(),
        }
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


if __name__ == "__main__":
    sys.exit(main())
