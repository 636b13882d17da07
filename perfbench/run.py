"""Benchmark of ldpcontract: four closed-loop workloads and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload ldp_channels --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload ldp_channels --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --seed 1          # every workload, untraced and traced
    python3 perfbench/run.py --self-test

A run starts fresh Python processes (``child.py``) with
``PYTHONPATH=src``, one after the other: two that only set up, then one
that sets up and runs the workload for ``--seconds``, one operation at a
time, the next starting when the previous returns.  Each process sets up
by importing ldpcontract, drawing inputs and running untimed warm-up
operations.  ``setup_s`` is the median of the three set-up times,
measured here from process start to the child's ``ready`` line.  BLAS
is held to one thread, so the only extra threads are the
``min(2, nproc)`` simulation workers.

Every operation's output is checked (``workloads.py``); a failed check,
an exception, a wrong exit status or empty stdout is a failed operation.
stdout gets the provenance, one line per metric with its unit, and as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``): ``setup_s``, ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms``, ``peak_rss_mb`` (``ru_maxrss`` of the
workload process, or the largest CLI child's for ``cli_calls``) and
``ok_op_frac``, the share of attempted operations that passed their
checks (reported as a success share because every reported metric must
be non-zero on a correct program; ``failed`` in the result line is the
failure count).

With ``--trace 1`` the child runs a fixed number of operations as a warm
pass, as many further operations untraced and as many again traced
(``cli_calls`` calls ``dispatch`` in process), and reports every per-layer
metric of ``layers.py`` and ``trace.overhead_ratio``, the traced pass's
wall time over the untraced pass's.  What each layer metric should
move, and where it should not:

* ``mix_toward_uniform``, ``audit_ldp.calls_per_mix`` and ``Channel``
  validation move ``ops_per_s``/``op_p50_ms`` on ``ldp_channels``, not on
  ``density_packing`` or ``cli_calls``;
* ``eta_bruteforce`` per divergence, ``eta_tv_exact``, ``eta_chi2_at``
  and the two quadratures move ``ops_per_s`` on ``ldp_channels``, not on
  ``monte_carlo``;
* ``audit_ldp.self_s``/``alloc_peak_mb`` move ``peak_rss_mb`` and
  ``op_p90_ms`` on ``monte_carlo`` (large channels) and ``ops_per_s`` on
  ``ldp_channels`` (tiny ones), not on ``density_packing``;
* Hadamard build/estimate, ``trials_per_s`` of each simulation,
  ``rng.stream.calls_per_trial`` and ``workers2_speedup`` move
  ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` on ``monte_carlo``, not
  on ``ldp_channels``;
* the ``minimax`` packing metrics move ``ops_per_s``/``op_p50_ms`` on
  ``density_packing`` only;
* ``cli.import_s``, ``cli.<verb>.dispatch_ms`` and ``emit_json`` move
  ``op_p50_ms``/``op_p90_ms`` on ``cli_calls``, and ``cli.import_s`` also
  ``setup_s`` everywhere; not ``ops_per_s`` of the library workloads.

Workloads:

* ``ldp_channels``: random channels of 2-6 symbols mixed to eps-LDP,
  their contraction coefficients and quadrature identities.
* ``monte_carlo``: a cycle of Hadamard response at d = 4, 64, 256 (build,
  audit, risk simulation), hypothesis-testing error rates, the
  sample-complexity search and a binomial moment.  The timed loop ends
  on a whole cycle.
* ``density_packing``: Holder-density packings at a smoothness drawn
  afresh for every operation, so the library's cache never hits.
* ``cli_calls``: one fresh CLI process per operation, cycling through
  the verbs, with one invalid call that must exit 2.

``--self-test`` checks that BENCHMARK.json names the metrics this code
reports, and that a wrapped library function returning a shifted value
makes operations fail on every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ldp_channels", "monte_carlo", "density_packing", "cli_calls")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB", "ok_op_frac": "fraction"}


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, mode: str, deadline: float,
           perturb: float = 0.0) -> tuple[float, dict | None]:
    """Runs one workload process; returns its set-up time and its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--perturb", repr(perturb)]
    start = perf_counter()
    # A process group of its own, so that a kill also reaches a CLI process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill() -> None:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(deadline - perf_counter(), 1.0), kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} {mode} process exited with status {code}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(setups: list[float], rec: dict) -> dict[str, float]:
    lat = rec["latencies_s"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / rec["wall_s"],
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else 1e3 * lat[0],
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_op_frac": 1.0 - rec["failed"] / rec["attempted"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + CHILD_TIMEOUT_S
    if trace:
        from layers import UNITS
        _setup, rec = _child(workload, seed, seconds, "trace", deadline)
        metrics = {n: {"value": v, "unit": UNITS[n]} for n, v in rec["layers"].items()}
        notes = {k: rec[k] for k in ("absent", "not_exercised", "traced_ops", "spans",
                                     "spans_file")}
    else:
        setups = [_child(workload, seed, seconds, "setup", deadline)[0]
                  for _ in range(SETUP_PROBES)]
        setup, rec = _child(workload, seed, seconds, "timed", deadline)
        setups.append(setup)
        values = end_to_end(setups, rec)
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
        notes = {"ops_timed": len(rec["latencies_s"]), "setup_samples_s": setups}
    provenance = {"git_sha": _git_sha(), "nproc": os.cpu_count(),
                  "affinity": len(os.sched_getaffinity(0)), **rec["provenance"], **notes}
    print(json.dumps({"provenance": provenance}))
    for err in rec["errors"]:
        print(f"failed: {err}")
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:.6g} {m['unit']}")
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced; metric names get the workload as prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            print(f"== {workload} trace={int(trace)}")
            result = run(workload, seed, seconds, trace)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}.{name}": m
                                     for name, m in result["metrics"].items()})
    return total


def self_test() -> int:
    from layers import UNITS

    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]},
                [w["name"] for w in spec["workloads"]])
    if declared != (END_TO_END, UNITS, list(WORKLOADS)):
        print("BENCHMARK.json does not list the metrics and workloads this code reports")
        ok = False
    for workload in WORKLOADS:
        _setup, rec = _child(workload, 1, 3.0, "timed", perf_counter() + CHILD_TIMEOUT_S,
                             perturb=1e-4)
        detected = rec["failed"] > 0
        ok &= detected
        print(f"{workload}: shifted result -> {rec['failed']} of {rec['attempted']} "
              f"operations failed ({'detected' if detected else 'NOT detected'})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "ldpcontract" / "__init__.py").is_file():
        print(f"perfbench: no src/ldpcontract under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not (math.isfinite(args.seconds) and args.seconds > 0):
        ap.error("--seed must be non-negative and --seconds positive")
    if args.self_test:
        return self_test()
    try:
        if args.workload:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_all(args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
