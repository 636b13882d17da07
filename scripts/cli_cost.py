#!/usr/bin/env python3
"""Fresh-process cost of each ldpcontract CLI verb, import included.

Each repetition runs every call below once, in order, as a new
``python -c "from ldpcontract.cli import main; main()" ARGS`` process, so
a drift in host load reaches all calls alike.  Per call it prints the
median wall time and the median CPU time of the child process (user +
system, from ``getrusage(RUSAGE_CHILDREN)``), which other processes on
the host move less than wall time.  The ``import`` row times
``import ldpcontract.cli`` alone and ``python`` an empty interpreter.
The children import the package from this checkout's ``src``.

    python scripts/cli_cost.py [--reps 21]
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_MAIN = "from ldpcontract.cli import main; main()"
LN3 = repr(math.log(3.0))

#: name -> (``python -c`` code, CLI arguments, expected exit status)
CALLS = {
    "python": ("pass", [], 0),
    "import": ("import ldpcontract.cli", [], 0),
    "build_rr": (CLI_MAIN, ["mechanism", "build", "--kind", "rr", "--k", "4"], 0),
    "build_hadamard": (CLI_MAIN, ["mechanism", "build", "--kind", "hadamard", "--d", "64"], 0),
    "audit": (CLI_MAIN, ["mechanism", "audit", "--channel", "rr.json"], 0),
    "contract_kl": (CLI_MAIN, ["contract", "--channel", "ldp.json", "--kind", "kl"], 0),
    "contract_tv": (CLI_MAIN, ["contract", "--channel", "ldp.json", "--kind", "tv"], 0),
    "contract_chi2_at": (CLI_MAIN, ["contract", "--channel", "ldp.json", "--kind", "chi2",
                                    "--at-dist", "p4.json"], 0),
    "bounds": (CLI_MAIN, ["bounds", "--eps", "1", "--tv", "0.5"], 0),
    "bound_bht": (CLI_MAIN, ["bound", "bht", "--eps", "1", "--tv", "0.5", "--h2", "0.3"], 0),
    "fisher": (CLI_MAIN, ["fisher", "--family", "gaussian", "--theta", "0.1,0.2",
                          "--sigma", "2"], 0),
    "simulate_dist": (CLI_MAIN, ["simulate", "dist", "--d", "4", "--eps", LN3, "--n", "4000",
                                 "--trials", "200", "--seed", "1"], 0),
    "simulate_sc": (CLI_MAIN, ["simulate", "sc", "--p", "p.json", "--q", "q.json", "--eps", LN3,
                               "--trials", "10000", "--seed", "1"], 0),
    "table1": (CLI_MAIN, ["table1", "--n", "10000", "--d", "64", "--eps", "1"], 0),
    "invalid": (CLI_MAIN, ["mechanism", "audit", "--channel", "bad.json"], 2),
}

FILES = {
    "rr.json": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
    "ldp.json": [[0.4, 0.35, 0.25], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4], [0.25, 0.35, 0.4]],
    "bad.json": [[-0.5, 1.5], [0.5, 0.5]],
    "p4.json": [0.2, 0.3, 0.1, 0.4],
    "p.json": [0.9, 0.1],
    "q.json": [0.1, 0.9],
}


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(code: str, argv: list[str], expect: int, cwd: str, env: dict) -> tuple[float, float]:
    """``(wall, cpu)`` seconds of one fresh process, which must exit with ``expect``."""
    cpu0, t0 = _child_cpu(), perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=300)
    wall, cpu = perf_counter() - t0, _child_cpu() - cpu0
    if proc.returncode != expect:
        raise SystemExit(f"{argv}: exit {proc.returncode}, expected {expect}\n{proc.stderr}")
    return wall, cpu


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=21)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be positive")

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    times: dict[str, list[tuple[float, float]]] = {name: [] for name in CALLS}
    with tempfile.TemporaryDirectory(prefix="cli_cost-") as cwd:
        for name, payload in FILES.items():
            Path(cwd, name).write_text(json.dumps(payload), encoding="utf-8")
        for _ in range(args.reps):
            for name, (code, argv, expect) in CALLS.items():
                times[name].append(run_once(code, argv, expect, cwd, env))

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["call", "wall_ms", "cpu_ms"])
    for name, runs in times.items():
        writer.writerow([name, f"{1e3 * statistics.median(w for w, _ in runs):.1f}",
                         f"{1e3 * statistics.median(c for _, c in runs):.1f}"])


if __name__ == "__main__":
    main()
