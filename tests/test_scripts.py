"""Smoke runs of the read-only scripts in ``scripts/``, each in a fresh process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> list[list[str]]:
    """Run ``scripts/name`` with ``args``; return its stdout CSV rows after checking exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [line.split(",") for line in proc.stdout.splitlines()]


def _check_rows(rows: list[list[str]], header: list[str], count: int) -> None:
    assert rows[0] == header
    assert len(rows) == 1 + count
    for row in rows[1:]:
        assert len(row) == len(header)
        for cell in row:
            float(cell)  # every cell is a number


def test_contraction_sweep_script():
    rows = _run_script("contraction_sweep.py", "--channels", "2")
    header = ["eps", "upsilon", "max_eta_kl", "max_eta_chi2", "max_eta_h2", "max_eta_tv",
              "tv_ceiling"]
    _check_rows(rows, header, 6)  # one row per privacy level


def test_hadamard_rate_sweep_script():
    rows = _run_script("hadamard_rate_sweep.py", "--trials", "50")
    _check_rows(rows, ["n", "risk", "half_width", "lower_bound", "upper_bound"], 3)
    assert [row[0] for row in rows[1:]] == ["1000", "4000", "16000"]  # the default sizes


def test_cli_cost_script():
    rows = _run_script("cli_cost.py", "--reps", "1")
    assert rows[0] == ["call", "wall_ms", "cpu_ms"]
    assert [row[0] for row in rows[1:]] == ["python", "import", "build_rr", "build_hadamard",
                                            "audit", "contract_kl", "contract_tv",
                                            "contract_chi2_at", "bounds", "bound_bht", "fisher",
                                            "simulate_dist", "simulate_sc", "table1", "invalid"]
    for row in rows[1:]:
        assert float(row[1]) > 0.0 and float(row[2]) >= 0.0
