"""Command-line interface: exit codes, file formats, and library agreement."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcontract import contraction, minimax, simulation
from ldpcontract.cli import _BOUNDS, SEED_ENV, dispatch
from ldpcontract.mechanisms import HadamardConfig, randomized_response
from ldpcontract.probability import KL, Channel, ProbVector
from ldpcontract.serialize import (
    channel_from_csv,
    channel_from_json,
    channel_to_json,
    distribution_to_json,
    emit_json,
)

LN3 = math.log(3.0)


@pytest.fixture
def run(capsys):
    def _run(*argv: str) -> tuple[int, str]:
        code = dispatch(list(argv))
        return code, capsys.readouterr().out

    return _run


# ------------------------------------------------------------- exit status


def test_unknown_command_exits_2(run):
    code, out = run("frobnicate")
    assert code == 2


def test_validation_error_exits_2_with_json(run):
    code, out = run("bounds", "--eps", "-1")
    assert code == 2
    assert "error" in json.loads(out)


def test_missing_required_flag_exits_2(run):
    code, _ = run("mechanism", "build", "--kind", "rr")  # no --k
    assert code == 2


# -------------------------------------------------------------- mechanisms


def test_mechanism_build_rr_matches_library(run, tmp_path):
    code, out = run("mechanism", "build", "--kind", "rr", "--k", "3", "--eps", "1.5")
    assert code == 0
    assert out.strip() == channel_to_json(randomized_response(3, 1.5)).strip()


def test_mechanism_build_to_file_and_audit(run, tmp_path):
    path = tmp_path / "chan.json"
    code, _ = run("mechanism", "build", "--kind", "rr", "--k", "4", "--eps", "1.0",
                  "--out", str(path))
    assert code == 0
    k = channel_from_json(path.read_text())
    np.testing.assert_array_equal(k.rows, randomized_response(4, 1.0).rows)
    code, out = run("mechanism", "audit", "--channel", str(path))
    assert code == 0
    assert json.loads(out)["eps"] == pytest.approx(1.0, abs=1e-12)


def test_mechanism_build_csv_round_trip(run, tmp_path):
    path = tmp_path / "chan.csv"
    code, _ = run("mechanism", "build", "--kind", "hadamard", "--d", "4",
                  "--eps", str(LN3), "--out", str(path), "--format", "csv")
    assert code == 0
    k = channel_from_csv(path.read_text())
    cfg = HadamardConfig.for_alphabet(4, LN3)
    assert k.n_out == cfg.n_out


def test_mechanism_binary_from_files(run, tmp_path):
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(distribution_to_json(ProbVector(np.array([0.9, 0.1]))))
    q_path.write_text(distribution_to_json(ProbVector(np.array([0.1, 0.9]))))
    code, out = run("mechanism", "build", "--kind", "binary", "--eps", str(LN3),
                    "--p", str(p_path), "--q", str(q_path))
    assert code == 0
    rows = json.loads(out)
    assert rows[0][0] == pytest.approx(0.75, abs=1e-15)


# -------------------------------------------------------------- contraction


def test_contract_matches_library_bit_exact(run, tmp_path):
    path = tmp_path / "chan.json"
    path.write_text(channel_to_json(randomized_response(3, 1.0)))
    code, out = run("contract", "--channel", str(path), "--kind", "kl")
    assert code == 0
    est = contraction.eta_bruteforce(randomized_response(3, 1.0), KL)
    payload = json.loads(out)
    assert payload["value"] == est.value  # bit-exact via 17-digit round trip
    assert payload["method"] == "pair_sup"

    code, out = run("contract", "--channel", str(path), "--kind", "tv")
    assert json.loads(out)["value"] == contraction.eta_tv_exact(
        randomized_response(3, 1.0)).value


def test_contract_ignores_grid(run, tmp_path):
    # --grid sized a seeding grid that the search no longer has: accepted, never used
    path = tmp_path / "chan.json"
    rows = np.array([[0.327, 0.499, 0.174], [0.95, 0.048, 0.002], [0.478, 0.001, 0.521]])
    path.write_text(channel_to_json(Channel(rows)))
    for kind in ("kl", "chi2", "h2"):
        code, out = run("contract", "--channel", str(path), "--kind", kind)
        assert code == 0
        assert run("contract", "--channel", str(path), "--kind", kind, "--grid", "3") == (0, out)


def test_contract_at_dist(run, tmp_path):
    chan = tmp_path / "chan.json"
    dist = tmp_path / "p.json"
    chan.write_text(channel_to_json(randomized_response(2, 1.0)))
    dist.write_text(distribution_to_json(ProbVector.uniform(2)))
    code, out = run("contract", "--channel", str(chan), "--kind", "chi2",
                    "--at-dist", str(dist))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(contraction.upsilon(1.0), abs=1e-12)
    assert json.loads(out)["method"] == "svd"
    code, _ = run("contract", "--channel", str(chan), "--kind", "kl",
                  "--at-dist", str(dist))
    assert code == 2


def test_contract_at_dist_on_a_constant_channel(run, tmp_path):
    chan = tmp_path / "chan.json"
    dist = tmp_path / "p.json"
    chan.write_text(channel_to_json(Channel(np.array([[1.0], [1.0]]))))
    dist.write_text(distribution_to_json(ProbVector.uniform(2)))
    code, out = run("contract", "--channel", str(chan), "--kind", "chi2",
                    "--at-dist", str(dist))
    assert code == 0
    assert json.loads(out)["value"] == 0


# ------------------------------------------------------------------- bounds


def test_bounds_constants(run):
    code, out = run("bounds", "--eps", str(LN3), "--tv", "0.5")
    assert code == 0
    entries = {e["name"]: e["value"] for e in json.loads(out)["bounds"]}
    assert entries["upsilon"] == pytest.approx(0.25, abs=1e-15)
    assert entries["psi"] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert entries["chi2_vs_tv"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert "prior_kl_quadratic" in entries and "prior_tv_quadratic" in entries


def test_module_entry_point_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ldpcontract.cli", "bounds", "--eps", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    entries = {e["name"]: e["value"] for e in json.loads(proc.stdout)["bounds"]}
    assert entries["upsilon"] == contraction.upsilon(1.0)


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import ldpcontract.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bound_subcommands_match_library(run):
    code, out = run("bound", "le-cam", "--n", "16", "--eps", "1.0",
                    "--alpha", "1.0", "--kl", "0.02", "--tv", "0.05")
    assert code == 0
    assert json.loads(out)["value"] == minimax.le_cam_lb(16, 1.0, 1.0, 0.02, 0.05)

    code, out = run("bound", "bht", "--eps", "1.0", "--tv", "0.8", "--h2", "0.8")
    lower, upper = minimax.bht_sample_complexity(1.0, 0.8, 0.8)
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == (lower, upper)

    code, out = run("bound", "hadamard-ub", "--n", "400", "--eps", str(LN3),
                    "--d", "4", "--h", "2")
    assert json.loads(out)["value"] == minimax.hadamard_ub(400, LN3, 4, 2.0)


#: Every shared ``bound`` flag, each with a distinct valid value, so a flag read
#: in the wrong argument position changes the result.
SHARED_BOUND_FLAGS = ("--n 37 --eps 0.7 --alpha 1.3 --kl 0.03 --tv 0.2 --h2 0.35 --k 5 --tau 0.4 "
                      "--tv-sq-sum 0.02 --d 3 --h 2.5 --beta 0.6 --r 1.5 --sigma 1.7 --rad 0.9 "
                      "--vol-ratio 1.2 --log-vd 0.8 --entropy-prior 0.1 --mutual-info 0.25").split()


@pytest.mark.parametrize("name, argv, expected", [
    ("le-cam", SHARED_BOUND_FLAGS, lambda: minimax.le_cam_lb(37, 0.7, 1.3, 0.03, 0.2)),
    ("le-cam-prior", SHARED_BOUND_FLAGS, lambda: minimax.le_cam_prior_lb(37, 0.7, 1.3, 0.2)),
    ("entropy", SHARED_BOUND_FLAGS, lambda: minimax.entropy_estimation_lb(37, 0.7, 5)),
    ("assouad", SHARED_BOUND_FLAGS, lambda: minimax.assouad_lb(37, 0.7, 5, 0.4, 0.02)),
    ("distribution", SHARED_BOUND_FLAGS,
     lambda: minimax.distribution_estimation_lb(37, 0.7, 3, 2.5)),
    ("hadamard-ub", SHARED_BOUND_FLAGS, lambda: minimax.hadamard_ub(37, 0.7, 3, 2.5)),
    ("density", SHARED_BOUND_FLAGS, lambda: minimax.density_estimation_lb(37, 0.7, 0.6, 2.5)),
    ("mim", SHARED_BOUND_FLAGS, lambda: minimax.mim_lb(3, 1.5, 0.8, 0.1, 0.25, 0.7)),
    ("gaussian", SHARED_BOUND_FLAGS,
     lambda: minimax.gaussian_location_lb(37, 3, 1.5, 1.7, 0.7, 0.8, 1.2, 0.9)),
    ("gaussian-table1", SHARED_BOUND_FLAGS,
     lambda: minimax.gaussian_location_table1(37, 3, 1.7, 0.7)),
    ("bht", SHARED_BOUND_FLAGS, lambda: minimax.bht_sample_complexity(0.7, 0.2, 0.35)),
    # without --log-vd, mim and gaussian take the unit l2 ball of dimension --d
    ("mim", [], lambda: minimax.mim_lb(1, 2.0, minimax.log_unit_ball_volume_l2(1), 0.0, 0.0, 1.0)),
    ("gaussian", ["--d", "3"], lambda: minimax.gaussian_location_lb(
        1, 3, 2.0, 1.0, 1.0, minimax.log_unit_ball_volume_l2(3), 1.0, 1.0)),
])
def test_every_bound_name_is_its_library_formula(run, name, argv, expected):
    code, out = run("bound", name, *argv)
    assert code == 0
    value = expected()
    fields = ({"lower": value[0], "upper": value[1]} if isinstance(value, tuple)
              else {"value": value})
    assert json.loads(out) == {"name": name, **fields}  # bit-exact via 17-digit round trip


# ------------------------------------------------------------------- fisher


def test_fisher_multinomial_entropy(run):
    code, out = run("fisher", "--family", "multinomial", "--theta", "0.2,0.3",
                    "--functional", "entropy", "--n", "100", "--eps", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"fisher", "fisher_inverse", "fisher_numeric",
                            "entropy_gradient", "cramer_rao_private_lb",
                            "private_fisher_bound"}


def test_fisher_gaussian(run):
    code, out = run("fisher", "--family", "gaussian", "--theta", "0.0", "--sigma", "2.0")
    assert code == 0
    assert json.loads(out)["fisher"][0][0] == pytest.approx(0.25, abs=1e-8)


# ----------------------------------------------------------------- simulate


@pytest.mark.parametrize("argv", [
    ["simulate", "dist", "--d", "4", "--n", "2", "--eps", "0.01", "--h", "200", "--trials", "20",
     "--seed", "1"],
    ["simulate", "binom", "--n", "1000000000000", "--prob", "0.5", "--h", "30", "--trials", "100",
     "--seed", "1"],
], ids=" ".join)
def test_simulate_overflowing_powers_give_finite_results_without_a_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = dispatch(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == "", (out, err)
    payload = json.loads(out)
    assert math.isfinite(payload["estimate"]) and math.isfinite(payload["half_width"])


def test_simulate_bht_matches_library(run, tmp_path):
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(distribution_to_json(ProbVector(np.array([0.9, 0.1]))))
    q_path.write_text(distribution_to_json(ProbVector(np.array([0.1, 0.9]))))
    code, out = run("simulate", "bht", "--p", str(p_path), "--q", str(q_path),
                    "--eps", str(LN3), "--n", "10", "--trials", "4000", "--seed", "7")
    assert code == 0
    r1, r2 = simulation.simulate_bht(
        ProbVector(np.array([0.9, 0.1])), ProbVector(np.array([0.1, 0.9])),
        LN3, 10, 4000, 7)
    ref = emit_json({"type_i": r1.to_payload(), "type_ii": r2.to_payload()})
    assert out.strip() == ref.strip()


@pytest.mark.parametrize("eps", ["40", "709.78"])
def test_simulate_bht_and_sc_when_a_privatized_mass_rounds_to_one(run, tmp_path, eps):
    # at these eps, e^eps / (1 + e^eps) is 1.0 in floating point
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(distribution_to_json(ProbVector(np.array([1.0, 0.0]))))
    q_path.write_text(distribution_to_json(ProbVector(np.array([0.0, 1.0]))))
    pq = ["--p", str(p_path), "--q", str(q_path), "--eps", eps, "--seed", "3"]
    code, out = run("simulate", "bht", *pq, "--n", "5", "--trials", "500")
    assert code == 0, out
    payload = json.loads(out)
    assert payload["type_i"]["estimate"] == 0 and payload["type_ii"]["estimate"] == 0
    code, out = run("simulate", "sc", *pq, "--trials", "500")
    assert code == 0, out
    assert json.loads(out)["sample_complexity"] == 1


def test_simulate_seed_env_var(run, monkeypatch, tmp_path):
    monkeypatch.setenv(SEED_ENV, "123")
    code, out_env = run("simulate", "binom", "--n", "20", "--prob", "0.4",
                        "--h", "2", "--trials", "500")
    assert code == 0
    code, out_explicit = run("simulate", "binom", "--n", "20", "--prob", "0.4",
                             "--h", "2", "--trials", "500", "--seed", "123")
    assert out_env == out_explicit
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    code, _ = run("simulate", "binom", "--n", "20", "--prob", "0.4",
                  "--h", "2", "--trials", "500")
    assert code == 2


def test_simulate_report_round_trips(run, tmp_path):
    code, out = run("simulate", "binom", "--n", "30", "--prob", "0.5", "--h", "3",
                    "--trials", "1000", "--seed", "5")
    assert code == 0
    assert emit_json(json.loads(out)).strip() == out.strip()


def test_simulate_binom_prints_only_the_monte_carlo_result(run):
    code, out = run("simulate", "binom", "--n", "30", "--prob", "0.5", "--h", "3",
                    "--trials", "1000", "--seed", "5")
    assert code == 0
    res = simulation.binomial_moment_check(30, 0.5, 3.0, 1000, 5)
    assert out == emit_json(res.to_payload()) + "\n"


# ------------------------------------------------------------- invalid input

TABLE1 = ["table1", "--n", "1000", "--d", "4", "--eps", "1"]
INVALID_ARGV = [
    # table1 outside the domains of its formulas
    TABLE1 + ["--tv", "0"], TABLE1 + ["--h2", "0"], TABLE1 + ["--n", "0"], TABLE1 + ["--h", "0"],
    TABLE1 + ["--tv", "2"], TABLE1 + ["--tv", "-0.5"], TABLE1 + ["--beta", "2"],
    TABLE1 + ["--h", "0.5"], TABLE1 + ["--h2", "3"],
    TABLE1 + ["--k", "0"], TABLE1 + ["--k", "1"], TABLE1 + ["--k", "2"],
    # formulas that do not go through upsilon or psi still check eps
    ["bound", "le-cam-prior", "--eps", "-1"], ["bound", "gaussian-table1", "--eps", "-1"],
    ["bound", "gaussian-table1", "--eps", "nan"], ["bound", "hadamard-ub", "--eps", "inf"],
    # eps past EPS_MAX, where e^eps overflows a double
    ["bounds", "--eps", "710"], TABLE1 + ["--eps", "1e300"],
    ["mechanism", "build", "--kind", "rr", "--k", "3", "--eps", "710"],
    ["fisher", "--family", "gaussian", "--theta", "0", "--n", "10", "--eps", "1e300"],
    # results outside the range of a double: overflow, or a divisor underflowed to 0
    ["bound", "gaussian", "--r", "1000", "--rad", "10"],
    ["bound", "density", "--h", "1e6", "--n", "2", "--eps", "0.01"],
    ["bound", "mim", "--r", "2", "--d", "1000", "--entropy-prior", "1e6"],
    ["table1", "--n", "2", "--d", "4", "--eps", "0.001", "--h", "1e6"],
    ["bound", "bht", "--eps", "1", "--tv", "1e-200", "--h2", "0.5"],
    ["table1", "--n", "1000", "--d", "4", "--eps", "1e-300"],
    ["simulate", "binom", "--n", "1000000000000", "--prob", "0.5", "--h", "100"],
    # a Gauss-Hermite grid of 40**6 nodes
    ["fisher", "--family", "gaussian", "--theta", "0,0,0,0,0,0"],
    # no worker, also where the experiment draws from one stream
    ["simulate", "bht", "--p", "{p}", "--q", "{q}", "--n", "10", "--workers", "0"],
    ["simulate", "sc", "--p", "{p}", "--q", "{q}", "--workers", "0"],
    ["simulate", "binom", "--workers", "0"], ["simulate", "dist", "--workers", "0"],
    # an infinite separation or loss power, where the formulas give NaN
    ["bound", "le-cam", "--alpha", "inf", "--kl", "1", "--tv", "0.5", "--n", "100"],
    ["bound", "le-cam-prior", "--alpha", "inf", "--tv", "0.5", "--n", "100"],
    ["bound", "assouad", "--tau", "inf", "--tv-sq-sum", "1", "--n", "100"],
    ["bound", "gaussian", "--r", "inf"],
    # a norm order that is not a finite number
    ["simulate", "dist", "--h", "inf"], ["simulate", "dist", "--h", "nan"],
    # NaN, and the l_inf limit, which the finite-h formula does not give
    ["bound", "assouad", "--tv-sq-sum", "nan"], ["bound", "distribution", "--h", "nan"],
    ["bound", "distribution", "--h", "inf"],
    # an array numpy refuses at once: a 1.42 PiB channel
    ["mechanism", "build", "--kind", "hadamard", "--d", "10000000", "--eps", "1"],
]


@pytest.mark.parametrize("argv", INVALID_ARGV, ids=" ".join)
def test_invalid_input_exits_2_with_one_json_error_line(run, tmp_path, argv):
    files = {name: tmp_path / f"{name}.json" for name in "pqc"}  # read by {p}, {q} and {c}
    files["p"].write_text(distribution_to_json(ProbVector(np.array([0.9, 0.1]))))
    files["q"].write_text(distribution_to_json(ProbVector(np.array([0.1, 0.9]))))
    files["c"].write_text(channel_to_json(randomized_response(3, 1.0)))
    code, out = run(*(arg.format_map(files) for arg in argv))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert json.loads(lines[0])["error"] != "cannot serialize NaN"  # refused as an input


@pytest.mark.parametrize("argv", [
    ["bound", name, f"--{flag}", "nan"] for name, flag in (
        ("le-cam", "alpha"), ("le-cam", "kl"), ("le-cam-prior", "alpha"), ("assouad", "tau"),
        ("density", "h"), ("mim", "log-vd"), ("mim", "entropy-prior"), ("mim", "mutual-info"),
        ("gaussian", "log-vd"))
], ids=" ".join)
def test_nan_input_is_refused_as_an_input(run, argv):
    code, out = run(*argv)
    assert code == 2
    assert json.loads(out)["error"] != "cannot serialize NaN"

def test_invalid_input_prints_no_traceback_in_a_fresh_process():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ldpcontract.cli", *TABLE1, "--n", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert set(json.loads(proc.stdout)) == {"error"}
    assert "Traceback" not in proc.stderr


# ints up to 10^30 and the float extremes; "--flag=value" lets a value start with "-"
_EXTREME_INT = st.integers(-10**30, 10**30).map(str)
_EXTREME = st.sampled_from(["0", "1e-320", "-1e-320", "1e-200", "1e300", "1e308", "inf",
                            "nan"]) | _EXTREME_INT
_INT_FLAGS = ("--n", "--k", "--d")
_BOUND_FLAGS = ("--eps", "--alpha", "--kl", "--tv", "--h2", "--tau", "--tv-sq-sum", "--h",
                "--beta", "--r", "--sigma", "--rad", "--vol-ratio", "--log-vd",
                "--entropy-prior", "--mutual-info")
_TABLE1_FLAGS = ("--k", "--h", "--beta", "--sigma", "--tv", "--h2")


def _flags(names, required=()):
    def value(name):
        return _EXTREME_INT if name in _INT_FLAGS else _EXTREME

    return st.fixed_dictionaries({name: value(name) for name in required},
                                 optional={name: value(name) for name in names})


_FORMULA_ARGV = (
    st.tuples(st.sampled_from([["bound", name] for name in _BOUNDS]),
              _flags(_INT_FLAGS + _BOUND_FLAGS))
    | st.tuples(st.just(["table1"]), _flags(_TABLE1_FLAGS, required=("--n", "--d", "--eps")))
).map(lambda cmd_flags: cmd_flags[0] + [f"{k}={v}" for k, v in cmd_flags[1].items()])


@settings(max_examples=300, deadline=None)
@given(argv=_FORMULA_ARGV)
def test_formula_verbs_exit_0_or_2_with_one_line_on_extreme_inputs(argv):
    """The pure-formula verbs never let an exception out, whatever the flag values."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    text = out.getvalue()
    assert code in (0, 2), (argv, text)
    reads = _BOUNDS[argv[1]][1] if argv[0] == "bound" else [f[2:] for f in _TABLE1_FLAGS] + ["eps"]
    if any(f"--{name.replace('_', '-')}=nan" in argv for name in reads):
        # a NaN the formula reads is refused as an input, not met at serialization
        assert code == 2 and "cannot serialize NaN" not in text, (argv, text)
    if code == 2:
        assert text.count("\n") == 1 and set(json.loads(text)) == {"error"}, (argv, text)
    elif argv[0] == "table1":
        assert text.startswith("problem,upper_bound,previous_lower_bound,lower_bound\n"), argv
    else:
        assert text.count("\n") == 1, (argv, text)
        json.loads(text)


def test_importing_the_cli_starts_no_thread():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import threading, ldpcontract.cli; print(threading.active_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("eps", ["30", "400", "710", "1e300"])
def test_every_verb_handles_large_eps(run, tmp_path, eps):
    """Inside the domain every verb prints a result (Infinity allowed); past it, one error."""
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(distribution_to_json(ProbVector(np.array([0.9, 0.1]))))
    q_path.write_text(distribution_to_json(ProbVector(np.array([0.1, 0.9]))))
    pq = ["--p", str(p_path), "--q", str(q_path)]
    calls = [
        ["mechanism", "build", "--kind", "rr", "--k", "3"],
        ["mechanism", "build", "--kind", "binary", *pq],
        ["mechanism", "build", "--kind", "hadamard", "--d", "4"],
        ["bounds"], ["bounds", "--tv", "0.5"], ["bounds", "--tv", "0"],
        *(["bound", name, "--tv", "0.5", "--h2", "0.5"] for name in
          ("le-cam", "le-cam-prior", "entropy", "assouad", "distribution", "hadamard-ub",
           "density", "mim", "gaussian", "gaussian-table1", "bht")),
        ["fisher", "--family", "gaussian", "--theta", "0", "--n", "10"],
        ["fisher", "--family", "multinomial", "--theta", "0.2,0.3", "--functional", "entropy",
         "--n", "100"],
        ["simulate", "dist", "--d", "4", "--n", "400", "--trials", "20", "--seed", "1"],
        ["simulate", "bht", *pq, "--n", "10", "--trials", "50", "--seed", "7"],
        ["simulate", "sc", *pq, "--trials", "20", "--seed", "1"],
        ["table1", "--n", "1000", "--d", "4"],
    ]
    in_domain = float(eps) <= contraction.EPS_MAX
    for argv in calls:
        code, out = run(*argv, "--eps", eps)
        assert code == (0 if in_domain else 2), (argv, out)
        if argv[0] == "table1" and in_domain:
            assert out.startswith("problem,upper_bound,previous_lower_bound,lower_bound\n")
        elif in_domain:
            json.loads(out)
        else:
            assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("argv", [
    ["mechanism", "build", "--kind", "hadamard", "--d", "4"],
    ["simulate", "dist", "--d", "4", "--n", "100", "--trials", "5", "--seed", "1"],
], ids=" ".join)
def test_hadamard_layout_near_eps_max(run, argv):
    # (B/2) e^eps overflows at 709.78 with B = 8; at 708 it does not, but 4 x it does
    code, out = run(*argv, "--eps", "709.78")
    assert code == 2
    assert "too large for the Hadamard layout" in json.loads(out)["error"]
    code, out = run(*argv, "--eps", "708")
    assert code == 0
    payload = json.loads(out)
    if argv[0] == "simulate":
        assert math.isfinite(payload["estimate"])


def test_assouad_zero_tv_budget_near_eps_max(run):
    code, out = run("bound", "assouad", "--eps", "709.78", "--k", "4", "--tau", "0.5")
    assert code == 0
    assert json.loads(out)["value"] == 2.0


# ------------------------------------------------------------------- table1


def test_table1_structure(run):
    code, out = run("table1", "--n", "1000", "--d", "4", "--eps", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "problem,upper_bound,previous_lower_bound,lower_bound"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["entropy_estimation", "distribution_estimation",
                     "density_estimation", "gaussian_location",
                     "bht_sample_complexity"]
    # entropy/gaussian have no matching upper bound at desk scale
    table = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    assert table["entropy_estimation"][0] == "N.A."
    assert table["gaussian_location"][0] == "N.A."
    # high-privacy prior columns disappear for eps > 1
    code, out = run("table1", "--n", "1000", "--d", "4", "--eps", "2.0")
    table = {ln.split(",")[0]: ln.split(",")[1:] for ln in out.strip().splitlines()[1:]}
    assert table["density_estimation"][1] == "N.A."
    assert table["bht_sample_complexity"][1] == "N.A."


def test_table1_near_eps_max_has_finite_positive_lower_cells(run):
    # n psi and e^eps / h2 overflow here, not the cells themselves
    code, out = run("table1", "--n", "1000", "--d", "4", "--eps", "709.78")
    assert code == 0
    table = {ln.split(",")[0]: ln.split(",")[1:] for ln in out.strip().splitlines()[1:]}
    for name, (_, prev, lower) in table.items():
        for cell in (prev, lower):
            assert cell == "N.A." or 0.0 < float(cell) < math.inf, (name, cell)
    upper, _, lower = table["bht_sample_complexity"]
    assert float(lower) <= float(upper)
