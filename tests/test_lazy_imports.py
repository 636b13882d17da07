"""What each import loads: the formula verbs run without numpy, and the lazy
re-exports are the objects they always were."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ldpcontract
from ldpcontract import cli, contraction, formulas, mechanisms, minimax, probability

ROOT = Path(__file__).resolve().parents[1]

#: The names ``contraction`` and ``minimax`` defined before they moved to ``formulas``.
MOVED = {
    contraction: ("ContractionError", "EPS_MAX", "check_eps", "upsilon", "psi", "chi2_tv_bound",
                  "prior_art_bounds", "extremal_tv_under_ldp"),
    minimax: ("BoundError", "BoundEntry", "BoundReport", "_pos_int", "_check_frac", "le_cam_lb",
              "le_cam_prior_lb", "entropy_estimation_lb", "assouad_lb",
              "distribution_estimation_lb", "hadamard_ub", "density_estimation_lb",
              "log_unit_ball_volume_l2", "mim_lb", "gaussian_location_lb",
              "gaussian_location_table1", "bht_sample_complexity"),
}

#: The package's public names, by the module it imported them from before it was lazy.
PACKAGE = {
    contraction: ("ContractionEstimate", "binary_input_kl_bound", "chi2_tv_bound",
                  "eta_bruteforce", "eta_chi2_at", "eta_tv_exact", "extremal_tv_under_ldp",
                  "prior_art_bounds", "psi", "upsilon"),
    mechanisms: ("HadamardConfig", "PrivacyLevel", "audit_ldp", "binary_mechanism",
                 "hadamard_estimate", "hadamard_response", "randomized_response", "sample"),
    probability: ("CHI2", "H2", "KL", "TV", "Channel", "DivergenceKind", "ProbVector",
                  "chi2_via_eg_quadrature", "divergence", "hellinger_via_eg_quadrature",
                  "hockey_stick", "push_forward"),
}

FORMULA_CALLS = [["bound", name] for name in cli._BOUNDS] + [
    ["bound", "bht", "--tv", "0.3", "--h2", "0.2"],
    ["bounds", "--eps", "0.5", "--tv", "0.25"],
    ["table1", "--n", "1000", "--d", "8", "--eps", "1"],
    ["bound", "entropy", "--k", "2"],  # a validation error
    ["bound", "le-cam", "--n", "many"],  # an invalid argument
]


def test_formula_verbs_never_import_numpy():
    code = (
        "import contextlib, io, sys\n"
        "import ldpcontract, ldpcontract.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        f"for argv in {FORMULA_CALLS!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        ldpcontract.cli.dispatch(argv)\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_moved_names_are_one_object_in_old_and_new_homes():
    for module, names in MOVED.items():
        for name in names:
            assert getattr(module, name) is getattr(formulas, name), (module.__name__, name)
        assert set(names) - {"_pos_int", "_check_frac"} <= set(module.__all__)


def test_package_names_are_the_modules_objects():
    assert sorted(ldpcontract._HOME) == sorted(n for names in PACKAGE.values() for n in names)
    for module, names in PACKAGE.items():
        for name in names:
            assert getattr(ldpcontract, name) is getattr(module, name), name
    for name in ("upsilon", "psi", "chi2_tv_bound", "prior_art_bounds", "extremal_tv_under_ldp"):
        assert getattr(ldpcontract, name) is getattr(formulas, name)
    assert set(ldpcontract._HOME) <= set(dir(ldpcontract))
    star: dict = {}
    exec("from ldpcontract import *", star)  # noqa: S102
    assert all(star[name] is getattr(ldpcontract, name) for name in ldpcontract._HOME)
    assert ldpcontract.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        ldpcontract.no_such_name  # noqa: B018


def test_cli_audit_ldp_is_readable_and_reassignable(tmp_path, monkeypatch):
    assert cli.audit_ldp is mechanisms.audit_ldp
    path = tmp_path / "rr.json"
    path.write_text("[[0.75, 0.25], [0.25, 0.75]]", encoding="utf-8")
    monkeypatch.setattr(cli, "audit_ldp", lambda k: 0.5, raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.dispatch(["mechanism", "audit", "--channel", str(path)]) == 0
    assert buf.getvalue() == '{"eps": 0.5}\n'
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "case", json.loads((ROOT / "tests" / "formula_verbs_stdout.json").read_text("utf-8")),
    ids=lambda case: " ".join(case["argv"]))
def test_formula_verbs_print_the_same_bytes(case, capsys):
    """Exit status and stdout as printed before the formulas moved to ``formulas``."""
    assert cli.dispatch(case["argv"]) == case["code"]
    assert capsys.readouterr().out == case["stdout"]
