"""Contraction of locally private mechanisms and private minimax bounds.

Numerical library and CLI for working with epsilon-LDP channels on
finite alphabets: f-divergences and their contraction coefficients, the
closed-form privacy constants ``upsilon`` and ``psi``, canonical
mechanisms (randomized response, the binary mechanism, Hadamard
response), Fisher-information and minimax lower bounds, and seeded
Monte Carlo experiments that verify the bounds empirically.

Each public name here is imported from its module on first access (PEP 562),
so ``import ldpcontract`` loads no numpy; the closed forms live in the
math-only :mod:`ldpcontract.formulas`.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "formulas": "chi2_tv_bound extremal_tv_under_ldp prior_art_bounds psi upsilon",
    "contraction": "ContractionEstimate binary_input_kl_bound eta_bruteforce eta_chi2_at "
                   "eta_tv_exact",
    "mechanisms": "HadamardConfig PrivacyLevel audit_ldp binary_mechanism hadamard_estimate "
                  "hadamard_response randomized_response sample",
    "probability": "CHI2 H2 KL TV Channel DivergenceKind ProbVector chi2_via_eg_quadrature "
                   "divergence hellinger_via_eg_quadrature hockey_stick push_forward",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)  # ``from ldpcontract import *`` takes every one of them


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
