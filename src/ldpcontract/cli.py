"""Command-line interface.

Subcommands mirror the library surface:

* ``mechanism build|audit`` - construct canonical channels, measure
  the privacy level of an arbitrary channel file;
* ``contract`` - contraction-coefficient estimates for a channel;
* ``bounds`` - the privacy constants and divergence comparison bounds
  for a given ``(eps, tv)``;
* ``bound NAME`` - individual minimax bound formulas;
* ``fisher`` - information matrices and private estimation floors;
* ``simulate dist|bht|sc|binom`` - seeded Monte Carlo experiments;
* ``table1`` - a CSV summary of the headline rates for one parameter
  setting.

All structured output is JSON with floats printed at 17 significant
digits (lossless round-trip; re-emitting a parsed report reproduces the
same bytes).  Validation failures, and results outside the range of a
double, print a single machine-readable ``{"error": ...}`` line and exit
with status 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

from . import formulas, serialize
from .serialize import emit_json

__all__ = ["dispatch", "main"]

SEED_ENV = "LDPCONTRACT_SEED"


# Each verb imports the numpy-backed modules it uses: ``bound``, ``bounds`` and ``table1`` never do.
def __getattr__(name: str):
    """``audit_ldp`` on first access; ``mechanism audit`` calls it from here, reassigned or not."""
    if name == "audit_ldp":
        from .mechanisms import audit_ldp
        return audit_ldp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(ValueError):
    """User-facing validation error (exit status 2)."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"environment variable {SEED_ENV} must be an integer, got {raw!r}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load(path: str, what: str):
    """Parse a ``channel`` or ``distribution`` file: CSV if ``path`` ends in .csv, else JSON."""
    fmt = "csv" if path.endswith(".csv") else "json"
    return getattr(serialize, f"{what}_from_{fmt}")(_read_text(path))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _parse_theta(text: str):
    import numpy as np
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise CliError(f"invalid parameter vector {text!r}") from exc


# ----------------------------------------------------------------- commands


def _cmd_mechanism(args) -> int:
    if args.action == "audit":
        if not args.channel:
            raise CliError("audit requires --channel")
        print(emit_json({"eps": sys.modules[__name__].audit_ldp(_load(args.channel, "channel"))}))
        return 0

    from .mechanisms import HadamardConfig, binary_mechanism, hadamard_response, randomized_response
    if args.kind == "rr":
        if args.k is None:
            raise CliError("randomized response requires --k")
        channel = randomized_response(args.k, args.eps)
    elif args.kind == "binary":
        if not (args.p and args.q):
            raise CliError("binary mechanism requires --p and --q")
        channel = binary_mechanism(_load(args.p, "distribution"), _load(args.q, "distribution"),
                                   args.eps)
    elif args.kind == "hadamard":
        if args.d is None:
            raise CliError("hadamard response requires --d")
        if args.B is not None or args.b is not None:
            if args.B is None or args.b is None:
                raise CliError("custom layout requires both --B and --b")
            cfg = HadamardConfig(d=args.d, eps=args.eps, B=args.B, b=args.b)
        else:
            cfg = HadamardConfig.for_alphabet(args.d, args.eps)
        channel = hadamard_response(cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown mechanism kind {args.kind!r}")

    if args.format == "csv":
        _write_output(serialize.channel_to_csv(channel), args.out)
    else:
        _write_output(serialize.channel_to_json(channel), args.out)
    return 0


def _cmd_contract(args) -> int:
    from . import contraction
    from .probability import DivergenceKind
    channel = _load(args.channel, "channel")
    kind = DivergenceKind(args.kind)
    if args.at_dist is not None:
        if args.kind != "chi2":
            raise CliError("--at-dist applies only to the chi2 coefficient")
        p = _load(args.at_dist, "distribution")
        value = contraction.eta_chi2_at(p, channel)
        print(emit_json({"value": value, "kind": "chi2", "method": "svd",
                         "at": p.mass}))
        return 0
    if args.kind == "tv":
        est = contraction.eta_tv_exact(channel)
    else:
        est = contraction.eta_bruteforce(channel, kind)
    print(emit_json({"value": est.value, "kind": est.kind.tag, "method": est.method,
                     "witness_p": est.witness_p.mass, "witness_q": est.witness_q.mass}))
    return 0


def _cmd_bounds(args) -> int:
    report = formulas.BoundReport()
    report.add("upsilon", formulas.upsilon(args.eps), "value", eps=args.eps)
    report.add("psi", formulas.psi(args.eps), "value", eps=args.eps)
    report.add("extremal_tv", formulas.extremal_tv_under_ldp(args.eps), "value", eps=args.eps)
    if args.tv is not None:
        report.add("chi2_vs_tv", formulas.chi2_tv_bound(args.eps, args.tv), "upper",
                   group="chi2_out", eps=args.eps, tv=args.tv)
        for name, value in formulas.prior_art_bounds(args.eps, args.tv).items():
            report.add(f"prior_{name}", value, "upper", group="chi2_out_prior",
                       eps=args.eps, tv=args.tv)
    print(emit_json({"bounds": report.to_payload()}))
    return 0


#: ``bound NAME`` -> (scalar bound formula, the shared flags it takes, in argument order)
_BOUNDS = {
    "le-cam": (formulas.le_cam_lb, ("n", "eps", "alpha", "kl", "tv")),
    "le-cam-prior": (formulas.le_cam_prior_lb, ("n", "eps", "alpha", "tv")),
    "entropy": (formulas.entropy_estimation_lb, ("n", "eps", "k")),
    "assouad": (formulas.assouad_lb, ("n", "eps", "k", "tau", "tv_sq_sum")),
    "distribution": (formulas.distribution_estimation_lb, ("n", "eps", "d", "h")),
    "hadamard-ub": (formulas.hadamard_ub, ("n", "eps", "d", "h")),
    "density": (formulas.density_estimation_lb, ("n", "eps", "beta", "h")),
    "mim": (formulas.mim_lb, ("d", "r", "log_vd", "entropy_prior", "mutual_info", "eps")),
    "gaussian": (formulas.gaussian_location_lb,
                 ("n", "d", "r", "sigma", "eps", "log_vd", "vol_ratio", "rad")),
    "gaussian-table1": (formulas.gaussian_location_table1, ("n", "d", "sigma", "eps")),
    "bht": (formulas.bht_sample_complexity, ("eps", "tv", "h2")),
}


def _cmd_bound(args) -> int:
    fn, flags = _BOUNDS[args.name]
    if args.log_vd is None and "log_vd" in flags:
        args.log_vd = formulas.log_unit_ball_volume_l2(args.d)  # the unit l2 ball
    value = fn(*(getattr(args, flag) for flag in flags))
    # a (lower, upper) pair, as from bht, prints as two fields
    fields = dict(zip(("lower", "upper"), value)) if isinstance(value, tuple) else {"value": value}
    print(emit_json({"name": args.name, **fields}))
    return 0


def _cmd_fisher(args) -> int:
    from . import fisher
    theta = _parse_theta(args.theta)
    payload: dict = {"family": args.family, "theta": theta}
    if args.family == "multinomial":
        fam = fisher.multinomial_family(theta.size + 1)
        info = fisher.fisher_multinomial(theta)
        payload["fisher"] = info
        payload["fisher_inverse"] = inverse = fisher.fisher_multinomial_inverse(theta)
        payload["fisher_numeric"] = fisher.fisher_numeric(fam, theta)
        if args.functional == "entropy":
            grad = fisher.multinomial_entropy_gradient(theta)
            payload["entropy_gradient"] = grad
            if args.n is not None:
                payload["cramer_rao_private_lb"] = fisher.cramer_rao_private_lb(
                    args.n, args.eps, grad, inverse)
    elif args.family == "bernoulli":
        if theta.size != 1:
            raise CliError("bernoulli family takes a single parameter")
        fam = fisher.bernoulli_family()
        info = fisher.fisher_numeric(fam, theta)
        payload["fisher"] = info
    else:  # gaussian
        fam = fisher.gaussian_location_family(args.sigma, d=theta.size)
        info = fisher.fisher_numeric(fam, theta)
        payload["fisher"] = info
    if args.n is not None:
        payload["private_fisher_bound"] = fisher.private_fisher_bound(args.n, args.eps, info)
    print(emit_json(payload))
    return 0


def _cmd_simulate(args) -> int:
    from . import simulation
    from .mechanisms import HadamardConfig
    from .probability import ProbVector
    seed = args.seed if args.seed is not None else _default_seed()
    if args.experiment == "dist":
        cfg = HadamardConfig.for_alphabet(args.d, args.eps)
        p = (_load(args.p, "distribution") if args.p
             else ProbVector.uniform(args.d))
        res = simulation.simulate_dist_estimation(
            cfg, p, args.n, args.h, args.trials, seed, workers=args.workers)
        print(emit_json(res.to_payload()))
    elif args.experiment == "bht":
        p = _load(args.p, "distribution")
        q = _load(args.q, "distribution")
        r1, r2 = simulation.simulate_bht(p, q, args.eps, args.n, args.trials, seed,
                                         workers=args.workers)
        print(emit_json({"type_i": r1.to_payload(), "type_ii": r2.to_payload()}))
    elif args.experiment == "sc":
        p = _load(args.p, "distribution")
        q = _load(args.q, "distribution")
        n_star = simulation.empirical_sample_complexity(
            p, q, args.eps, trials=args.trials, seed=seed, workers=args.workers)
        print(emit_json({"sample_complexity": n_star, "trials": args.trials, "seed": seed}))
    else:  # binom
        res = simulation.binomial_moment_check(args.n, args.prob, args.h, args.trials, seed,
                                               workers=args.workers)
        print(emit_json(res.to_payload()))
    return 0


def _fmt_cell(value) -> str:
    if value is None:
        return "N.A."
    return format(float(value), ".17g")


def _cmd_table1(args) -> int:
    if args.eps <= 0:
        raise CliError("table requires eps > 0")
    # The library cells come first, so their input checks (n, d, h, beta, sigma, eps) run
    # before the order-level cells below; the entropy and bht calls check k, tv and h2.
    formulas.entropy_estimation_lb(args.n, args.eps, args.k)
    density = formulas.density_estimation_lb(args.n, args.eps, args.beta, args.h)
    gaussian = formulas.gaussian_location_table1(args.n, args.d, args.sigma, args.eps)
    formulas.bht_sample_complexity(args.eps, args.tv, args.h2)
    e = math.exp(args.eps)
    u = formulas.upsilon(args.eps)
    psi_e = formulas.psi(args.eps)
    tv, h2 = args.tv, args.h2
    # n psi and e^eps / h2 overflow near EPS_MAX; sqrt(n) sqrt(psi) and e^eps / psi do not
    n_psi = args.n * psi_e
    root = math.sqrt(n_psi) if math.isfinite(n_psi) else math.sqrt(args.n) * math.sqrt(psi_e)
    bht_lower = (1.0 / psi_e) * max(1.0 / (tv * tv), e / h2)
    if math.isinf(bht_lower):
        bht_lower = max(1.0 / (tv * tv) / psi_e, e / psi_e / h2)

    shared_dist = min(1.0, args.d ** (1.0 / args.h) / root, (1.0 / root) ** (1.0 - 1.0 / args.h))
    rows = [
        ("entropy_estimation", None, None,
         min(1.0, (1.0 / args.n) * ((e + 1.0) / (e - 1.0)) ** 2) * math.log(args.k) ** 2),
        ("distribution_estimation",
         formulas.hadamard_ub(args.n, args.eps, args.d, args.h) if 2.0 <= args.h <= 100.0 else None,
         shared_dist, shared_dist),
        ("density_estimation", None,
         (args.n * args.eps**2) ** (-args.h * args.beta / (2.0 * args.beta + 2.0))
         if args.eps <= 1.0 else None,
         density),
        ("gaussian_location", None, None, gaussian),
        ("bht_sample_complexity",
         1.0 / (u * tv * tv),
         1.0 / (args.eps**2 * tv * tv) if args.eps <= 1.0 else None,
         bht_lower),
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["problem", "upper_bound", "previous_lower_bound", "lower_bound"])
    for name, ub, prev, lb in rows:
        writer.writerow([name, _fmt_cell(ub), _fmt_cell(prev), _fmt_cell(lb)])
    sys.stdout.write(buf.getvalue())
    return 0


# ------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ldpcontract", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    mech = sub.add_parser("mechanism", help="build or audit private channels")
    mech.add_argument("action", choices=["build", "audit"])
    mech.add_argument("--kind", choices=["rr", "binary", "hadamard"], default="rr")
    mech.add_argument("--eps", type=float, default=1.0)
    mech.add_argument("--k", type=int)
    mech.add_argument("--d", type=int)
    mech.add_argument("--B", type=int)
    mech.add_argument("--b", type=int)
    mech.add_argument("--p")
    mech.add_argument("--q")
    mech.add_argument("--channel")
    mech.add_argument("--out")
    mech.add_argument("--format", choices=["json", "csv"], default="json")
    mech.set_defaults(func=_cmd_mechanism)

    con = sub.add_parser("contract", help="contraction coefficient estimates")
    con.add_argument("--channel", required=True)
    con.add_argument("--kind", choices=["chi2", "h2", "kl", "tv"], required=True)
    # accepted and ignored, like eta_bruteforce's grid_n: the search has no grid
    con.add_argument("--grid", help=argparse.SUPPRESS)
    con.add_argument("--at-dist", dest="at_dist")
    con.set_defaults(func=_cmd_contract)

    bds = sub.add_parser("bounds", help="privacy constants and divergence bounds")
    bds.add_argument("--eps", type=float, required=True)
    bds.add_argument("--tv", type=float)
    bds.set_defaults(func=_cmd_bounds)

    bnd = sub.add_parser("bound", help="individual minimax bound formulas")
    bnd.add_argument("name", choices=list(_BOUNDS))
    bnd.add_argument("--n", type=int, default=1)
    bnd.add_argument("--eps", type=float, default=1.0)
    bnd.add_argument("--alpha", type=float, default=1.0)
    bnd.add_argument("--kl", type=float, default=0.0)
    bnd.add_argument("--tv", type=float, default=0.0)
    bnd.add_argument("--h2", type=float, default=0.0)
    bnd.add_argument("--k", type=int, default=3)
    bnd.add_argument("--tau", type=float, default=0.0)
    bnd.add_argument("--tv-sq-sum", dest="tv_sq_sum", type=float, default=0.0)
    bnd.add_argument("--d", type=int, default=1)
    bnd.add_argument("--h", type=float, default=2.0)
    bnd.add_argument("--beta", type=float, default=1.0)
    bnd.add_argument("--r", type=float, default=2.0)
    bnd.add_argument("--sigma", type=float, default=1.0)
    bnd.add_argument("--rad", type=float, default=1.0)
    bnd.add_argument("--vol-ratio", dest="vol_ratio", type=float, default=1.0)
    bnd.add_argument("--log-vd", dest="log_vd", type=float, default=None)
    bnd.add_argument("--entropy-prior", dest="entropy_prior", type=float, default=0.0)
    bnd.add_argument("--mutual-info", dest="mutual_info", type=float, default=0.0)
    bnd.set_defaults(func=_cmd_bound)

    fis = sub.add_parser("fisher", help="information matrices and private floors")
    fis.add_argument("--family", choices=["multinomial", "bernoulli", "gaussian"], required=True)
    fis.add_argument("--theta", required=True)
    fis.add_argument("--sigma", type=float, default=1.0)
    fis.add_argument("--n", type=int)
    fis.add_argument("--eps", type=float, default=1.0)
    fis.add_argument("--functional", choices=["entropy"])
    fis.set_defaults(func=_cmd_fisher)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo experiments")
    sim.add_argument("experiment", choices=["dist", "bht", "sc", "binom"])
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--workers", type=int, default=1,
                     help="threads for the blocks of dist; bht, sc and binom check it "
                          "but draw from one stream (results never depend on it)")
    sim.add_argument("--eps", type=float, default=1.0)
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--d", type=int, default=2)
    sim.add_argument("--h", type=float, default=2.0)
    sim.add_argument("--p")
    sim.add_argument("--q")
    sim.add_argument("--prob", type=float, default=0.5)
    sim.set_defaults(func=_cmd_simulate)

    tab = sub.add_parser("table1", help="CSV summary of headline rates")
    tab.add_argument("--n", type=int, required=True)
    tab.add_argument("--d", type=int, required=True)
    tab.add_argument("--k", type=int, default=16)
    tab.add_argument("--h", type=float, default=2.0)
    tab.add_argument("--beta", type=float, default=1.0)
    tab.add_argument("--sigma", type=float, default=1.0)
    tab.add_argument("--eps", type=float, required=True)
    tab.add_argument("--tv", type=float, default=0.5)
    tab.add_argument("--h2", type=float, default=0.5)
    tab.set_defaults(func=_cmd_table1)

    return top


def dispatch(argv: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; keep that convention but
        # surface a machine-readable line as well.
        if exc.code not in (0, None):
            print(emit_json({"error": "invalid arguments"}))
            return 2
        return 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(emit_json({"error": str(exc)}))
        return 2
    except ArithmeticError as exc:  # overflow, or a divisor that underflowed to 0
        print(emit_json({"error": f"result outside the range of a double: {exc}"}))
        return 2
    except MemoryError as exc:  # an array numpy refuses to allocate
        print(emit_json({"error": f"not enough memory: {exc}"}))
        return 2


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
