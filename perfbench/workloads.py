"""The four workloads and the checks on every operation's output.

Inputs come from ``--seed`` and the operation index only: operation
``i`` draws from ``default_rng([seed, workload key, i])``, warm-up
operations from indices at ``WARMUP`` and above.  ``prepare(i)`` draws
the inputs and any reference values outside the timed region and
returns the operation; calling it runs ldpcontract and raises on a
wrong result.

Checks are tolerances on deterministic values and statistical bands on
Monte Carlo values, wide enough that a correct program does not fail
them on any seed, so that a change of random stream, an extra payload
field or a corrected method label still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import close, expect
import reference as ref
from tracer import NullTracer

WARMUP = 1 << 30
LN3 = math.log(3.0)
EPS_GRID = (0.1, 0.5, 1.0, 2.0, 4.0)
# The acceptance-6 pair, used by the hypothesis-testing operations.
P6 = np.array([0.9, 0.1])
Q6 = np.array([0.1, 0.9])

N_USERS = 10_000
DIST_DS = (4, 64, 256)
DIST_TRIALS = 32
BHT_N = 20
BHT_TRIALS = 100_000
SC_TRIALS = 10_000
BINOM_TRIALS = 100_000
STAT_WIDTHS = 5.0  # Monte Carlo estimates must lie within this many 95% half-widths


class Workload:
    name = ""
    key = 0
    cycle = 1          # the timed loop stops only after a whole cycle of operations
    warmup_ops = 1
    trace_ops = 1      # operations in each of the warm, untraced and traced passes
    rss_of_children = False
    perturb_target = ("", "")

    def __init__(self, lib, seed: int, workers: int, workdir: Path) -> None:
        self.lib = lib
        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.tracer = NullTracer()

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.key, i])

    def prepare(self, i: int):
        raise NotImplementedError

    def trace_extras(self) -> dict[str, float]:
        """Per-layer measurements taken outside the traced pass."""
        return {}

    def provenance(self) -> dict:
        return {}

    def perturb(self, delta: float) -> None:
        """Shift one library result, so that the checks must fail (self-test)."""
        module, attr = self.perturb_target
        ns = getattr(self.lib, module)
        fn = getattr(ns, attr)
        setattr(ns, attr, lambda *a, **kw: fn(*a, **kw) + delta)


class LdpChannels(Workload):
    """Many tiny eps-LDP channels: the paper's core inequalities."""

    name = "ldp_channels"
    key = 1
    warmup_ops = 3
    trace_ops = 200
    perturb_target = ("probability", "hellinger_via_eg_quadrature")

    def prepare(self, i: int):
        rng = self.rng(i)
        eps = float(rng.choice(EPS_GRID))
        n_in, n_out = (int(v) for v in rng.integers(2, 7, size=2))
        raw = rng.dirichlet(np.ones(n_out), size=n_in)
        p, q, at = (rng.dirichlet(np.ones(n_in)) for _ in range(3))
        ceiling = ref.upsilon(eps) + 1e-6
        tv_pq = ref.tv(p, q)
        chi2_bound = ref.psi(eps) * min(4.0 * tv_pq * tv_pq, tv_pq)
        lib = self.lib

        def run() -> None:
            P, C, M = lib.probability, lib.contraction, lib.mechanisms
            k = M.mix_toward_uniform(P.Channel(raw), eps)
            expect(M.audit_ldp(k) <= eps + 1e-9, "mixed channel audits above eps")
            expect(ref.audit_eps(k.rows) <= eps + 1e-9, "mixed channel is not eps-LDP")
            for kind in (P.KL, P.CHI2, P.H2):
                value = C.eta_bruteforce(k, kind, grid_n=201).value
                expect(0.0 <= value <= ceiling, f"eta_{kind.tag} = {value} above upsilon")
            close(C.eta_tv_exact(k).value, ref.max_row_tv(k.rows), 1e-12, "eta_tv_exact")
            # eta_chi2_at(p) is the supremum over q of chi2(qK || pK) / chi2(q || p).
            eta_at = C.eta_chi2_at(P.ProbVector(at), k)
            ratio = ref.chi2(p @ k.rows, at @ k.rows) / ref.chi2(p, at)
            expect(ratio <= eta_at + 1e-9 <= ceiling + 1e-9, f"eta_chi2_at = {eta_at}")
            pv, qv = P.ProbVector(p), P.ProbVector(q)
            pk, qk = P.push_forward(pv, k), P.push_forward(qv, k)
            chi2_out = ref.chi2(pk.mass, qk.mass)
            close(C.chi2_tv_bound(eps, tv_pq), chi2_bound, 1e-12 * chi2_bound, "chi2_tv_bound")
            expect(chi2_out <= chi2_bound + 1e-10, "output chi2 above the TV bound")
            for a, b in ((pv, qv), (pk, qk)):
                close(P.hellinger_via_eg_quadrature(a, b), ref.h2(a.mass, b.mass), 1e-6,
                      "hellinger_via_eg_quadrature")
                close(P.chi2_via_eg_quadrature(a, b), ref.chi2(a.mass, b.mass), 1e-6,
                      "chi2_via_eg_quadrature")

        return run


class MonteCarlo(Workload):
    """Hadamard response across alphabet sizes, and the testing experiments."""

    name = "monte_carlo"
    key = 2
    KINDS = ("hadamard4", "bht", "hadamard64", "sc", "hadamard256", "binom")
    cycle = len(KINDS)
    warmup_ops = len(KINDS)
    trace_ops = 2 * len(KINDS)
    perturb_target = ("mechanisms", "audit_ldp")

    def _hadamard_inputs(self, rng, d: int):
        X = self.lib.minimax
        band = (X.distribution_estimation_lb(N_USERS, LN3, d, 2.0),
                10.0 * X.hadamard_ub(N_USERS, LN3, d, 2.0))
        return rng.dirichlet(np.ones(d)), int(rng.integers(2**31)), band

    def prepare(self, i: int):
        kind = self.KINDS[i % len(self.KINDS)]
        rng = self.rng(i)
        lib, workers = self.lib, self.workers
        P, M, S = lib.probability, lib.mechanisms, lib.simulation

        if kind.startswith("hadamard"):
            d = int(kind[len("hadamard"):])
            p_true, seed, (lb, ub10) = self._hadamard_inputs(rng, d)

            def run() -> None:
                cfg = M.HadamardConfig.for_alphabet(d, LN3)
                close(M.audit_ldp(M.hadamard_response(cfg)), LN3, 1e-9, f"audit at d={d}")
                res = S.simulate_dist_estimation(cfg, P.ProbVector(p_true), N_USERS, 2.0,
                                                 DIST_TRIALS, seed, workers=workers)
                expect(res.trials == DIST_TRIALS, "wrong trial count")
                # acceptance 7's band
                expect(lb - 3.0 * res.half_width <= res.estimate <= ub10,
                       f"risk {res.estimate} outside [{lb} - 3 hw, {ub10}] at d={d}")

        elif kind == "bht":
            seed = int(rng.integers(2**31))
            exact = ref.bht_exact_errors(P6, Q6, LN3, BHT_N)

            def run() -> None:
                results = S.simulate_bht(P.ProbVector(P6), P.ProbVector(Q6), LN3, BHT_N,
                                         BHT_TRIALS, seed, workers=workers)
                for res, want in zip(results, exact):
                    expect(abs(res.estimate - want) <= STAT_WIDTHS * res.half_width,
                           f"bht error {res.estimate} vs exact {want}")

        elif kind == "sc":
            seed = int(rng.integers(2**31))

            def run() -> None:
                n_star = S.empirical_sample_complexity(P.ProbVector(P6), P.ProbVector(Q6), LN3,
                                                       trials=SC_TRIALS, seed=seed,
                                                       workers=workers)
                expect(2 <= n_star <= 21, f"sample complexity {n_star} outside [2, 21]")

        else:  # binom
            n = int(rng.integers(10, 2001))
            p = float(rng.uniform(0.05, 0.95))
            h = float(rng.uniform(1.0, 4.0))
            seed = int(rng.integers(2**31))
            exact = ref.binomial_abs_moment(n, p, h)

            def run() -> None:
                res = S.binomial_moment_check(n, p, h, BINOM_TRIALS, seed, workers=workers)
                expect(abs(res.estimate - exact) <= STAT_WIDTHS * res.half_width,
                       f"binomial moment {res.estimate} vs exact {exact}")

        return run

    def trace_extras(self) -> dict[str, float]:
        """Wall time of the same simulation with one worker over ``workers``."""
        P, M, S = self.lib.probability, self.lib.mechanisms, self.lib.simulation
        out = {}
        for d in (64, 256):
            # inputs from an operation index that no timed or warm-up operation uses
            p_true, seed, _ = self._hadamard_inputs(self.rng(WARMUP - d), d)
            cfg = M.HadamardConfig.for_alphabet(d, LN3)
            times: dict[int, list[float]] = {1: [], self.workers: []}
            for _ in range(3):
                for w in times:
                    t0 = perf_counter()
                    S.simulate_dist_estimation(cfg, P.ProbVector(p_true), N_USERS, 2.0,
                                               DIST_TRIALS, seed, workers=w)
                    times[w].append(perf_counter() - t0)
            out[f"simulation.workers2_speedup.d{d}"] = (
                float(np.median(times[1])) / float(np.median(times[self.workers])))
        return out


class DensityPackingWorkload(Workload):
    """Holder-density packings at a smoothness that never repeats."""

    name = "density_packing"
    key = 3
    trace_ops = 3
    perturb_target = ("minimax", "packing_neighbor_tv")
    GRID = np.linspace(0.0, 1.0, 2001)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.betas: list[float] = []

    def prepare(self, i: int):
        rng = self.rng(i)
        beta = float(rng.uniform(0.25, 1.0))
        radius = float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(30, 200_000))
        eps = float(rng.uniform(0.25, 2.5))
        k_frac = float(rng.random())
        bits = rng.integers(0, 2, size=1 << 12)  # enough for any N drawn above
        self.betas.append(beta)
        X = self.lib.minimax

        def run() -> None:
            pk = X.density_packing_build(beta, radius, n, eps)
            expect(pk.N == 2**pk.b - 1 and pk.N <= bits.size, f"packing size N = {pk.N}")
            # (gamma / 2) 2^{-b/2} ||g||_1 with ||amplitude sin 2 pi x||_1 = amplitude 2 / pi
            closed = 0.5 * pk.gamma * 2.0 ** (-pk.b / 2.0) * pk.amplitude * 2.0 / math.pi
            close(pk.neighbor_tv_closed_form(), closed, 1e-9 * closed, "neighbor_tv_closed_form")
            k = 1 + min(int(k_frac * pk.N), pk.N - 1)
            close(X.packing_neighbor_tv(pk, k), closed, 1e-6, f"packing_neighbor_tv at k={k}")
            expect(pk.amplitude * pk.gamma * 2.0 ** (pk.b / 2.0) <= 1.0 + 1e-12,
                   "bump amplitude allows negative densities")
            expect(pk.g_holder * pk.gamma * 2.0 ** (pk.b * (beta + 0.5)) <= radius * (1 + 1e-6),
                   "packing member outside the Holder ball")
            theta = bits[: pk.N].astype(float)
            integral = self.tracer.span("minimax.DensityPacking.density_integral",
                                        pk.density_integral, theta)
            close(integral, 1.0, 1e-8, "density integral")
            expect(bool(np.all(pk.density(theta, self.GRID) >= 0.0)), "negative density")

        return run

    def provenance(self) -> dict:
        return {"repeated_beta_share": 1.0 - len(set(self.betas)) / max(len(self.betas), 1)}


CLI_MAIN = "from ldpcontract.cli import main; main()"
CLI_CALLS = ("build_rr", "build_hadamard", "audit", "contract_kl", "contract_tv",
             "contract_chi2_at", "bounds", "bound_bht", "fisher", "simulate_dist",
             "simulate_sc", "table1", "invalid")
TABLE1_ROWS = ["entropy_estimation", "distribution_estimation", "density_estimation",
               "gaussian_location", "bht_sample_complexity"]


class CliCalls(Workload):
    """One fresh ``ldpcontract`` CLI process per operation, one at a time.

    The package has no installed console script and ``python -m
    ldpcontract.cli`` runs nothing, so each call is ``python -c
    "from ldpcontract.cli import main; main()" ARGS``.
    """

    name = "cli_calls"
    key = 4
    trace_ops = 3 * len(CLI_CALLS)
    rss_of_children = True
    in_process = False  # the traced run calls ``dispatch`` in this process

    def _file(self, i: int, tag: str, payload) -> str:
        path = self.workdir / f"{tag}-{i}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def _ldp_channel(self, rng, i: int):
        eps = float(rng.choice(EPS_GRID))
        n_in, n_out = (int(v) for v in rng.integers(2, 7, size=2))
        raw = self.lib.probability.Channel(rng.dirichlet(np.ones(n_out), size=n_in))
        rows = self.lib.mechanisms.mix_toward_uniform(raw, eps).rows
        return eps, rows, self._file(i, "channel", rows.tolist())

    def _rr_rows(self, k: int, eps: float) -> np.ndarray:
        e = math.exp(eps)
        rows = np.full((k, k), 1.0 / (e + k - 1.0))
        np.fill_diagonal(rows, e / (e + k - 1.0))
        return rows

    def prepare(self, i: int):
        call = CLI_CALLS[i % len(CLI_CALLS)]
        argv, check = getattr(self, f"_{call}")(self.rng(i), i)

        def run() -> None:
            code, out = self._dispatch(argv) if self.in_process else self._spawn(argv)
            expect(out.strip() != "", f"{call}: empty stdout")
            check(code, out)

        return run

    def _spawn(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], capture_output=True,
                              text=True, timeout=120, cwd=self.workdir)
        return proc.returncode, proc.stdout

    def _dispatch(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.dispatch(argv)
        return code, buf.getvalue()

    @staticmethod
    def _json(code: int, out: str):
        expect(code == 0, f"exit status {code}: {out[:200]}")
        return json.loads(out)

    def _build_rr(self, rng, i):
        k, eps = int(rng.integers(2, 9)), float(rng.choice(EPS_GRID))

        def check(code, out):
            close(float(np.max(np.abs(np.array(self._json(code, out)) - self._rr_rows(k, eps)))),
                  0.0, 1e-12, "randomized response rows")

        return ["mechanism", "build", "--kind", "rr", "--k", str(k), "--eps", repr(eps)], check

    def _build_hadamard(self, rng, i):
        eps = float(rng.choice(EPS_GRID))

        def check(code, out):
            rows = np.array(self._json(code, out))
            expect(rows.shape[0] == 64, f"hadamard rows {rows.shape}")
            close(float(np.max(np.abs(rows.sum(axis=1) - 1.0))), 0.0, 1e-12, "row sums")
            close(ref.audit_eps(rows), eps, 1e-9, "hadamard audit")

        return ["mechanism", "build", "--kind", "hadamard", "--d", "64", "--eps", repr(eps)], check

    def _audit(self, rng, i):
        k, eps = int(rng.integers(2, 9)), float(rng.choice(EPS_GRID))
        path = self._file(i, "rr", self._rr_rows(k, eps).tolist())

        def check(code, out):
            close(self._json(code, out)["eps"], eps, 1e-9, "mechanism audit")

        return ["mechanism", "audit", "--channel", path], check

    def _contract_kl(self, rng, i):
        eps, _rows, path = self._ldp_channel(rng, i)

        def check(code, out):
            value = self._json(code, out)["value"]
            expect(0.0 <= value <= ref.upsilon(eps) + 1e-6, f"eta_kl = {value} above upsilon")

        return ["contract", "--channel", path, "--kind", "kl", "--grid", "201"], check

    def _contract_tv(self, rng, i):
        _eps, rows, path = self._ldp_channel(rng, i)

        def check(code, out):
            close(self._json(code, out)["value"], ref.max_row_tv(rows), 1e-12, "eta_tv")

        return ["contract", "--channel", path, "--kind", "tv"], check

    def _contract_chi2_at(self, rng, i):
        eps, rows, path = self._ldp_channel(rng, i)
        p, q = (rng.dirichlet(np.ones(rows.shape[0])) for _ in range(2))
        ratio = ref.chi2(q @ rows, p @ rows) / ref.chi2(q, p)
        p_path = self._file(i, "p", p.tolist())

        def check(code, out):
            value = self._json(code, out)["value"]
            expect(ratio <= value + 1e-9 <= ref.upsilon(eps) + 1e-6 + 1e-9,
                   f"eta_chi2_at = {value}, ratio {ratio}")

        return ["contract", "--channel", path, "--kind", "chi2", "--at-dist", p_path], check

    def _bounds(self, rng, i):
        eps, tv = float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.01, 1.0))
        want = {"upsilon": ref.upsilon(eps), "psi": ref.psi(eps),
                "chi2_vs_tv": ref.psi(eps) * min(4.0 * tv * tv, tv)}

        def check(code, out):
            got = {b["name"]: b["value"] for b in self._json(code, out)["bounds"]}
            for name, value in want.items():
                close(got[name], value, 1e-12 * value, f"bounds {name}")

        return ["bounds", "--eps", repr(eps), "--tv", repr(tv)], check

    def _bound_bht(self, rng, i):
        dim = int(rng.integers(2, 6))
        p, q = (rng.dirichlet(np.ones(dim)) for _ in range(2))
        eps, tv, h2 = float(rng.uniform(0.1, 4.0)), ref.tv(p, q), ref.h2(p, q)
        u = ref.upsilon(eps)
        lower = max(math.log(2.5) / (4.0 * u * h2), 2.0 / (25.0 * ref.psi(eps) * tv * tv))
        upper = 2.0 * math.log(5.0) / (u * tv * tv)

        def check(code, out):
            got = self._json(code, out)
            close(got["lower"], lower, 1e-12 * lower, "bht lower")
            close(got["upper"], upper, 1e-12 * upper, "bht upper")

        argv = ["bound", "bht", "--eps", repr(eps), "--tv", repr(tv), "--h2", repr(h2)]
        return argv, check

    def _fisher(self, rng, i):
        theta = rng.normal(size=int(rng.integers(1, 3)))
        sigma = float(rng.uniform(0.5, 3.0))
        want = np.eye(theta.size) / sigma**2

        def check(code, out):
            got = np.array(self._json(code, out)["fisher"])
            close(float(np.max(np.abs(got - want))), 0.0, 1e-6 / sigma**2, "gaussian fisher")

        argv = ["fisher", "--family", "gaussian",
                "--theta=" + ",".join(map(repr, theta.tolist())), "--sigma", repr(sigma)]
        return argv, check

    def _simulate_dist(self, rng, i):
        seed, n = int(rng.integers(2**31)), 4000
        X = self.lib.minimax
        lb, ub = X.distribution_estimation_lb(n, LN3, 4, 2.0), X.hadamard_ub(n, LN3, 4, 2.0)

        def check(code, out):
            res = self._json(code, out)
            expect(lb - 3.0 * res["half_width"] <= res["estimate"] <= 10.0 * ub,
                   f"risk {res['estimate']} outside the acceptance-7 band")

        argv = ["simulate", "dist", "--d", "4", "--eps", repr(LN3), "--n", str(n),
                "--trials", "200", "--seed", str(seed)]
        return argv, check

    def _simulate_sc(self, rng, i):
        seed = int(rng.integers(2**31))
        p_path, q_path = self._file(i, "p6", P6.tolist()), self._file(i, "q6", Q6.tolist())

        def check(code, out):
            n_star = self._json(code, out)["sample_complexity"]
            expect(2 <= n_star <= 21, f"sample complexity {n_star} outside [2, 21]")

        argv = ["simulate", "sc", "--p", p_path, "--q", q_path, "--eps", repr(LN3),
                "--trials", str(SC_TRIALS), "--seed", str(seed)]
        return argv, check

    def _table1(self, rng, i):
        n, d, eps = int(rng.integers(100, 100_000)), int(rng.integers(2, 64)), float(
            rng.uniform(0.1, 3.0))

        def check(code, out):
            expect(code == 0, f"exit status {code}")
            rows = list(csv.reader(io.StringIO(out)))
            expect(rows[0] == ["problem", "upper_bound", "previous_lower_bound", "lower_bound"]
                   and [r[0] for r in rows[1:]] == TABLE1_ROWS, "table1 layout")
            for r in rows[1:]:
                cells = [float(c) for c in r[1:] if c != "N.A."]
                expect(all(c > 0 and math.isfinite(c) for c in cells) and r[3] != "N.A.",
                       f"table1 row {r}")

        return ["table1", "--n", str(n), "--d", str(d), "--eps", repr(eps)], check

    def _invalid(self, rng, i):
        rows = self._rr_rows(3, 1.0)
        rows[0, 0] = -rows[0, 0]
        path = self._file(i, "bad", rows.tolist())

        def check(code, out):
            lines = out.strip().splitlines()
            expect(code == 2 and len(lines) == 1 and set(json.loads(lines[0])) == {"error"},
                   f"invalid call: exit {code}, stdout {out[:200]!r}")

        return ["mechanism", "audit", "--channel", path], check

    def trace_extras(self) -> dict[str, float]:
        """Median of three fresh-process imports of ``ldpcontract.cli``."""
        code = ("import time; t = time.perf_counter(); import ldpcontract.cli; "
                "print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, check=True, timeout=120).stdout)
                 for _ in range(3)]
        return {"cli.import_s": float(np.median(times))}

    def perturb(self, delta: float) -> None:
        """Shift the audit the CLI looks up, and call ``dispatch`` in this process."""
        cli = self.lib.modules["cli"]
        fn = cli.audit_ldp
        cli.audit_ldp = lambda *a, **kw: fn(*a, **kw) + delta
        self.in_process = True


WORKLOADS = {w.name: w for w in (LdpChannels, MonteCarlo, DensityPackingWorkload, CliCalls)}


def workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))
