"""Per-layer metrics of a traced pass, named ``<module>.<function>.<measure>``.

Every traced run reports every metric below.  A metric whose layer the
workload does not reach reads 0 and is listed as not exercised; one
whose wrapped name the library no longer has reads 0 and is listed as
absent.  Which end-to-end metric each one should move, and on which
workload, is in ``run.py``'s docstring.
"""

from __future__ import annotations

from tracer import SpanStats, Tracer
from workloads import BHT_TRIALS, BINOM_TRIALS, DIST_DS, DIST_TRIALS

MIX = "mechanisms.mix_toward_uniform"
AUDIT = "mechanisms.audit_ldp"
CHANNEL = "probability.Channel"
DIST = "simulation.simulate_dist_estimation"
BHT = "simulation.simulate_bht"
SC = "simulation.empirical_sample_complexity"
BINOM = "simulation.binomial_moment_check"
VERBS = ("mechanism", "contract", "bounds", "bound", "fisher", "simulate", "table1")


def _names() -> dict[str, str]:
    units = {}
    for layer in (MIX, CHANNEL):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units[f"{AUDIT}.calls_per_mix"] = "calls/mix"
    units[f"{CHANNEL}.calls_per_mix"] = "calls/mix"
    for tag in ("kl", "chi2", "h2"):
        units[f"contraction.eta_bruteforce.{tag}.calls"] = "count"
        units[f"contraction.eta_bruteforce.{tag}.self_s"] = "s"
    units["contraction.eta_tv_exact.self_s"] = "s"
    units["contraction.eta_chi2_at.self_s"] = "s"
    for fn in ("hellinger_via_eg_quadrature", "chi2_via_eg_quadrature"):
        units[f"probability.{fn}.calls"] = "count"
        units[f"probability.{fn}.self_s"] = "s"
    units[f"{AUDIT}.self_s"] = "s"
    units[f"{AUDIT}.alloc_peak_mb"] = "MB"
    units["mechanisms.hadamard_response.self_s"] = "s"
    units["mechanisms.hadamard_estimate.calls"] = "count"
    units["mechanisms.hadamard_estimate.self_s"] = "s"
    for d in DIST_DS:
        units[f"{DIST}.d{d}.trials_per_s"] = "1/s"
    units["rng.stream.calls_per_trial"] = "calls/trial"
    units[f"{BHT}.trials_per_s"] = "1/s"
    units[f"{BINOM}.trials_per_s"] = "1/s"
    units[f"{SC}.self_s"] = "s"
    units[f"{SC}.bht_calls_per_search"] = "calls/search"
    for d in (64, 256):
        units[f"simulation.workers2_speedup.d{d}"] = "ratio"
    units["minimax.density_packing_build.calls"] = "count"
    units["minimax.density_packing_build.self_s"] = "s"
    units["minimax.packing_neighbor_tv.self_s"] = "s"
    units["minimax.DensityPacking.density_integral.self_s"] = "s"
    units["cli.import_s"] = "s"
    for verb in VERBS:
        units[f"cli.{verb}.dispatch_ms"] = "ms"
    units["serialize.emit_json.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


UNITS = _names()

#: Metrics that rest on a name patched inside the library (``tracer.INNER``).
DEPENDS = {
    AUDIT: [f"{AUDIT}.calls_per_mix"],
    CHANNEL: [f"{CHANNEL}.calls", f"{CHANNEL}.self_s", f"{CHANNEL}.calls_per_mix"],
    "rng.stream": ["rng.stream.calls_per_trial"],
    "mechanisms.hadamard_estimate": ["mechanisms.hadamard_estimate.calls",
                                     "mechanisms.hadamard_estimate.self_s"],
    BHT: [f"{SC}.bht_calls_per_search"],
    "serialize.emit_json": ["serialize.emit_json.self_s"],
}


def _wall(spans: list[tuple]) -> float:
    return sum(s[5] - s[4] for s in spans)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extras: dict[str, float], overhead: float):
    """Returns ``(values, absent, not_exercised)`` for every name in ``UNITS``."""
    st = SpanStats(tracer.spans)
    v: dict[str, float] = {}
    for name in UNITS:
        layer, _, measure = name.rpartition(".")
        if measure == "calls":
            v[name] = st.calls[layer]
        elif measure == "self_s":
            v[name] = st.self_s[layer]
    v[f"{AUDIT}.calls_per_mix"] = _per(st.count_under(AUDIT, MIX), st.calls[MIX])
    v[f"{CHANNEL}.calls_per_mix"] = _per(st.count_under(CHANNEL, MIX), st.calls[MIX])
    v[f"{AUDIT}.alloc_peak_mb"] = tracer.alloc_peak[AUDIT] / 2**20
    # Trial rates use the calls the workload makes itself, whose trial counts it fixes.
    dist_calls = 0
    for d in DIST_DS:
        spans = st.direct(f"{DIST}.d{d}")
        dist_calls += len(spans)
        v[f"{DIST}.d{d}.trials_per_s"] = _per(len(spans) * DIST_TRIALS, _wall(spans))
    v["rng.stream.calls_per_trial"] = _per(st.count_under("rng.stream", DIST),
                                          dist_calls * DIST_TRIALS)
    for layer, trials in ((BHT, BHT_TRIALS), (BINOM, BINOM_TRIALS)):
        spans = st.direct(layer)
        v[f"{layer}.trials_per_s"] = _per(len(spans) * trials, _wall(spans))
    v[f"{SC}.bht_calls_per_search"] = _per(st.count_under(BHT, SC), st.calls[SC])
    for verb in VERBS:
        layer = f"cli.{verb}.dispatch"
        v[f"cli.{verb}.dispatch_ms"] = 1e3 * _per(st.wall_s[layer], st.calls[layer])
    v.update(extras)
    v["trace.overhead_ratio"] = overhead
    absent = sorted(m for name in tracer.absent for m in DEPENDS.get(name, ()))
    not_exercised = sorted(n for n in UNITS if n not in absent and not v.get(n))
    return {n: float(v.get(n, 0.0)) for n in UNITS}, absent, not_exercised
