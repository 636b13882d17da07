"""Deterministic, splittable random streams.

All Monte Carlo code derives its randomness from :func:`stream`, which
maps ``(seed, *path)`` to an independent counter-based Philox stream.
Because a stream is a pure function of the seed and its integer path,
simulations are reproducible bit-for-bit regardless of execution order
or worker count: :mod:`ldpcontract.simulation` draws every trial of a
frequency-estimation block ``i`` from ``stream(seed, i)``, and all of a
hypothesis-testing, sample-complexity or binomial-moment call from
``stream(seed, 0)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and integer path.

    Distinct paths yield statistically independent Philox streams; the
    same ``(seed, *path)`` always yields the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
