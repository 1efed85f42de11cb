"""Seeded randomness.

Every random draw in the package flows through numpy's PCG64 generator,
created by :func:`make_rng`. Sub-streams (per run, per loss arm, ...) are
derived with :func:`derive_seed`, which feeds the master seed plus the
index path into ``numpy.random.SeedSequence`` — the documented splitting
rule, so partial re-runs reproduce exactly.

Gaussian draws use an explicit Box-Muller transform of the uniform
stream (:func:`gaussian`) instead of ``Generator.normal``, so the values
depend only on the PCG64 bit stream and stay stable across numpy
releases and platforms.
"""

from __future__ import annotations

import math

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-wide generator (PCG64) for ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a sub-seed from a master seed and an index path."""
    seq = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return int(seq.generate_state(1)[0])


def gaussian(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """Standard normal draws via Box-Muller on the uniform stream."""
    shape = (size,) if isinstance(size, int) else tuple(size)
    n = math.prod(shape)
    m = (n + 1) // 2
    # 1 - U lies in (0, 1], keeping the log finite.
    u1 = 1.0 - rng.random(m)
    angle = 2.0 * np.pi * rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(angle)
    z[1::2] = r * np.sin(angle)
    return z[:n].reshape(shape)
