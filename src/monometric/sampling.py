"""Seeded random generators for matrices, states and weights.

Everything takes an explicit numpy Generator so callers control
determinism; the library never touches global random state. Column
orthonormalization is modified Gram-Schmidt with one reorthogonalization
pass, which keeps the whole pipeline free of LAPACK and byte-stable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSample, DomainError
from .monotone import WeightFunction

RANK_TOL = 1e-8


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex matrix with independent standard-normal real/imag parts."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = ginibre(rng, n, n)
    return 0.5 * (g + g.conj().T)


def orthonormal_columns(g: np.ndarray) -> np.ndarray:
    """Orthonormalize columns by modified Gram-Schmidt, run twice.

    Raises DegenerateSample when a column's remainder collapses below
    RANK_TOL relative to the expected column scale.
    """
    v = np.asarray(g, dtype=np.complex128).copy()
    rows, cols = v.shape
    if cols > rows:
        raise DomainError(f"cannot orthonormalize {cols} columns in {rows} rows")
    scale = math.sqrt(2.0 * rows)
    for j in range(cols):
        for _ in range(2):
            for i in range(j):
                v[:, j] -= (v[:, i].conj() @ v[:, j]) * v[:, i]
        nrm = math.sqrt(float(np.sum(np.abs(v[:, j]) ** 2)))
        if nrm < RANK_TOL * scale:
            raise DegenerateSample(f"column {j} is numerically dependent")
        v[:, j] /= nrm
    return v


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return orthonormal_columns(ginibre(rng, n, n))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive state: normalized Gram matrix plus a 0.05 ridge."""
    g = ginibre(rng, n, n)
    w = g @ g.conj().T + 0.05 * np.eye(n)
    return w / np.trace(w).real


def random_tangent(rng: np.random.Generator, n: int, hermitian: bool) -> np.ndarray:
    if hermitian:
        return random_hermitian(rng, n)
    return ginibre(rng, n, n)


def random_step_weight(rng: np.random.Generator, max_pieces: int = 4) -> WeightFunction:
    """Piecewise-constant weight with 1..max_pieces uniform pieces."""
    pieces = int(rng.integers(1, max_pieces + 1))
    interior = np.sort(rng.uniform(0.0, 1.0, pieces - 1))
    breakpoints = [0.0]
    for b in interior:
        # collisions would violate strict monotonicity; drop the repeat
        if b <= breakpoints[-1]:
            continue
        breakpoints.append(float(b))
    breakpoints.append(1.0)
    values = rng.uniform(0.0, 1.0, len(breakpoints) - 1)
    return WeightFunction(
        breakpoints=tuple(breakpoints), values=tuple(float(v) for v in values)
    )
