"""Seeded random generators for matrices, states and weights.

Everything takes an explicit numpy Generator so callers control
determinism; the library never touches global random state. Column
orthonormalization is modified Gram-Schmidt with one reorthogonalization
pass, which keeps the whole pipeline free of LAPACK and byte-stable. It
is written once, for a stack (B, rows, cols) of matrices, in
``_gram_schmidt``: each member gets its own outcome, its orthonormal
columns bit for bit as alone or its own DegenerateSample, so
``orthonormal_columns`` is that code on a one-member stack and
``orthonormal_columns_each`` runs it once per shape of a list.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSample, DomainError, unwrap
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
    return unwrap(_gram_schmidt(np.asarray(g)[None])[0])


def orthonormal_columns_each(gs) -> list[np.ndarray | DegenerateSample]:
    """Per matrix, in order: what ``orthonormal_columns`` gives it alone,
    its orthonormal columns bit for bit or its own DegenerateSample. The
    matrices of one shape are orthonormalized as one stack."""
    gs = list(gs)
    out: list = [None] * len(gs)
    shapes: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(gs):
        shapes.setdefault(np.shape(g), []).append(i)
    for members in shapes.values():
        for i, q in zip(members, _gram_schmidt(np.stack([gs[i] for i in members]))):
            out[i] = q
    return out


def _gram_schmidt(g: np.ndarray) -> list[np.ndarray | DegenerateSample]:
    """Modified Gram-Schmidt, run twice, on every member of a stack at once.

    Each coefficient is a batched ``@`` of (B, 1, rows) by (B, rows, 1),
    which rounds as the one-matrix ``x.conj() @ y`` does (``np.einsum``
    does not). A member whose column remainder falls below RANK_TOL times
    the expected column scale is divided by 1, not by its norm, so it
    raises no warning; it gets the DegenerateSample of its first such
    column. The other members come out as they would alone.
    """
    v = np.array(g, dtype=np.complex128)
    count, rows, cols = v.shape
    if cols > rows:
        raise DomainError(f"cannot orthonormalize {cols} columns in {rows} rows")
    floor = RANK_TOL * math.sqrt(2.0 * rows)
    dependent = np.full(count, -1)
    done = []  # each finished column and its conjugate as a (B, 1, rows) row
    for j in range(cols):
        y = v[:, :, j]
        for _ in range(2):
            for x, xc in done:
                y -= (xc @ y[:, :, None])[:, 0] * x
        nrm = np.sqrt(np.add.reduce(np.abs(y) ** 2, axis=-1))
        low = nrm < floor
        dependent[low & (dependent < 0)] = j
        y /= np.where(low, 1.0, nrm)[:, None]
        done.append((y, y[:, None, :].conj()))
    return [
        q if j < 0 else DegenerateSample(f"column {j} is numerically dependent")
        for q, j in zip(v, dependent.tolist())
    ]


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
