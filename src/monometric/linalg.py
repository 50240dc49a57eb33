"""Dense complex matrix helpers and a Hermitian eigensolver.

Matrices are plain numpy ``complex128`` arrays. The eigensolver is a
Jacobi iteration with complex 2x2 rotations, kept over QR-based methods
for its relative accuracy (Demmel & Veselić, "Jacobi's method is more
accurate than QR", 1992). Its sweeps follow the round-robin ordering of
Brent & Luk ("The solution of singular-value and symmetric eigenvalue
problems on multiprocessor arrays", 1985): n - 1 steps (n when n is odd),
each rotating up to n/2 disjoint index pairs, together covering every
pair once. A step is applied in one of two ways, chosen by the dimension
alone: below ``SMALL_DIM`` rotation by rotation on Python complex
scalars, from ``SMALL_DIM`` up as one unitary J per step (W <- J* W J,
V <- V J). Both ways run the same iteration, so each is an oracle for
the other.

No LAPACK routine is used anywhere in the package. The unitary steps
multiply through numpy's BLAS, so outputs are deterministic on one
machine but not byte-identical across platforms or BLAS builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence, NotHermitian

MAX_DIM = 32
MAX_SWEEPS = 100
HERM_TOL = 1e-10
# measured crossover: below this dimension rotating Python scalars one by
# one beats one array update per step, from it up the array update wins
SMALL_DIM = 12


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DomainError(f"expected a 2D matrix, got ndim={a.ndim}")
    return a


def frobenius(m) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Relative Frobenius defect ||M - M*|| / (||M|| + 1)."""
    return frobenius(m - dagger(m)) / (frobenius(m) + 1.0)


def require_hermitian(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    if a.shape[0] == 0:
        raise DomainError("matrix is empty")
    if not np.isfinite(a).all():
        raise DomainError("matrix has a non-finite entry")
    if hermiticity_defect(a) > HERM_TOL:
        raise NotHermitian(
            f"symmetry defect {hermiticity_defect(a):.3e} exceeds tol {HERM_TOL:.3e}"
        )
    return a


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigendecomposition M = U diag(w) U* with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ dagger(u)


def hermitian_eig(m) -> HermitianEigen:
    """Diagonalize a Hermitian matrix by Jacobi rotations in round-robin order.

    Each sweep is the steps of ``_round_robin(n)``; a step's rotations
    touch disjoint index pairs. Below ``SMALL_DIM`` they are applied one
    by one on Python complex scalars, from ``SMALL_DIM`` up as one unitary
    per step; both ways run the same iteration. A rotation is skipped when
    its pivot has modulus at most ``off_target / (2n)``, and the iteration
    stops once the off-diagonal Frobenius norm is at most ``off_target =
    5e-15 * max(||M||_F, 1)``, tested before each sweep. Only the upper
    triangle and the real part of the diagonal are read.

    Eigenvalues come back sorted ascending; ties keep the order in which
    the iteration produced them. Outputs are deterministic on one machine.
    Raises NotHermitian on asymmetric input, DomainError on an empty or
    non-finite input or n > MAX_DIM, and NoConvergence if the off-diagonal
    mass has not vanished after MAX_SWEEPS sweeps.
    """
    a = require_hermitian(m)
    n = a.shape[0]
    if n > MAX_DIM:
        raise DomainError(f"dimension {n} exceeds the desk-scale cap {MAX_DIM}")
    jacobi = _jacobi_scalar if n < SMALL_DIM else _jacobi_vectorized
    eigs, vecs = jacobi(a)
    order = np.argsort(eigs, kind="stable")
    return HermitianEigen(eigenvalues=eigs[order], eigenvectors=vecs[:, order])


@functools.lru_cache(maxsize=MAX_DIM + 1)
def _round_robin(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One sweep: steps of disjoint pairs (p, q), p < q, covering each pair once.

    The circle method: index 0 stays put while the others move one place
    round per step. An odd n gets a dummy index n, whose pairs are dropped.
    """
    m = n + n % 2
    ring = list(range(m))
    steps = []
    for _ in range(m - 1):
        step = []
        for i in range(m // 2):
            p, q = sorted((ring[i], ring[m - 1 - i]))
            if q < n:
                step.append((p, q))
        steps.append(tuple(step))
        ring.insert(1, ring.pop())
    return tuple(steps)


@functools.lru_cache(maxsize=MAX_DIM + 1)
def _step_blocks(n: int) -> tuple[np.ndarray, ...]:
    """Per round-robin step, the flat indices of the (p,p), (q,p), (p,q)
    and (q,q) entries of its pairs, one row each."""
    blocks = []
    for step in _round_robin(n):
        p, q = np.array(step, dtype=np.intp).reshape(-1, 2).T
        block = np.stack((p * n + p, q * n + p, p * n + q, q * n + q))
        block.flags.writeable = False
        blocks.append(block)
    return tuple(blocks)


def _thresholds(a: np.ndarray) -> tuple[float, float]:
    """The convergence target for the off-diagonal norm and the skip bound."""
    off_target = 5e-15 * max(frobenius(a), 1.0)
    return off_target, off_target / (2.0 * a.shape[0])


def _jacobi_scalar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The round-robin iteration, one rotation at a time on Python scalars.

    Returns the unsorted eigenvalues and the eigenvectors as columns.
    Only the upper triangle of ``a`` is read.
    """
    n = a.shape[0]
    off_target, skip = _thresholds(a)
    w = a.tolist()
    for i, row in enumerate(w):
        row[i] = complex(row[i].real)
        for j in range(i):
            row[j] = w[j][i].conjugate()
    v = np.eye(n, dtype=np.complex128).tolist()
    steps = _round_robin(n)
    for _ in range(MAX_SWEEPS):
        off = 0.0
        for i, row in enumerate(w):
            for z in row[i + 1 :]:
                off += z.real * z.real + z.imag * z.imag
        if math.sqrt(2.0 * off) <= off_target:
            break
        for step in steps:
            for p, q in step:
                wp, wq = w[p], w[q]
                b = wp[q]
                ab = abs(b)
                if ab <= skip:
                    continue
                phase = b / ab
                app = wp[p].real
                aqq = wq[q].real
                tau = (aqq - app) / (2.0 * ab)
                t = 1.0 / (tau + math.copysign(math.sqrt(1.0 + tau * tau), tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cp = phase * c
                sp = phase * s
                # rows p, q of J* W, mirrored into columns p, q: W stays
                # exactly Hermitian, and the 2x2 block is set in closed form
                rcp, rsp = cp.conjugate(), sp.conjugate()
                for i in range(n):
                    if i != p and i != q:
                        x, y = wp[i], wq[i]
                        x, y = rcp * x - s * y, rsp * x + c * y
                        wp[i], wq[i] = x, y
                        row = w[i]
                        row[p], row[q] = x.conjugate(), y.conjugate()
                tab = t * ab
                wp[p], wp[q] = complex(app - tab), 0j
                wq[p], wq[q] = 0j, complex(aqq + tab)
                for row in v:
                    x, y = row[p], row[q]
                    row[p], row[q] = cp * x - s * y, sp * x + c * y
    else:
        raise NoConvergence(f"Jacobi sweep cap {MAX_SWEEPS} hit at n={n}")
    eigs = np.array([w[i][i].real for i in range(n)])
    return eigs, np.array(v, dtype=np.complex128)


def _jacobi_vectorized(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The round-robin iteration, each step's rotations as one unitary J.

    A step computes all its rotation parameters as arrays, then applies
    W <- J* W J and V <- V J, and sets each rotated 2x2 block of W in
    closed form. Returns what ``_jacobi_scalar`` returns.
    """
    n = a.shape[0]
    off_target, skip = _thresholds(a)
    upper = np.triu(a, 1)
    work = upper + dagger(upper)
    np.fill_diagonal(work, a.diagonal().real)
    eye = np.eye(n, dtype=np.complex128)
    vecs = eye
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(MAX_SWEEPS):
        off = work[off_mask]
        if math.sqrt(np.vdot(off, off).real) <= off_target:
            break
        for block in _step_blocks(n):
            b = work.take(block[2])
            ab = np.abs(b)
            rotate = ab > skip
            if not rotate.all():
                if not rotate.any():
                    continue
                block, b, ab = block[:, rotate], b[rotate], ab[rotate]
            app = work.take(block[0]).real
            aqq = work.take(block[3]).real
            tau = (aqq - app) / (2.0 * ab)
            t = 1.0 / (tau + np.copysign(np.sqrt(1.0 + tau * tau), tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            phase = b / ab
            j = eye.copy()
            j.put(block, np.concatenate((phase * c, -s, phase * s, c)))
            work = dagger(j) @ work @ j
            tab = t * ab
            zero = np.zeros_like(tab)
            work.put(block, np.concatenate((app - tab, zero, zero, aqq + tab)))
            vecs = vecs @ j
    else:
        raise NoConvergence(f"Jacobi sweep cap {MAX_SWEEPS} hit at n={n}")
    return work.diagonal().real.copy(), vecs


def matrix_function(m, phi: Callable[[float], float]) -> np.ndarray:
    """Spectral application U diag(phi(w)) U* of a scalar function.

    The result is re-symmetrized so it is Hermitian to the last bit.
    """
    dec = hermitian_eig(m)
    vals = np.array([float(phi(float(w))) for w in dec.eigenvalues])
    u = dec.eigenvectors
    out = (u * vals) @ dagger(u)
    return 0.5 * (out + dagger(out))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eig(m).eigenvalues[0])
