"""Dense complex matrix helpers and a Hermitian eigensolver.

Matrices are plain numpy ``complex128`` arrays. The eigensolver is a
Jacobi iteration with complex 2x2 rotations, kept over QR-based methods
for its relative accuracy (Demmel & Veselić, "Jacobi's method is more
accurate than QR", 1992). Its sweeps follow the round-robin ordering of
Brent & Luk ("The solution of singular-value and symmetric eigenvalue
problems on multiprocessor arrays", 1985): n - 1 steps (n when n is odd),
each rotating up to n/2 disjoint index pairs, together covering every
pair once. ``hermitian_eig`` applies a step to one matrix in one of two
ways, chosen by the dimension alone: below ``SMALL_DIM`` rotation by
rotation on Python complex scalars, from ``SMALL_DIM`` up as one unitary
J per step (W <- J* W J, V <- V J). ``hermitian_eig_stack`` runs the same
iteration on a stack (B, n, n) of small matrices, each step as row and
column updates of its disjoint pairs across all members, which pays off
when many of them are diagonalized at once: the sampled trials of
``verify`` and ``check_operator_monotone``. All three ways run the same
iteration, so each is an oracle for the others; the stack way rounds as
the scalar way does. The stack way runs only below ``SMALL_DIM``, where
``hermitian_eig`` takes the scalar way, and other stacks go matrix by
matrix, so a member of any stack comes out bit for bit as
``hermitian_eig`` gives that matrix alone.

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
# measured crossover for a stack of B matrices of dimension n < SMALL_DIM:
# below B n = SMALL_STACK the scalar way, matrix by matrix, beats one stack
SMALL_STACK = 40


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DomainError(f"expected a 2D matrix, got ndim={a.ndim}")
    return a


def frobenius(m) -> float:
    return float(_norms(np.asarray(m)))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.sqrt(np.add.reduce(np.abs(m) ** 2, axis=(-2, -1)))


def hermiticity_defect(m: np.ndarray):
    """Relative Frobenius defect ||M - M*|| / (||M|| + 1), per matrix of a stack."""
    return _norms(m - dagger(m)) / (_norms(m) + 1.0)


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex array if it is a finite Hermitian matrix.

    A stack (B, n, n) is checked member by member, and the error names the
    first member that fails.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise DomainError(f"expected a matrix or a stack of them, got ndim={a.ndim}")
    n, n2 = a.shape[-2:]
    if n != n2:
        raise NotHermitian(f"matrix is {n}x{n2}, not square")
    if a.size == 0:
        raise DomainError("matrix is empty")
    if not np.isfinite(a).all():
        where, _ = _first_failure(np.isfinite(a).all(axis=(-2, -1)))
        raise DomainError(f"{where} has a non-finite entry")
    defect = hermiticity_defect(a)
    hermitian = defect <= HERM_TOL
    if not hermitian.all():
        where, i = _first_failure(hermitian)
        raise NotHermitian(
            f"{where} has symmetry defect {np.ravel(defect)[i]:.3e}, "
            f"above tol {HERM_TOL:.3e}"
        )
    return a


def _first_failure(ok: np.ndarray) -> tuple[str, int]:
    """The name and flat index of the first member whose check is False."""
    i = int(np.argmin(np.ravel(ok)))
    return ("matrix" if ok.ndim == 0 else f"stack member {i}"), i


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigendecomposition M = U diag(w) U* with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ dagger(u)


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
    if a.ndim != 2:
        raise DomainError(f"expected a 2D matrix, got ndim={a.ndim}")
    n = a.shape[0]
    if n > MAX_DIM:
        raise DomainError(f"dimension {n} exceeds the desk-scale cap {MAX_DIM}")
    eigs, vecs = _way(n)(a)
    order = np.argsort(eigs, kind="stable")
    return HermitianEigen(eigenvalues=eigs[order], eigenvectors=vecs[:, order])


def hermitian_eig_stack(ms) -> HermitianEigen:
    """Diagonalize a stack (B, n, n) of Hermitian matrices at once.

    Each member comes out bit for bit as ``hermitian_eig`` gives it alone.
    Below ``SMALL_DIM``, a stack with B n >= SMALL_STACK runs the iteration
    on every member at once, each round-robin step applied to the whole
    stack as row and column updates of its disjoint pairs; every member
    keeps its own convergence target and skip bound and leaves the stack
    once converged, so it runs the sweeps it would run alone, and rounds
    as ``_jacobi_scalar`` does. Every other stack goes matrix by matrix
    the way ``hermitian_eig`` takes its dimension: a small stack is faster
    so, and from ``SMALL_DIM`` up one unitary per step beats the stack.
    Returns eigenvalues (B, n), each row ascending, and eigenvectors
    (B, n, n) as columns. Raises what ``hermitian_eig`` raises, naming the
    first member that fails a check.
    """
    a = require_hermitian(ms)
    if a.ndim != 3:
        raise DomainError(f"expected a stack of matrices, got ndim={a.ndim}")
    count, n, _ = a.shape
    if n > MAX_DIM:
        raise DomainError(f"dimension {n} exceeds the desk-scale cap {MAX_DIM}")
    if n < SMALL_DIM and count * n >= SMALL_STACK:
        eigs, vecs = _jacobi_stack(a)
    else:
        eigs, vecs = (np.stack(out) for out in zip(*map(_way(n), a)))
    order = np.argsort(eigs, axis=-1, kind="stable")
    return HermitianEigen(
        eigenvalues=np.take_along_axis(eigs, order, axis=-1),
        eigenvectors=np.take_along_axis(vecs, order[:, None, :], axis=-1),
    )


def _way(n: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """How ``hermitian_eig`` diagonalizes one matrix of dimension n: rotation
    by rotation on Python scalars below ``SMALL_DIM``, one unitary per step
    from it up."""
    return _jacobi_scalar if n < SMALL_DIM else _jacobi_vectorized


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


@functools.lru_cache(maxsize=MAX_DIM + 1)
def _stack_steps(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per round-robin step, flat indices into an n x n matrix: the step's
    2x2 blocks as in ``_step_blocks``, rows p and q (2, pairs, n), columns
    p and q (2, pairs, n), and the entries (r, c) whose row lies in a later
    pair of the step than their column, with their mirrors (c, r)."""
    steps = []
    span = np.arange(n)
    for step, block in zip(_round_robin(n), _step_blocks(n)):
        p, q = block[0] // n, block[3] // n
        rows = np.stack((p[:, None] * n + span, q[:, None] * n + span))
        cols = np.stack((span * n + p[:, None], span * n + q[:, None]))
        order = np.full(n, -1)
        for k, pair in enumerate(step):
            order[list(pair)] = k
        r, c = np.nonzero((order[:, None] > order) & (order >= 0))
        later, mirror = r * n + c, c * n + r
        for index in (rows, cols, later, mirror):
            index.flags.writeable = False
        steps.append((block, rows, cols, later, mirror))
    return tuple(steps)


def _thresholds(a: np.ndarray):
    """The convergence target for the off-diagonal norm and the skip bound,
    per matrix of a stack."""
    off_target = 5e-15 * np.maximum(_norms(a), 1.0)
    return off_target, off_target / (2.0 * a.shape[-1])


def _jacobi_scalar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The round-robin iteration, one rotation at a time on Python scalars.

    Returns the unsorted eigenvalues and the eigenvectors as columns.
    Only the upper triangle of ``a`` is read.
    """
    n = a.shape[0]
    off_target, skip = map(float, _thresholds(a))
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


def _jacobi_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The round-robin iteration on a stack (B, n, n), step by step.

    W and V are held as one array (n*n, W or V, B), entry-major, so that
    every gathered row or column is a run of contiguous values. A step
    gathers rows p and q of W, rotates them (W <- J* W), does the same to
    the columns of W and V at once (W <- W J, V <- V J), and sets each
    rotated 2x2 block in closed form: O(B n^2) per step. Entries whose row
    lies in a later pair of the step than their column then take the
    conjugates of their mirrors, as when ``_jacobi_scalar`` rotates pair
    after pair. A product k x of complex numbers is formed as kr x + ki ix,
    which rounds each real term once, as Python's complex type does
    (numpy's complex multiply may fuse them); so each member comes out bit
    for bit as ``_jacobi_scalar`` makes it. A pair whose pivot is at most
    its member's skip bound gets the identity rotation, which leaves its
    entries as they were. Before each sweep the members that meet their
    own target are stored and dropped. Returns unsorted eigenvalues (B, n)
    and eigenvectors (B, n, n).
    """
    count, n, _ = a.shape
    off_target, skip = _thresholds(a)
    upper = np.triu(a, 1)
    diag = np.arange(n) * (n + 1)
    m = np.zeros((n * n, 2, count), dtype=np.complex128)
    m[:, 0] = (upper + dagger(upper)).reshape(count, n * n).T
    m[diag, 0] = a.reshape(count, n * n)[:, diag].real.T
    m[diag, 1] = 1.0
    eigs = np.empty((n, count))
    vecs = np.empty((n * n, count), dtype=np.complex128)
    active = np.arange(count)
    above = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    steps = _stack_steps(n)
    for _ in range(MAX_SWEEPS):
        off = m[above, 0]
        # summed in row order, as _jacobi_scalar sums: a plain sum over
        # one member would be pairwise
        off = np.sqrt(2.0 * np.cumsum(off.real**2 + off.imag**2, axis=0)[-1])
        done = off <= off_target
        if done.any():
            eigs[:, active[done]] = m[diag, 0][:, done].real
            vecs[:, active[done]] = m[:, 1][:, done]
            keep = ~done
            if not keep.any():
                return eigs.T.copy(), vecs.T.reshape(count, n, n)
            active, off_target, skip = active[keep], off_target[keep], skip[keep]
            m = m[..., keep]
        w = m[:, 0]
        for block, rows, cols, later, mirror in steps:
            blk = w[block]
            b = blk[2]
            # abs as Python takes it; np.abs of a complex array may round
            # differently
            ab = np.hypot(b.real, b.imag)
            rotate = ab > skip
            if not rotate.any():
                continue
            app = blk[0].real
            aqq = blk[3].real
            # skipped pairs get t = 0 and phase 1 through safe denominators
            safe = np.where(rotate, ab, 1.0)
            tau = np.where(rotate, aqq - app, 0.0) / (2.0 * safe)
            t = 1.0 / (tau + np.copysign(np.sqrt(1.0 + tau * tau), tau))
            t[~rotate] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            pr = np.where(rotate, b.real, 1.0) / safe
            pi = np.where(rotate, b.imag, 0.0) / safe
            # rows x, y become conj(cp) x - s y and conj(sp) x + c y, columns
            # the same with cp, sp unconjugated; cp = phase c, sp = phase s
            cs = np.concatenate((c[None], s[None]))[:, :, None]
            kr, ki = pr[:, None] * cs, pi[:, None] * cs
            l = np.concatenate((-s[None], c[None]))[:, :, None]
            g = w[rows]
            x = g[:1]
            w[rows] = (kr * x - ki * (x * 1j)) + l * g[1:]
            kr, ki, l = kr[..., None, :], ki[..., None, :], l[..., None, :]
            g = m[cols]
            x = g[:1]
            m[cols] = (kr * x + ki * (x * 1j)) + l * g[1:]
            tab = t * ab
            blk[0] = app - tab
            blk[3] = aqq + tab
            blk[1:3, rotate] = 0.0
            w[block] = blk
            w[later] = w[mirror].conj()
    raise NoConvergence(f"Jacobi sweep cap {MAX_SWEEPS} hit at n={n}")


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
