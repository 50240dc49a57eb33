"""Dense complex matrix helpers and a Hermitian eigensolver.

Matrices are plain numpy ``complex128`` arrays. The eigensolver is a
Jacobi iteration with complex 2x2 rotations, kept over QR-based methods
for its relative accuracy (Demmel & Veselić, "Jacobi's method is more
accurate than QR", 1992). Its sweeps follow the round-robin ordering of
Brent & Luk ("The solution of singular-value and symmetric eigenvalue
problems on multiprocessor arrays", 1985): n - 1 steps (n when n is odd),
each rotating up to n/2 disjoint index pairs, together covering every
pair once. A step is applied in one of three ways. For one matrix the
dimension alone chooses: below ``SMALL_DIM`` rotation by rotation on
Python complex scalars, from ``SMALL_DIM`` up as one unitary J per step
(W <- J* W J, V <- V J). ``_jacobi_stack`` runs the iteration on a stack
(B, n, n) of small matrices, each step as row and column updates of its
disjoint pairs across all members, which pays off when many of them are
diagonalized at once. All three ways run the same iteration, so each is
an oracle for the others; the stack way rounds as the scalar way does.

``hermitian_eig`` (one matrix) and ``hermitian_eig_each`` (a list)
share one path: ``_check`` gives each member of a stack the member or
its error, and ``_solve`` each checked member its own decomposition or
error; ``hermitian_eig_each`` groups a list into one stack per shape
with ``errors._batched``, the package's one grouping. The stack way
runs only below ``SMALL_DIM``, where one matrix takes the scalar way it
rounds as; other stacks go matrix by matrix, whether or not the stack
would be faster (``_solve``), so each matrix comes out as ``hermitian_eig``
gives it alone, bit for bit, or with its error.
``_measure`` is the one rescale: it finds each member's largest entry,
scales a member with an entry above ``RESCALE_ABOVE`` exactly by a power
of two and takes its Frobenius norm. The check measures a matrix once,
for its Hermiticity defect, and the solve once more, for the matrix it
diagonalizes and its stopping target.

No LAPACK routine is used anywhere in the package. The unitary steps
multiply through numpy's BLAS, so outputs are deterministic on one
machine but not byte-identical across platforms or BLAS builds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MonometricError, NoConvergence, NotHermitian, _batched, unwrap

MAX_DIM = 32
MAX_SWEEPS = 100
HERM_TOL = 1e-10
# measured crossover: below this dimension rotating Python scalars one by
# one beats one array update per step, from it up the array update wins
SMALL_DIM = 12
# measured crossover for a stack of B matrices of dimension n < SMALL_DIM:
# below B n = SMALL_STACK the scalar way, matrix by matrix, beats one stack
SMALL_STACK = 40
# a matrix with an entry above this is diagonalized scaled down by a power
# of two: far above the 1e100 scale of ordinary input, far below the about
# 1e154 / n where its squared Frobenius norm overflows
RESCALE_ABOVE = 2.0**400
# dimensions of sampled trials: desk scale, where every check stays cheap
TRIAL_DIMS = range(2, 9)


def _trial_count(trials) -> int:
    """``trials`` as an int, if it is an integer of at least one."""
    try:
        count = operator.index(trials)
    except TypeError:
        count = 0
    if count < 1:
        raise DomainError(f"need a whole number of trials, at least one, got {trials!r}")
    return count


def _seed(seed) -> int:
    """``seed`` as an int, if it is an integer of at least zero: the seed of
    ``verify``, ``check_operator_monotone`` and ``random_channel``."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    return value


def _trial_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints, if it is a non-empty sequence of integers
    in TRIAL_DIMS: the dimensions of sampled trials, in ``verify``,
    ``check_operator_monotone`` and ``random_channel``."""
    try:
        out = tuple(operator.index(d) for d in dims)
    except TypeError:
        out = ()
    if not out or any(d not in TRIAL_DIMS for d in out):
        raise DomainError(
            f"trial dimensions {dims!r} must be a non-empty list of integers in "
            f"[{TRIAL_DIMS[0]}, {TRIAL_DIMS[-1]}]"
        )
    return out


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2D complex128 array."""
    return unwrap(_matrix(m))


def _matrix(m) -> np.ndarray | MonometricError:
    """``m`` as ``as_matrix`` coerces it, or the error it raises; an error
    ``m`` is its own outcome, and what numpy cannot read is a DomainError."""
    if isinstance(m, MonometricError):
        return m
    try:
        a = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        return DomainError(f"not a matrix of complex numbers: {exc}")
    return a if a.ndim == 2 else DomainError(f"expected a 2D matrix, got ndim={a.ndim}")


def frobenius(m):
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    _, shift, norms = _measure(np.asarray(m))
    with np.errstate(over="ignore"):
        return np.ldexp(norms, shift)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _measure(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each matrix of a stack measured once, by its largest entry: the stack
    with each member that has an entry above ``RESCALE_ABOVE`` scaled by the
    power of two that brings that entry into [1, 2), each member's exponent
    (0 where unscaled), and the Frobenius norm of each member as scaled.

    The module's one rescale. A power of two scales exactly, so no square
    overflows and Jacobi keeps its relative accuracy; other members keep
    their bits.
    """
    mag = np.abs(a)
    big = mag.max(axis=(-2, -1), initial=0.0)
    over = big > RESCALE_ABOVE
    shift = np.zeros(big.shape, dtype=int)
    if over.any():
        shift = np.where(over, np.frexp(big)[1] - 1, 0)
        # scaled as pairs of reals: a complex product could turn -0.0 into
        # 0.0, and an input zero's sign can move other bits (a -0.0 on the
        # diagonal flips the sign of Jacobi's tau)
        parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
        a = (parts * np.ldexp(1.0, -shift)[..., None, None]).view(np.complex128)
        mag = np.abs(a)
    return a, shift, np.sqrt(np.add.reduce(mag**2, axis=(-2, -1)))


def hermiticity_defect(m: np.ndarray):
    """Relative Frobenius defect ||M - M*|| / (||M|| + 1), per matrix of a stack.

    Taken of each member as ``_measure`` scales it, the 1 scaled with it,
    so the subtraction cannot overflow; unscaled members keep their bits.
    A member with a non-finite entry, whose norm is not finite either, has
    defect NaN; its difference is taken of zeros, so inf - inf raises no
    warning.
    """
    a, shift, norms = _measure(m)
    finite = np.isfinite(norms)
    every = finite.all()
    if not every:
        a = np.where(finite[..., None, None], a, 0.0)
    diff = np.sqrt(np.add.reduce(np.abs(a - dagger(a)) ** 2, axis=(-2, -1)))
    defect = diff / (norms + np.ldexp(1.0, -shift))
    return defect if every else np.where(finite, defect, np.nan)


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex array if it is a finite Hermitian matrix."""
    return unwrap(_check(as_matrix(m)[None])[0])


def _check(a: np.ndarray) -> list[np.ndarray | MonometricError]:
    """Per member of a stack (B, n, n), in order: the member if it is a finite
    Hermitian matrix, else its error (not square, empty, a non-finite entry,
    or a ``hermiticity_defect`` above ``HERM_TOL``). A finite matrix has a
    finite defect, so a NaN defect is a non-finite entry."""
    count, n, n2 = a.shape
    if n != n2:
        return [NotHermitian(f"matrix is {n}x{n2}, not square") for _ in range(count)]
    if n == 0:
        return [DomainError("matrix is empty") for _ in range(count)]
    return [
        DomainError("matrix has a non-finite entry") if math.isnan(d)
        else NotHermitian(f"matrix has symmetry defect {d:.3e}, above tol {HERM_TOL:.3e}") if d > HERM_TOL
        else m
        for m, d in zip(a, hermiticity_defect(a).tolist())
    ]


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigendecomposition M = U diag(w) U* with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, values) -> np.ndarray:
        """U diag(values) U*."""
        u = self.eigenvectors
        return (u * np.asarray(values)) @ dagger(u)

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def hermitian_eig(m) -> HermitianEigen:
    """Diagonalize a Hermitian matrix by Jacobi rotations in round-robin order.

    Each sweep is the steps of ``_round_robin(n)``; a step's rotations
    touch disjoint index pairs. Below ``SMALL_DIM`` they are applied one
    by one on Python complex scalars, from ``SMALL_DIM`` up as one unitary
    per step; both ways run the same iteration. A rotation is skipped when
    its pivot has modulus at most ``off_target / (2n)``, and the iteration
    stops once the off-diagonal Frobenius norm is at most ``off_target =
    5e-15 * max(||M||_F, 1)``, tested before each sweep. Only the upper
    triangle and the real part of the diagonal are read. The matrix is
    checked as ``require_hermitian`` checks it; one with an entry above
    ``RESCALE_ABOVE`` is then diagonalized scaled by a power of two and
    its eigenvalues scaled back.

    Eigenvalues come back sorted ascending; ties keep the order in which
    the iteration produced them. Outputs are deterministic on one machine.
    Raises NotHermitian on asymmetric input, DomainError on an empty or
    non-finite input, an eigenvalue beyond the float range or n > MAX_DIM,
    and NoConvergence if the off-diagonal mass has not vanished after
    MAX_SWEEPS sweeps.
    """
    a = require_hermitian(m)
    return unwrap(_solve(a[None])[0])


def hermitian_eig_each(ms) -> list[HermitianEigen | MonometricError]:
    """Per matrix, in order, what ``hermitian_eig`` gives it alone: its
    decomposition, or the error it raises; an error in place of a matrix is
    its own. The matrices of one shape are checked, then solved, as stacks."""
    checked = _batched(map(_matrix, ms), np.shape, lambda group: _check(np.stack(group)))
    return _batched(checked, np.shape, lambda group: _solve(np.stack(group)))


def _solve(a: np.ndarray) -> list[HermitianEigen | MonometricError]:
    """Per member of a stack (B, n, n) that ``_check`` passes: its
    decomposition, or its own error (the ``MAX_DIM`` cap, ``NoConvergence``,
    or an eigenvalue beyond the float range once scaled back).

    The stack is measured once, by ``_measure``: each member is
    diagonalized as scaled there, with the stopping target and skip bound
    of its norm, and its eigenvalues are scaled back. One matrix goes
    rotation by rotation on Python scalars below ``SMALL_DIM`` and as one
    unitary per step from it up. Below ``SMALL_DIM``, a stack with
    B n >= SMALL_STACK runs as one ``_jacobi_stack``; every other stack
    goes member by member the way one matrix goes: a small stack is faster
    so. From ``SMALL_DIM`` up the stack, though faster at n = 12-16, would
    round as the scalar way, not as one matrix; no caller sends one there.
    Every zero it hands out is +0.0, whichever way rounded it.
    """
    count, n, _ = a.shape
    if n > MAX_DIM:
        return [DomainError(f"dimension {n} exceeds the desk-scale cap {MAX_DIM}") for _ in range(count)]
    a, shift, norms = _measure(a)
    off_target, skip = _thresholds(norms, n)
    errors: list = [None] * count
    if n < SMALL_DIM and count * n >= SMALL_STACK:
        eigs, vecs, stuck = _jacobi_stack(a, off_target, skip)
        for j in stuck:
            errors[j] = NoConvergence(f"Jacobi sweep cap {MAX_SWEEPS} hit at n={n}")
    else:
        way = _jacobi_scalar if n < SMALL_DIM else _jacobi_vectorized
        eigs, vecs = np.zeros((count, n)), np.zeros((count, n, n), dtype=np.complex128)
        for j, limits in enumerate(zip(off_target.tolist(), skip.tolist())):
            try:
                eigs[j], vecs[j] = way(a[j], *limits)
            except NoConvergence as exc:
                errors[j] = exc
    if shift.any():
        with np.errstate(over="ignore"):
            eigs = np.ldexp(eigs, shift[:, None])
        for j in np.flatnonzero(~np.isfinite(eigs).all(axis=1)):
            errors[j] = errors[j] or DomainError("an eigenvalue is beyond the float range")
    # one sort of the whole stack, by fancy indexing: cheaper than take_along_axis
    order = np.argsort(eigs, axis=-1, kind="stable")
    rows = np.arange(count)[:, None]
    eigs, vecs = eigs[rows, order], vecs[rows[:, None], np.arange(n)[:, None], order[:, None, :]]
    # adding 0.0 turns -0.0 into +0.0 and keeps every other entry's bits
    eigs += 0.0
    vecs += 0.0
    return [HermitianEigen(w, u) if e is None else e for e, w, u in zip(errors, eigs, vecs)]


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


def _thresholds(norms: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The convergence target for the off-diagonal norm and the skip bound
    of n x n matrices of Frobenius norms ``norms``."""
    off_target = 5e-15 * np.maximum(norms, 1.0)
    return off_target, off_target / (2.0 * n)


def _jacobi_scalar(a: np.ndarray, off_target: float, skip: float) -> tuple[np.ndarray, np.ndarray]:
    """The round-robin iteration, one rotation at a time on Python scalars.

    It stops once the off-diagonal norm is at most ``off_target`` and
    skips a pivot of modulus at most ``skip``, as ``_thresholds`` gives
    them. Returns the unsorted eigenvalues and the eigenvectors as columns.
    Only the upper triangle of ``a`` is read.
    """
    n = a.shape[0]
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


def _jacobi_vectorized(a: np.ndarray, off_target: float, skip: float) -> tuple[np.ndarray, np.ndarray]:
    """The round-robin iteration, each step's rotations as one unitary J.

    A step computes all its rotation parameters as arrays, then applies
    W <- J* W J and V <- V J, and sets each rotated 2x2 block of W in
    closed form. Takes and returns what ``_jacobi_scalar`` does.
    """
    n = a.shape[0]
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


def _jacobi_stack(
    a: np.ndarray, off_target: np.ndarray, skip: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    for bit as ``_jacobi_scalar`` makes it, but for the sign of an entry
    that is exactly zero, which the extra zero terms can flip: that stays
    inside the module, since ``_solve`` hands every zero out as +0.0. A
    pair whose pivot is at most its member's skip bound gets the identity
    rotation, which leaves its entries as they were. Before each sweep the
    members that meet their own target are stored and dropped. Returns
    unsorted eigenvalues (B, n), eigenvectors (B, n, n), and the indices of
    the members still active after ``MAX_SWEEPS`` sweeps, which do not
    converge alone either; their rows are zeros.
    """
    count, n, _ = a.shape
    upper = np.triu(a, 1)
    diag = np.arange(n) * (n + 1)
    m = np.zeros((n * n, 2, count), dtype=np.complex128)
    m[:, 0] = (upper + dagger(upper)).reshape(count, n * n).T
    m[diag, 0] = a.reshape(count, n * n)[:, diag].real.T
    m[diag, 1] = 1.0
    eigs = np.zeros((n, count))
    vecs = np.zeros((n * n, count), dtype=np.complex128)
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
            active, off_target, skip = active[keep], off_target[keep], skip[keep]
            if not active.size:
                break
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
    return eigs.T.copy(), vecs.T.reshape(count, n, n), active


def matrix_function(m, phi: Callable[[float], float]) -> np.ndarray:
    """Spectral application U diag(phi(w)) U* of a scalar function.

    The result is re-symmetrized so it is Hermitian to the last bit.
    """
    dec = hermitian_eig(m)
    out = dec.apply(np.array([float(phi(float(w))) for w in dec.eigenvalues]))
    return 0.5 * (out + dagger(out))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eig(m).eigenvalues[0])
