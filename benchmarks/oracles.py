"""Correctness oracles, run after each timed round and outside every timing.

Each check returns a boolean "miss" mask over a workload item's
operations; a miss counts as a failed operation. The references are
independent of the code under test: closed-form families for constant
weights, exact structural identities for random weights, and numpy
``eigh`` with closed-form or scipy-quadrature kernels for metric values.
"""

from __future__ import annotations

import math

import numpy as np

# Imported with the benchmark, before any timing, so that peak RSS does not
# depend on when the first oracle runs.
from scipy.integrate import quad

ANCHOR_RTOL = 1e-8  # constant weights against the closed-form families
SYMMETRY_RTOL = 1e-9  # f(t) = t f(1/t), F(x) = x + F(-x), exp(F(log t)) = f(t)
ENVELOPE_RTOL = 1e-12  # 2t/(1+t) <= f(t) <= (1+t)/2, up to rounding
METRIC_RTOL = 1e-9  # metric values against the numpy reference

# Column order of a kernel-grid item's values, one row per ratio r.
KERNEL_COLUMNS = ("c_xy", "c_yx", "f_r", "f_inv", "F_r", "F_inv")


def _rel_miss(value, reference, rtol):
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return ~(np.abs(value - reference) <= rtol * np.abs(reference))


def kernel_misses(mm, item, values: np.ndarray) -> np.ndarray:
    """Misses of one kernel-grid item; ``values`` has KERNEL_COLUMNS columns.

    A raised operation is recorded as NaN, which misses every check.
    """
    c_xy, c_yx, f_r, f_inv, F_r, F_inv = values.T
    r = item.ratios
    y = item.scales
    x = r * y
    logr = np.log(r)
    miss = np.zeros(values.shape, dtype=bool)

    def mark(cols, bad):
        for col in cols:
            miss[:, KERNEL_COLUMNS.index(col)] |= bad

    # bit-exact symmetry of the canonical kernel
    mark(("c_xy", "c_yx"), ~(c_xy == c_yx))
    mark(("f_r", "f_inv"), _rel_miss(f_r, r * f_inv, SYMMETRY_RTOL))
    mark(("F_r", "F_inv"), ~(np.abs(F_r - logr - F_inv) <= SYMMETRY_RTOL * np.maximum(1.0, np.abs(F_r))))
    mark(("F_r", "f_r"), _rel_miss(np.exp(F_r), f_r, SYMMETRY_RTOL))
    mark(("F_inv", "f_inv"), _rel_miss(np.exp(F_inv), f_inv, SYMMETRY_RTOL))
    for col, t, f in (("f_r", r, f_r), ("f_inv", 1.0 / r, f_inv)):
        lo = 2.0 * t / (1.0 + t)
        hi = (1.0 + t) / 2.0
        mark((col,), ~((f >= lo * (1.0 - ENVELOPE_RTOL)) & (f <= hi * (1.0 + ENVELOPE_RTOL))))

    if item.weight.anchor:
        g = item.weight.values[0]
        bridge = np.array([mm.eval_bridge(g, a, b) for a, b in zip(x, y)])
        gam_r = np.array([mm.eval_gamma_family(g, t) for t in r])
        gam_inv = np.array([mm.eval_gamma_family(g, 1.0 / t) for t in r])
        mark(("c_xy",), _rel_miss(c_xy, bridge, ANCHOR_RTOL))
        mark(("c_yx",), _rel_miss(c_yx, bridge, ANCHOR_RTOL))
        mark(("f_r",), _rel_miss(f_r, gam_r, ANCHOR_RTOL))
        mark(("f_inv",), _rel_miss(f_inv, gam_inv, ANCHOR_RTOL))
        mark(("F_r",), _rel_miss(np.exp(F_r), gam_r, ANCHOR_RTOL))
        mark(("F_inv",), _rel_miss(np.exp(F_inv), gam_inv, ANCHOR_RTOL))
    return miss


def _mc_log_integral(weight, t: float) -> float:
    """INT h(u) (1-u^2)/(1+u^2) (1+t^2)/((t+u)(1+ut)) du by scipy quad."""
    total = 0.0
    for lo, hi, v in zip(weight.breakpoints, weight.breakpoints[1:], weight.values):
        if v == 0.0:
            continue
        val, _ = quad(
            lambda u: (1.0 - u * u) / (1.0 + u * u) * (1.0 + t * t) / ((t + u) * (1.0 + u * t)),
            lo,
            hi,
            epsabs=0.0,
            epsrel=1e-13,
            limit=200,
        )
        total += v * val
    return total


def reference_kernel(item, w: np.ndarray) -> np.ndarray:
    """Kernel matrix C[i, j] = c(w_i, w_j), with 1/w_i on the diagonal."""
    x = w[:, None]
    y = w[None, :]
    if item.gamma is not None:
        g = item.gamma
        return x ** (-g) * y ** (-g) * ((x + y) / 2.0) ** (2.0 * g - 1.0)
    n = len(w)
    c0 = 2.0 * math.exp(-_mc_log_integral(item.weight, 1.0))
    out = np.empty((n, n))
    for i in range(n):
        out[i, i] = 1.0 / w[i]
        for j in range(i):
            hi, lo = max(w[i], w[j]), min(w[i], w[j])
            out[i, j] = out[j, i] = c0 / (hi + lo) * math.exp(
                _mc_log_integral(item.weight, hi / lo)
            )
    return out


def state_pairs(item) -> list:
    """The (A, B) tangent pairs of a metric-states item, in operation order."""
    h1, h2 = item.herm
    n1, n2 = item.nonherm
    return [(h1, h1), (n1, n1), (h2, n2), (n2, h1)]


def metric_misses(item, values: np.ndarray) -> np.ndarray:
    """Misses of one state's forms against numpy eigh plus reference kernels.

    Each form is compared relative to the sum of the moduli of its terms,
    which bounds the rounding of the form itself.
    """
    w, u = np.linalg.eigh(item.rho)
    kern = reference_kernel(item, w)
    miss = np.zeros(len(values), dtype=bool)
    for k, (a, b) in enumerate(state_pairs(item)):
        at = u.conj().T @ a @ u
        bt = u.conj().T @ b @ u
        terms = kern * np.conj(at) * bt
        scale = float(np.sum(np.abs(terms)))
        miss[k] = not abs(values[k] - terms.sum()) <= METRIC_RTOL * scale
    return miss


def verify_misses(results: list[tuple[int, str]]) -> np.ndarray:
    """A verify call misses if it exits non-zero or its report differs from
    the run's first report."""
    first = results[0][1]
    return np.array([rc != 0 or out != first for rc, out in results], dtype=bool)
