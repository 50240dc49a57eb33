"""One-at-a-time loops that the stacked sampling and channel paths replace,
kept as their oracles: a column-by-column Gram-Schmidt on one matrix, and
a random channel drawn, orthonormalized and checked alone. And
``same_bits``, the one bit-for-bit comparison of the tests."""

import math

import numpy as np

import monometric.channels
from monometric import DegenerateSample, KrausChannel
from monometric.channels import RESAMPLE_CAP
from monometric.sampling import RANK_TOL


def same_bits(a, b) -> bool:
    """``a`` and ``b`` have one dtype and shape and the same bytes, so -0.0
    differs from 0.0, which ``np.array_equal`` counts as equal."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gram_schmidt_loop(g):
    """Modified Gram-Schmidt, run twice, one column and one coefficient at a
    time; raises DegenerateSample at the first column that collapses."""
    v = np.asarray(g, dtype=np.complex128).copy()
    rows, cols = v.shape
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


def random_channel_loop(n, m, k, seed):
    """The channel of draw (n, m, k, seed), built alone: Gaussians from its
    own generator (through ``channels.ginibre``, so a test may replace
    it), each orthonormalized by ``gram_schmidt_loop`` until one is not
    degenerate, cut into k blocks and checked by ``KrausChannel``."""
    rng = np.random.default_rng([seed])
    for _ in range(RESAMPLE_CAP):
        try:
            iso = gram_schmidt_loop(monometric.channels.ginibre(rng, m * k, n))
        except DegenerateSample:
            continue
        return KrausChannel(operators=tuple(iso[i * m : (i + 1) * m, :] for i in range(k)))
    raise DegenerateSample(f"no isometry after {RESAMPLE_CAP} draws")


def apply_loop(channel, x):
    """SUM K X K*, one operator at a time onto zeros."""
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=np.complex128)
    for k in channel.operators:
        out += k @ x @ k.conj().T
    return out


def same_channel(a, b) -> bool:
    """Whether two channels hold the same operators, bit for bit."""
    return len(a.operators) == len(b.operators) and all(map(same_bits, a.operators, b.operators))
