"""The three workloads: how one round of inputs is driven through the
package's public API, timed, and checked.

Every workload is a closed loop with one caller. ``run_round`` times each
operation on its own with ``clock`` and reports the round's busy time,
which also covers per-item work that is not an operation (state builds,
weight normalization). ``misses`` runs the oracles and is never timed.
``clock`` is ``time.perf_counter`` unless the runner swaps in the
host-speed clock of ``hostclock.py``.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
import streams

clock = time.perf_counter


@dataclass
class RoundResult:
    """Per-operation latencies and outputs of one round."""

    busy_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raised: list[bool] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # one entry per item


def _timed(fn, result: RoundResult, errors):
    t0 = clock()
    try:
        value = fn()
        ok = True
    except errors:
        value = math.nan
        ok = False
    result.latencies.append(clock() - t0)
    result.raised.append(not ok)
    return value


def _all_failed(res: RoundResult, t0: float, count: int) -> list[float]:
    """Record every operation of an item whose set-up raised as failed."""
    res.latencies += [clock() - t0] * count
    res.raised += [True] * count
    return [math.nan] * count


def kernel_ops(mm, item, c, f, F) -> list:
    """Operations of one kernel-grid item, in ``oracles.KERNEL_COLUMNS`` order."""
    ops = []
    for r, y in zip(item.ratios, item.scales):
        r, y = float(r), float(y)
        x = r * y
        logr = math.log(r)
        ops += [
            lambda x=x, y=y: c(x, y),
            lambda x=x, y=y: c(y, x),
            lambda r=r: f(r),
            lambda r=r: f(1.0 / r),
            lambda logr=logr: mm.eval_exp_order(F, logr),
            lambda logr=logr: mm.eval_exp_order(F, -logr),
        ]
    return ops


def state_ops(mm, spec, state, item) -> list:
    """Operations of one metric-states item, in ``oracles.state_pairs`` order."""
    (a0, _), (a1, _), (a2, b2), (a3, b3) = oracles.state_pairs(item)
    return [
        lambda: mm.metric_quadratic(spec, state, a0),
        lambda: mm.metric_quadratic(spec, state, a1),
        lambda: mm.metric_form(spec, state, a2, b2),
        lambda: mm.metric_form(spec, state, a3, b3),
    ]


def _next_op(tracer):
    """Give the spans of the next item (one request) a fresh op id."""
    if tracer is not None:
        tracer.current_op += 1


class KernelGrid:
    """Canonical (beta, h) evaluation: quadrature-bound, no eigensolves."""

    name = "kernel-grid"
    trace_rounds = 8

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def inputs(self, seed: int, round_index: int):
        return streams.kernel_round(seed, round_index, self.smoke)

    def run_round(self, mm, items, tracer=None) -> RoundResult:
        res = RoundResult()
        for k, item in enumerate(items):
            _next_op(tracer)
            t0 = clock()
            try:
                h = mm.WeightFunction(item.weight.breakpoints, item.weight.values)
                c = mm.CanonicalMC.normalized(h)
                f = mm.CanonicalMonotone.normalized(h)
                F = mm.ExpOrderFunction(beta=f.beta, h=h)
                ops = kernel_ops(mm, item, c, f, F)
                values = [_timed(op, res, mm.MonometricError) for op in ops]
            except mm.MonometricError:
                values = _all_failed(res, t0, len(oracles.KERNEL_COLUMNS) * len(item.ratios))
            res.outputs.append(np.array(values).reshape(-1, len(oracles.KERNEL_COLUMNS)))
            res.busy_s += clock() - t0
        return res

    def misses(self, mm, items, res: RoundResult) -> np.ndarray:
        return np.concatenate(
            [oracles.kernel_misses(mm, it, v).ravel() for it, v in zip(items, res.outputs)]
        )


class MetricStates:
    """Metric forms at fresh states: eigensolver- and kernel-bound."""

    name = "metric-states"
    trace_rounds = 2

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def inputs(self, seed: int, round_index: int):
        return streams.state_round(seed, round_index, self.smoke)

    def run_round(self, mm, items, tracer=None) -> RoundResult:
        res = RoundResult()
        for k, item in enumerate(items):
            _next_op(tracer)
            t0 = clock()
            try:
                state = mm.DensityMatrix.from_matrix(item.rho)
                if item.gamma is not None:
                    kernel = mm.BridgeMC(item.gamma)
                else:
                    h = mm.WeightFunction(item.weight.breakpoints, item.weight.values)
                    kernel = mm.CanonicalMC.normalized(h)
                ops = state_ops(mm, mm.MetricSpec(c=kernel), state, item)
                values = [_timed(op, res, mm.MonometricError) for op in ops]
            except mm.MonometricError:
                values = _all_failed(res, t0, 4)
            res.outputs.append(np.array(values))
            res.busy_s += clock() - t0
        return res

    def misses(self, mm, items, res: RoundResult) -> np.ndarray:
        return np.concatenate(
            [oracles.metric_misses(it, v) for it, v in zip(items, res.outputs)]
        )


def verify_call(mm, argv) -> tuple[int, str]:
    """One in-process ``monometric verify`` with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = mm.cli.main(list(argv))
    return rc, out.getvalue()


class VerifyAll:
    """The ROADMAP's headline ``verify --suite all`` run; one call per round."""

    name = "verify-all"
    trace_rounds = 1

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.first = None

    def inputs(self, seed: int, round_index: int):
        return streams.verify_argv(seed, self.smoke)

    def run_round(self, mm, argv, tracer=None) -> RoundResult:
        res = RoundResult()
        _next_op(tracer)
        t0 = clock()
        res.outputs.append(verify_call(mm, argv))
        res.latencies.append(clock() - t0)
        res.raised.append(False)
        res.busy_s = res.latencies[0]
        return res

    def misses(self, mm, argv, res: RoundResult) -> np.ndarray:
        if self.first is None:
            self.first = res.outputs[0]
        return oracles.verify_misses([self.first, *res.outputs])[1:]


WORKLOADS = {w.name: w for w in (VerifyAll, KernelGrid, MetricStates)}
