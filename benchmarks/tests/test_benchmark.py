"""Tests of the benchmark itself: oracles have teeth, traced counts repeat,
untraced runs record no spans, and the smoke mode runs end to end.

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostclock  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "linalg.eig_calls",
    "linalg.eig_per_op",
    "quadrature.integrate_calls",
    "quadrature.integrate_per_op",
    "quadrature.failures",
    "chentsov.c_calls",
    "metric.form_calls",
    "metric.c_per_form",
    "metric.state_builds",
    "channels.trial_calls",
    "channels.trial_accept_ratio",
    "sampling.calls",
    "sampling.degenerate_draws",
)


@pytest.fixture(scope="module")
def mm():
    module, _, _ = run.setup(workloads.KernelGrid(smoke=True), 0)
    return module


def scaled_bridge(mm, gamma, factor=1.0 + 1e-6):
    return lambda x, y: factor * mm.eval_bridge(gamma, x, y)


def invalid_kernel(mm):
    return mm.verify._invalid_kernel


def _kernel_values(mm, item, c):
    h = mm.WeightFunction(item.weight.breakpoints, item.weight.values)
    f = mm.CanonicalMonotone.normalized(h)
    F = mm.ExpOrderFunction(beta=f.beta, h=h)
    ops = workloads.kernel_ops(mm, item, c, f, F)
    return np.array([op() for op in ops]).reshape(-1, len(oracles.KERNEL_COLUMNS))


def test_kernel_oracle_passes_the_package_and_flags_planted_kernels(mm):
    anchor = streams.KernelItem(
        streams.Weight((0.0, 1.0), (0.5,), anchor=True),
        ratios=np.array([1.0, 37.0, 3e8, 2e9]),
        scales=np.array([1.0, 0.01, 5.0, 1e-3]),
    )
    h = mm.WeightFunction((0.0, 1.0), (0.5,))
    good = _kernel_values(mm, anchor, mm.CanonicalMC.normalized(h))
    assert not oracles.kernel_misses(mm, anchor, good).any()

    scaled = _kernel_values(mm, anchor, scaled_bridge(mm, 0.5))
    miss = oracles.kernel_misses(mm, anchor, scaled)
    assert miss[:, :2].all() and not miss[:, 2:].any()

    for item in streams.kernel_round(7, 0, smoke=True):
        bad = _kernel_values(mm, item, invalid_kernel(mm))
        # ratio 1 is symmetric even for the broken kernel; every other row misses
        asym = item.ratios != 1.0
        assert oracles.kernel_misses(mm, item, bad)[asym, :2].all()


def test_kernel_oracle_counts_raised_operations(mm):
    item = streams.kernel_round(7, 0, smoke=True)[1]
    values = _kernel_values(mm, item, mm.CanonicalMC.normalized(
        mm.WeightFunction(item.weight.breakpoints, item.weight.values)))
    values[0, 2] = math.nan
    miss = oracles.kernel_misses(mm, item, values)
    assert miss[0, 2] and miss.sum() >= 1


def _state_values(mm, item, c):
    state = mm.DensityMatrix.from_matrix(item.rho)
    ops = workloads.state_ops(mm, mm.MetricSpec(c=c), state, item)
    return np.array([op() for op in ops])


def test_metric_oracle_passes_the_package_and_flags_planted_kernels(mm):
    items = streams.state_round(11, 0, smoke=True)
    bridge = next(it for it in items if it.gamma == 0.5 and len(it.rho) > 2)
    canonical = next(it for it in items if it.gamma is None)

    assert not oracles.metric_misses(bridge, _state_values(mm, bridge, mm.BridgeMC(0.5))).any()
    h = mm.WeightFunction(canonical.weight.breakpoints, canonical.weight.values)
    good = mm.CanonicalMC.normalized(h)
    assert not oracles.metric_misses(canonical, _state_values(mm, canonical, good)).any()

    assert oracles.metric_misses(bridge, _state_values(mm, bridge, scaled_bridge(mm, 0.5))).all()
    assert oracles.metric_misses(bridge, _state_values(mm, bridge, invalid_kernel(mm))).all()
    off = mm.CanonicalMC(c0=good.c0 * (1.0 + 1e-6), h=h)
    assert oracles.metric_misses(canonical, _state_values(mm, canonical, off)).all()


@pytest.mark.parametrize("plant", ["scaled", "asymmetric"])
def test_verify_oracle_flags_planted_kernels(mm, monkeypatch, plant):
    argv = streams.verify_argv(3, smoke=True)
    good = workloads.verify_call(mm, argv)
    if plant == "scaled":
        fake = lambda g, x, y: (1.0 + 1e-6) * mm.eval_bridge(g, x, y)  # noqa: E731
    else:
        fake = lambda g, x, y: mm.verify._invalid_kernel(x, y)  # noqa: E731
    monkeypatch.setattr(mm.verify, "eval_bridge", fake)
    bad = workloads.verify_call(mm, argv)
    assert oracles.verify_misses([good, good, bad]).tolist() == [False, False, True]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_untraced_runs_record_no_spans(name):
    wl = workloads.WORKLOADS[name](smoke=True)
    mm, first, setup_s = run.setup(wl, 5)
    tallies, metrics, info = run.run_untraced(wl, mm, 5, first, 0.01, setup_s)
    assert not info["spans_installed"]
    assert tallies[0].attempted > 0 and tallies[0].failed == 0
    assert info["setup_samples"] == run.SETUP_SAMPLES
    assert metrics["setup_s"] > 0

    results = [run.run_traced(wl, mm, 5, first) for _ in range(2)]
    assert not spans.any_wrapper_installed()
    assert all(t.failed == 0 for tallies, _, _ in results for t in tallies)
    (_, first_metrics, first_info), (_, second_metrics, second_info) = results
    assert first_info["spans"] == second_info["spans"] > 0
    for key in COUNTS:
        assert first_metrics[key] == second_metrics[key], key
    if name == "kernel-grid":
        assert first_metrics["linalg.eig_calls"] == 0
        assert first_metrics["quadrature.integrate_calls"] > 0
    else:
        assert first_metrics["linalg.eig_calls"] > 0
    if name == "verify-all":
        assert first_metrics["channels.trial_calls"] > 0
        assert first_metrics["verify.suite_s.channels"] > 0


def test_tally_percentiles_match_numpy_to_a_bin():
    rng = np.random.default_rng(0)
    lat = 10.0 ** rng.uniform(-6.0, 1.0, 5000)
    tally = run.Tally()
    for chunk in np.split(lat, 10):
        tally.add(workloads.VerifyAll(), None, None, workloads.RoundResult(
            busy_s=chunk.sum(), latencies=list(chunk), raised=[False] * len(chunk),
            outputs=[(0, "")] * len(chunk)))
    assert tally.ops == 5000 and tally.failed == 0
    for q in (1, 50, 99):
        assert tally.percentile(q) == pytest.approx(np.percentile(lat, q), rel=1.2e-3)
    srt = np.sort(lat)
    assert tally.interval_mean(0.25, 0.75) == pytest.approx(srt[1250:3750].mean(), rel=1.2e-3)
    assert tally.interval_mean(0.98, 0.995) == pytest.approx(srt[4900:4975].mean(), rel=1.2e-3)


def test_interval_mean_splits_a_cut_operation():
    tally = run.Tally()
    lat = [1e-3, 2e-3, 3e-3, 4e-3]
    tally.add(workloads.VerifyAll(), None, None, workloads.RoundResult(
        busy_s=sum(lat), latencies=lat, raised=[False] * 4, outputs=[(0, "")] * 4))
    assert tally.interval_mean(0.25, 0.75) == pytest.approx(2.5e-3, rel=1e-12)
    assert tally.interval_mean(0.98, 0.995) == pytest.approx(4e-3, rel=1e-12)
    assert tally.interval_mean(0.125, 0.375) == pytest.approx(1.5e-3, rel=1e-12)


def test_host_clock_reads_nominal_time_for_the_reference_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    calls = 400
    with pytest.raises(KeyboardInterrupt):
        with hostclock.HostClock() as host:
            t0 = host()
            for _ in range(calls):
                hostclock.reference()
            elapsed = host() - t0
            raise KeyboardInterrupt
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= 5 and host.slowdown() > 0
    # The clock is calibrated on the reference itself, so whatever the
    # host's load, running it reads about NOMINAL_S per call.
    assert elapsed == pytest.approx(calls * hostclock.NOMINAL_S, rel=0.3)


def test_tracer_restores_every_binding():
    mm, _, _ = run.setup(workloads.VerifyAll(smoke=True), 0)
    before = (mm.hermitian_eig, mm.linalg.hermitian_eig, mm.metric.hermitian_eig,
              mm.verify._SUITE_RUNNERS["channels"], mm.DensityMatrix.from_matrix)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mm.metric.hermitian_eig is not before[2]
        assert mm.verify._SUITE_RUNNERS["channels"] is not before[3]
        mm.min_eigenvalue(np.eye(2))
    finally:
        tracer.uninstall()
    after = (mm.hermitian_eig, mm.linalg.hermitian_eig, mm.metric.hermitian_eig,
             mm.verify._SUITE_RUNNERS["channels"], mm.DensityMatrix.from_matrix)
    assert after == before
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[:3] == ["linalg.min_eigenvalue", "linalg.hermitian_eig",
                         "linalg.require_hermitian"]
    assert list(tracer.parent[:3]) == [-1, 0, 1]


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_mode_runs_every_workload_in_seconds(trace):
    proc = _run(["--workload", "all", "--seed", "4", "--seconds", "0.2",
                 "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    for name in workloads.WORKLOADS:
        for m in wanted:
            got = result["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"]
            if trace == "0":
                assert got["value"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "kernel-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
