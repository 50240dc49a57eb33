"""Benchmark of the monometric package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload metric-states --seed 1 --seconds 30 --trace 0

``--workload`` is one of verify-all, kernel-grid, metric-states, or ``all``
(each workload in its own process, then one table). With ``--trace 0`` the
run measures for about ``--seconds`` seconds of busy time and reports the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it runs a
fixed amount of work twice, untraced and then with span wrappers on every
layer, and reports the per-layer metrics. Each round's outputs are checked
against the oracles in ``oracles.py``, outside the timing. The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The process exits 0 when every operation passed its oracle, 1 when some did
not, 2 when the package source is missing.
"""

from __future__ import annotations

import os

# One process, one thread: BLAS must not spread onto the shared cores.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostclock  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15
PACKAGE = "monometric"


class MissingSource(Exception):
    pass


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}


def _purge_package() -> None:
    for name in _package_modules():
        del sys.modules[name]


def _setup_once(wl, seed: int):
    """One set-up: a fresh import of the package and its CLI plus round 0."""
    _purge_package()
    gc.collect()
    t0 = workloads.clock()
    mm = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    first = wl.inputs(seed, 0)
    return mm, first, workloads.clock() - t0


def setup(wl, seed: int):
    """Import the package from ``src/`` and build round 0, timed once.

    Returns the module, round 0 and the set-up time in seconds.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingSource(f"package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mm, first, elapsed = _setup_once(wl, seed)
    if not Path(mm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingSource(f"{PACKAGE} imported from {mm.__file__}, not {SRC}")
    return mm, first, elapsed


def resample_setup(wl, seed: int) -> float:
    """Time one more set-up, then put back the modules the run is using.

    The fresh copies are dropped, so every round runs on the package the
    run imported first, with whatever state it has built up.
    """
    running = _package_modules()
    try:
        return _setup_once(wl, seed)[2]
    finally:
        _purge_package()
        sys.modules.update(running)


class Tally:
    """Running totals of one phase, checked round by round.

    Latencies go into log-spaced bins 0.115% wide, so memory stays constant
    however many rounds a faster program gets through, and peak RSS measures
    the program rather than the benchmark's bookkeeping.
    """

    BINS_PER_DECADE = 2000
    LOG10_LO = -8.0  # 10 ns; the top bin starts at 1000 s
    BINS = 11 * BINS_PER_DECADE

    def __init__(self):
        self.counts = np.zeros(self.BINS, dtype=np.int64)
        self.sums = np.zeros(self.BINS)  # seconds of the latencies in each bin
        self.busy_s = 0.0
        self.wall_s = 0.0  # busy time on the wall clock; busy_s is on workloads.clock
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def add(self, wl, mm, inputs, res) -> None:
        """Bin the round's latencies, then run its oracles (untimed)."""
        lat = np.maximum(np.asarray(res.latencies), 1e-9)
        idx = np.floor((np.log10(lat) - self.LOG10_LO) * self.BINS_PER_DECADE)
        idx = np.clip(idx, 0, self.BINS - 1).astype(np.int64)
        self.counts += np.bincount(idx, minlength=self.BINS)
        self.sums += np.bincount(idx, weights=lat, minlength=self.BINS)
        self.busy_s += res.busy_s
        self.rounds += 1
        bad = wl.misses(mm, inputs, res) | np.array(res.raised, dtype=bool)
        self.attempted += len(bad)
        self.failed += int(bad.sum())

    @property
    def ops(self) -> int:
        return int(self.counts.sum())

    def percentile(self, q: float) -> float:
        """Latency in seconds at percentile q, interpolated like numpy's."""
        cum = np.cumsum(self.counts)
        rank = q / 100.0 * (self.ops - 1)

        def value(k):
            b = int(np.searchsorted(cum, k, side="right"))
            return 10.0 ** (self.LOG10_LO + (b + 0.5) / self.BINS_PER_DECADE)

        lo = value(np.floor(rank))
        return lo + (rank - np.floor(rank)) * (value(np.ceil(rank)) - lo)

    def interval_mean(self, qa: float, qb: float) -> float:
        """Mean latency in seconds of the operations between the quantiles
        qa and qb (0 <= qa < qb <= 1).

        Each operation holds 1/ops of the probability mass, and one cut by
        qa or qb counts by its share inside; within a bin, operations are
        taken at the bin's mean latency. Unlike a single percentile, the
        figure does not jump when latencies fall in separate modes and a
        cut lands between them.
        """
        hi = np.cumsum(self.counts) / self.ops
        lo = hi - self.counts / self.ops
        mass = np.clip(np.minimum(hi, qb) - np.maximum(lo, qa), 0.0, None)
        means = self.sums / np.maximum(self.counts, 1)
        return float(mass @ means) / (qb - qa)


def timed_phase(wl, mm, seed: int, first, seconds: float, setup_times: list) -> Tally:
    """Whole rounds until wall-clock busy time is nearest to ``seconds``: a
    next round runs only if it should end less than half a round past
    ``seconds``. The tally's times are read on ``workloads.clock``.

    Between rounds, untimed, set-up is timed again whenever busy time
    passes another ``seconds / SETUP_SAMPLES``, and topped up to
    SETUP_SAMPLES at the end, so set-up samples span the whole run.
    """
    tally = Tally()
    while True:
        inputs = first if tally.rounds == 0 else wl.inputs(seed, tally.rounds)
        t0 = time.perf_counter()
        res = wl.run_round(mm, inputs)
        last = time.perf_counter() - t0
        tally.wall_s += last
        tally.add(wl, mm, inputs, res)
        done = tally.wall_s + last / 2 > seconds
        due = SETUP_SAMPLES if done else 1 + int(tally.wall_s / seconds * SETUP_SAMPLES)
        while len(setup_times) < min(due, SETUP_SAMPLES):
            setup_times.append(resample_setup(wl, seed))
        if done:
            return tally


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, mm, seed, first, seconds, setup_s, host=None):
    setup_times = [setup_s]
    tally = timed_phase(wl, mm, seed, first, seconds, setup_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "evals_per_s": tally.ops / tally.busy_s,
        "op_iqm_us": tally.interval_mean(0.25, 0.75) * 1e6,
        "op_tail_us": tally.interval_mean(0.90, 0.99) * 1e6,
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = {
        "rounds": tally.rounds,
        "samples": tally.ops,
        "busy_s": tally.busy_s,
        "wall_s": tally.wall_s,
        "setup_samples": len(setup_times),
        "op_p50_us": tally.percentile(50) * 1e6,
        "op_p99_us": tally.percentile(99) * 1e6,
    }
    if host is not None:
        info["host_slowdown"] = host.slowdown()
        info["host_samples"] = len(host.samples)
    if wl.name == "verify-all":
        info["verify_s"] = tally.percentile(50)
    # Tracing must be off for every end-to-end number.
    info["spans_installed"] = spans.any_wrapper_installed(PACKAGE)
    return [tally], metrics, info


def run_traced(wl, mm, seed, first):
    """The same fixed work untraced, then traced; counts repeat exactly."""
    inputs = [first] + [wl.inputs(seed, r) for r in range(1, wl.trace_rounds)]
    tracer = spans.Tracer(PACKAGE, clock=workloads.clock)
    untraced, traced = Tally(), Tally()
    for x in inputs:
        untraced.add(wl, mm, x, wl.run_round(mm, x))
    clean = not spans.any_wrapper_installed(PACKAGE)
    tracer.install()
    try:
        results = [wl.run_round(mm, x, tracer) for x in inputs]
    finally:
        tracer.uninstall()
    for x, res in zip(inputs, results):
        traced.add(wl, mm, x, res)
    metrics = spans.layer_metrics(tracer, traced.ops)
    metrics["trace.overhead_frac"] = traced.busy_s / untraced.busy_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.npz"
    tracer.save(path)
    info = {"spans": tracer.span_count, "ops": traced.ops, "span_file": str(path.relative_to(ROOT))}
    info["spans_installed"] = not clean or spans.any_wrapper_installed(PACKAGE)
    return [untraced, traced], metrics, info


def _report(spec_key: str, metrics: dict) -> dict:
    spec = json.loads(SPEC.read_text())
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[spec_key]
    }


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    try:
        with hostclock.HostClock() as host:
            workloads.clock = host
            try:
                mm, first, setup_s = setup(wl, args.seed)
                if args.trace:
                    tallies, metrics, info = run_traced(wl, mm, args.seed, first)
                    key = "per_layer"
                else:
                    tallies, metrics, info = run_untraced(
                        wl, mm, args.seed, first, args.seconds, setup_s, host
                    )
                    key = "end_to_end"
            finally:
                workloads.clock = time.perf_counter
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0 and not info.pop("spans_installed")
    info.update(
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        input_digest=streams.digest(first),
        fail_frac=failed / attempted,
    )
    print(json.dumps(info, sort_keys=True))
    report = _report(key, metrics)
    for name, m in report.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then every metric in one table."""
    results = {}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
            return 2
        lines = proc.stdout.strip().splitlines()
        code = max(code, proc.returncode)
        results[name] = (json.loads(lines[0]), json.loads(lines[-1]))
    print(f"{'workload':15s} {'metric':40s} {'value':>16s} unit")
    for name, (info, res) in results.items():
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        rows.append(("fail_frac", info["fail_frac"], "ratio"))
        for pct in ("op_p50_us", "op_p99_us"):
            if pct in info:
                rows.append((pct, info[pct], "us"))
        if "verify_s" in info:
            rows.append(("verify_s", info["verify_s"], "s"))
        for metric, value, unit in rows:
            print(f"{name:15s} {metric:40s} {value:>16.6g} {unit}")
        print(f"{name:15s} {'samples / rounds / inputs':40s} "
              f"{info.get('samples', info.get('ops'))} / {info.get('rounds', '-')} / "
              f"{info['input_digest'][:16]}")
    print(
        json.dumps(
            {
                "correct": all(res["correct"] for _, res in results.values()),
                "attempted": sum(res["attempted"] for _, res in results.values()),
                "failed": sum(res["failed"] for _, res in results.values()),
                "metrics": {
                    f"{name}.{k}": v
                    for name, (_, res) in results.items()
                    for k, v in res["metrics"].items()
                },
            }
        )
    )
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
