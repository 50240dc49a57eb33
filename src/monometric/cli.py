"""Command-line driver.

Commands: eval-f, eval-c, metric, bridge-table, verify. Numeric output
uses 15 significant digits; identical flags and seed give byte-identical
stdout. Exit codes: 0 success, 1 verification failure, 2 malformed
input (a result too large for a float, and a bridge-table of more than
``MAX_TABLE_ROWS`` rows, included), 3 quadrature failure,
4 invalid state, 5 a random sampler gave up (a channel or a contraction
trial could not be drawn from well-formed flags).

Every evaluation is in closed form; adaptive quadrature runs only inside
``verify``, as the oracle of the properties that integrate. ``eval-f`` and
``eval-c`` turn their flags into the spec objects of the JSON files and
read them with the same ``io`` readers, so a flag and a file field are
validated alike.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .chentsov import eval_bridge
from .errors import (
    DegenerateSample,
    DomainError,
    MonometricError,
    NotAState,
    QuadratureFailure,
)
from .io import load_json_file, matrix_from_json, mc_from_json, monotone_from_json
from .linalg import TRIAL_DIMS
from .metric import DensityMatrix, MetricSpec, metric_form, metric_quadratic

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_MALFORMED = 2
EXIT_QUADRATURE = 3
EXIT_NOT_A_STATE = 4
EXIT_DEGENERATE_SAMPLE = 5

# bridge-table builds every row before it writes one; a grid or a table
# past this many rows is malformed input, refused before anything is built
MAX_TABLE_ROWS = 1_000_000


def fmt15(value: float) -> str:
    """15 significant digits, with a trailing .0 on integral values."""
    out = f"{float(value):.15g}"
    if "." not in out and "e" not in out and "n" not in out and "f" not in out:
        out += ".0"
    return out


def _finite(value):
    """The value, checked before it is printed: a result too large for a
    float (or NaN) from finite flags is malformed input, exit 2."""
    if not np.isfinite(value):
        raise DomainError(f"result {value} is not a finite float")
    return value


def _parse_list(raw: str, flag: str, kind=float) -> list:
    """Comma list of numbers read by ``kind``; empty tokens are skipped."""
    try:
        return [kind(tok) for tok in raw.split(",") if tok]
    except ValueError as exc:
        raise DomainError(f"bad {flag} value in {raw!r}: {exc}") from exc


def _parse_grid(spec: str, flag: str) -> list[float]:
    """Grid spec: 'a,b,c' literal, or 'log:LO:HI:N' / 'lin:LO:HI:N'."""
    if not spec.startswith(("log:", "lin:")):
        return _parse_list(spec, flag)
    parts = spec.split(":")
    if len(parts) != 4:
        raise DomainError(f"bad {flag} spec {spec!r}: want kind:lo:hi:n")
    try:
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise DomainError(f"bad {flag} spec {spec!r}: {exc}") from exc
    if not 1 <= n <= MAX_TABLE_ROWS:
        raise DomainError(f"bad {flag} spec {spec!r}: need 1 <= n <= {MAX_TABLE_ROWS}")
    if parts[0] == "log":
        if not (lo > 0.0 and hi > 0.0):
            raise DomainError(f"bad {flag} spec {spec!r}: log grid needs positive ends")
        return [float(v) for v in np.geomspace(lo, hi, n)]
    return [float(v) for v in np.linspace(lo, hi, n)]


def cmd_eval_f(args) -> int:
    if (args.family is None) == (args.h_file is None):
        raise DomainError("give exactly one of --family or --h-file")
    if args.family is not None:
        spec = {"family": args.family}
        if args.gamma is not None:
            spec["gamma"] = args.gamma
    else:
        spec = {"h": load_json_file(args.h_file), "beta": args.beta}
    print(fmt15(_finite(monotone_from_json(spec)(args.t))))
    return EXIT_OK


def cmd_eval_c(args) -> int:
    sources = [args.bridge is not None, args.h_file is not None, args.from_f is not None]
    if sum(sources) != 1:
        raise DomainError("give exactly one of --bridge, --h-file, --from-f")
    if args.bridge is not None:
        spec = {"kind": "bridge", "gamma": args.bridge}
    elif args.h_file is not None:
        spec = {"kind": "canonical", "h": load_json_file(args.h_file), "c0": args.c0}
    else:
        spec = {"kind": "from_f", "f": load_json_file(args.from_f)}
    print(fmt15(_finite(mc_from_json(spec)(args.x, args.y))))
    return EXIT_OK


def cmd_metric(args) -> int:
    rho = DensityMatrix.from_matrix(matrix_from_json(load_json_file(args.rho)))
    tangents = [matrix_from_json(load_json_file(p)) for p in (args.a, args.b) if p is not None]
    if not (math.isfinite(args.big_c) and all(np.isfinite(t).all() for t in tangents)):
        raise DomainError("--big-c and every tangent entry must be finite")
    kernel = mc_from_json(load_json_file(args.c_spec))
    spec = MetricSpec(c=kernel, diagonal_constant=args.big_c)
    if args.b is None:
        print(fmt15(_finite(metric_quadratic(spec, rho, *tangents))))
    else:
        value = _finite(metric_form(spec, rho, *tangents))
        print(f"{fmt15(value.real)} {fmt15(value.imag)}")
    return EXIT_OK


def cmd_bridge_table(args) -> int:
    gammas = _parse_list(args.gammas, "--gammas")
    xs = _parse_grid(args.x_grid, "--x-grid")
    ys = _parse_grid(args.y_grid, "--y-grid")
    if not gammas or not xs or not ys:
        raise DomainError("gamma list and both grids must be non-empty")
    if len(gammas) * len(xs) * len(ys) > MAX_TABLE_ROWS:
        raise DomainError(
            f"{len(gammas)} x {len(xs)} x {len(ys)} rows exceed the table limit of {MAX_TABLE_ROWS}"
        )
    # every row is computed before any is written, so a failing run prints nothing
    rows = [
        f"{fmt15(g)},{fmt15(x)},{fmt15(y)},{fmt15(_finite(eval_bridge(g, x, y)))}\n"
        for g in gammas
        for x in xs
        for y in ys
    ]
    sys.stdout.write("gamma,x,y,c\n" + "".join(rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    # the harness loads here, so the evaluating commands never import it
    from .verify import report_to_dict, run_verification

    report = run_verification(
        suite=args.suite,
        trials=args.trials,
        seed=args.seed,
        dims=_parse_list(args.dims, "--dims", int),
        inject_counterexample=args.inject_counterexample,
    )
    print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    print(f"wall time: {report.wall_time_s:.2f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monometric",
        description="Monotone metrics on density matrices: evaluators and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-f", help="evaluate an operator monotone function")
    p.add_argument("--family", choices=["gamma"], help="closed-form family")
    p.add_argument("--gamma", type=float, help="family parameter in [0,1]")
    p.add_argument("--h-file", help="weight JSON for the canonical form")
    p.add_argument("--beta", default="auto", help="shift, or 'auto' to normalize f(1)=1")
    p.add_argument("--t", type=float, required=True, help="argument t > 0")
    p.set_defaults(run=cmd_eval_f)

    p = sub.add_parser("eval-c", help="evaluate a metric kernel c(x, y)")
    p.add_argument("--bridge", type=float, help="closed-form family parameter")
    p.add_argument("--h-file", help="weight JSON for the canonical form")
    p.add_argument("--c0", default="auto", help="scale, or 'auto' for c(1,1)=1")
    p.add_argument("--from-f", help="function-spec JSON; uses c = 1/(y f(x/y))")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(run=cmd_eval_c)

    p = sub.add_parser("metric", help="evaluate the metric form at a state")
    p.add_argument("--rho", required=True, help="density matrix JSON file")
    p.add_argument("--a", required=True, help="first tangent JSON file")
    p.add_argument("--b", help="second tangent; omitted means B = A")
    p.add_argument("--c-spec", required=True, help="kernel spec JSON file")
    p.add_argument("--big-c", type=float, default=1.0, help="diagonal constant")
    p.set_defaults(run=cmd_metric)

    p = sub.add_parser("bridge-table", help="emit closed-form kernel values as CSV")
    p.add_argument("--gammas", required=True, help="comma list of parameters")
    p.add_argument("--x-grid", required=True, help="'a,b,c' or log:LO:HI:N or lin:LO:HI:N")
    p.add_argument("--y-grid", required=True, help="same format as --x-grid")
    p.set_defaults(run=cmd_bridge_table)

    p = sub.add_parser("verify", help="run property suites, JSON report to stdout")
    p.add_argument("--suite", default="all", help="monotone|chentsov|metric|channels|all")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--dims", default="2,3", help=f"comma list of dimensions in [{TRIAL_DIMS[0]},{TRIAL_DIMS[-1]}]"
    )
    p.add_argument(
        "--inject-counterexample",
        action="store_true",
        help=argparse.SUPPRESS,
    )
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except QuadratureFailure as exc:
        print(f"error: quadrature failed: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except NotAState as exc:
        print(f"error: not a valid state: {exc}", file=sys.stderr)
        return EXIT_NOT_A_STATE
    except DegenerateSample as exc:
        print(f"error: sampler gave up: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_SAMPLE
    except MonometricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
