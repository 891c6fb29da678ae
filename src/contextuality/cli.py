"""Command-line front end.

Subcommands:

    measure SOURCE... MEASURE   evaluate xu | xmax | cost | beta | consistency
    figure-chain                chain-family figure data as CSV (n, alpha, xu)
    verify                      run a verification suite, nonzero exit on failure
    emit SOURCE PATH            write a box to a spec file

Box sources are file paths or ``builtin:NAME[:n][:alpha=...]`` URIs.
Exit codes: 0 success, 2 invalid input, 3 non-convergence, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import JOINT_DIM_CAP, Box, check_consistency
from .boxfile import emit_box, parse_box
from .builders import parse_builtin_uri
from .errors import CapExceededError, ContextualityError, InvalidBoxError
from .inequalities import beta
from .measures import DEFAULT_MAX_ITERS, DEFAULT_TOL, ContextWeights, x_fixed, x_max
from .measures import _check_arguments
from .polytope import contextuality_cost
from .verification import figure_chain_rows, run_suite

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CAP_EXCEEDED = 4

MEASURES = ("xu", "xmax", "cost", "beta", "consistency")
CSV_HEADER = "box,measure,value,certificate,iterations,seconds"


@dataclass
class ResultRow:
    box_id: str
    measure: str
    value: float
    certificate: float
    iterations: int
    seconds: float
    converged: bool = True

    def csv(self) -> str:
        return (
            f"{self.box_id},{self.measure},{float(self.value)!r},{float(self.certificate)!r},"
            f"{self.iterations},{self.seconds:.6f}"
        )

    def plain(self) -> str:
        return (
            f"{self.box_id}  {self.measure} = {self.value:.10g}  "
            f"(certificate {self.certificate:.3g}, {self.iterations} iters, "
            f"{self.seconds:.3f}s)"
        )


def load_box(source: str) -> Box:
    if source.startswith("builtin:"):
        return parse_builtin_uri(source)
    return parse_box(source)


def _resolve_weights(spec: str, n: int) -> ContextWeights:
    """'uniform', or a JSON file holding a list of numbers (not bools), one per context."""
    if spec == "uniform":
        return ContextWeights.uniform(n)
    data = json.loads(Path(spec).read_text())
    if not isinstance(data, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise InvalidBoxError(f"--weights {spec} must hold a JSON list of numbers")
    return ContextWeights(np.asarray(data, dtype=float))


def _measure_one(source: str, measure: str, args) -> ResultRow:
    box = load_box(source)
    if measure in ("xu", "xmax"):
        if measure == "xmax":
            report = x_max(box, tol=args.tol, max_iters=args.max_iters)
        else:
            weights = _resolve_weights(args.weights, box.hypergraph.n_contexts)
            report = x_fixed(box, weights, tol=args.tol, max_iters=args.max_iters)
        return ResultRow(
            source,
            measure,
            report.value,
            report.duality_gap,
            report.iterations,
            report.wall_time_s,
            converged=report.converged,
        )
    if measure == "cost":
        t0 = time.perf_counter()
        report = contextuality_cost(box)
        lo, hi = report.interval
        return ResultRow(
            source, "cost", report.cost, hi - lo, 0, time.perf_counter() - t0
        )
    if measure == "beta":
        t0 = time.perf_counter()
        reference = load_box(args.reference) if args.reference else box
        value = beta(reference, box)
        return ResultRow(source, "beta", value, 0.0, 0, time.perf_counter() - t0)
    if measure == "consistency":
        t0 = time.perf_counter()
        report = check_consistency(box, tol=args.tol)
        return ResultRow(
            source,
            "consistency",
            report.max_deviation,
            args.tol,
            0,
            time.perf_counter() - t0,
        )
    raise ContextualityError(f"unknown measure {measure!r}")


def _emit_rows(rows: list[ResultRow], args, out) -> None:
    if args.format == "csv":
        print(f"# tol={args.tol!r} max_iters={args.max_iters} weights={args.weights}", file=out)
        print(f"# workers={args.workers}", file=out)
        print(CSV_HEADER, file=out)
        for row in rows:
            print(row.csv(), file=out)
    else:
        for row in rows:
            print(row.plain(), file=out)


def cmd_measure(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    *sources, measure = args.source_and_measure
    if measure not in MEASURES:
        print(
            f"error: last argument must be a measure in {MEASURES}, got {measure!r}",
            file=sys.stderr,
        )
        return EXIT_INVALID_INPUT
    if not sources:
        print("error: need at least one box source", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if measure == "xmax" and args.weights != "uniform":
        print("error: --weights FILE does not apply to xmax, which optimizes the weights",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    # Every measure refuses a bad --tol or --max-iters, not only those that read them.
    _check_arguments(args.tol, JOINT_DIM_CAP, max_iters=args.max_iters)
    workers = max(1, args.workers)
    if workers == 1 or len(sources) == 1:
        rows = [_measure_one(src, measure, args) for src in sources]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda s: _measure_one(s, measure, args), sources))
    _emit_rows(rows, args, out)
    if any(not row.converged for row in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_figure_chain(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    rows = figure_chain_rows(args.n_min, args.n_max, args.variant, args.solver)
    print(f"# variant={args.variant} solver={args.solver}", file=out)
    print("n,alpha,xu", file=out)
    last_variant = None
    for variant, n, alpha, value in rows:
        if variant != last_variant:
            print(f"# variant={variant}", file=out)
            last_variant = variant
        print(f"{n},{alpha!r},{value!r}", file=out)
    return EXIT_OK


def cmd_verify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    results = run_suite(args.suite, seed=args.seed, samples=args.samples)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}", file=out)
        failed += not result.passed
    print(f"# {len(results) - failed}/{len(results)} checks passed", file=out)
    return EXIT_OK if failed == 0 else 1


def cmd_emit(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    box = load_box(args.source)
    emit_box(box, args.path)
    print(f"wrote {args.path}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="Contextuality measures on boxes over measurement hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="evaluate a measure on one or more boxes")
    p_measure.add_argument(
        "source_and_measure",
        nargs="+",
        metavar="SOURCE... MEASURE",
        help=f"box sources followed by one of {MEASURES}",
    )
    p_measure.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_measure.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS, dest="max_iters")
    p_measure.add_argument(
        "--weights",
        default="uniform",
        help="'uniform', or a JSON file with one weight per context (xu only)",
    )
    p_measure.add_argument("--reference", default=None, help="reference box for beta")
    p_measure.add_argument("--format", choices=("csv", "plain"), default="csv")
    # A string default goes through ``type`` too, so a malformed environment
    # value is reported like a malformed flag (exit code 2).
    p_measure.add_argument(
        "--workers",
        type=int,
        default=os.environ.get("CONTEXTUALITY_WORKERS", "1"),
        help="worker threads (default: $CONTEXTUALITY_WORKERS, else 1)",
    )
    p_measure.set_defaults(func=cmd_measure)

    p_fig = sub.add_parser("figure-chain", help="chain-family figure data as CSV")
    p_fig.add_argument("--n-min", type=int, default=3, dest="n_min")
    p_fig.add_argument("--n-max", type=int, default=50, dest="n_max")
    p_fig.add_argument("--variant", choices=("max", "quantum", "both"), default="both")
    p_fig.add_argument("--solver", choices=("closedform", "reduced"), default="closedform")
    p_fig.set_defaults(func=cmd_figure_chain)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        choices=("golden", "properties", "equivalence", "additivity"),
        default="golden",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.set_defaults(func=cmd_verify)

    p_emit = sub.add_parser("emit", help="write a box to a spec file")
    p_emit.add_argument("source")
    p_emit.add_argument("path")
    p_emit.set_defaults(func=cmd_emit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ContextualityError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
