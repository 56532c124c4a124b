"""Command-line driver for adaptive contact runs."""

from __future__ import annotations

import argparse
import sys

from . import adaptive
from . import problems as prb


def build_parser():
    parser = argparse.ArgumentParser(
        prog="signorini",
        description="Adaptive quadratic FEM for 2D unilateral contact problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run the adaptive SOLVE/ESTIMATE/MARK/REFINE loop")
    solve.add_argument("--problem", required=True,
                       help="ex71, ex72, or the path of a JSON problem file")
    solve.add_argument("--levels", type=int, default=12, metavar="N",
                       help="number of adaptive levels (default 12)")
    solve.add_argument("--theta", type=float, default=0.5,
                       help="maximum-marking fraction (default 0.5)")
    solve.add_argument("--c0", type=float, default=0.45,
                       help="estimator calibration factor (default 0.45)")
    solve.add_argument("--n0", type=int, default=4,
                       help="initial mesh subdivisions per side (default 4)")
    solve.add_argument("--out", required=True, metavar="DIR",
                       help="output directory for CSV/VTK/JSON files")
    solve.add_argument("--trace", action="store_true",
                       help="also write the active-set iteration trace and density dumps")
    solve.add_argument("--uniform", action="store_true",
                       help="refine uniformly instead of adaptively")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    params = adaptive.AdaptiveParams(
        levels=args.levels, theta=args.theta, c0=args.c0,
        n0=args.n0, uniform=args.uniform)
    try:
        params.validate()
        problem = prb.get_problem(args.problem)
    except ValueError as exc:   # bad input; errors during the run keep their traceback
        parser.error(str(exc))
    if problem.exact is not None:
        prb.verify_manufactured(problem)
    result = adaptive.adapt(problem, params, out_dir=args.out, write_trace=args.trace)
    last = result.records[-1]
    print(f"{problem.name}: {len(result.records)} levels, "
          f"final ndof={last.ndof}, eta_h={last.eta_h:.6g}, "
          f"err={last.err_inf:.6g}, active={last.active_nodes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
