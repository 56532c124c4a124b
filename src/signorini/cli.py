"""Command-line driver for adaptive contact runs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import adaptive
from . import problems as prb


def build_parser():
    parser = argparse.ArgumentParser(
        prog="signorini",
        description="Adaptive quadratic FEM for 2D unilateral contact problems.")
    defaults = adaptive.AdaptiveParams()
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run the adaptive SOLVE/ESTIMATE/MARK/REFINE loop")
    solve.add_argument("--problem", required=True,
                       help="ex71, ex72, or the path of a JSON problem file")
    solve.add_argument("--levels", type=int, default=defaults.levels, metavar="N",
                       help="number of adaptive levels (default %(default)s)")
    solve.add_argument("--theta", type=float, default=defaults.theta,
                       help="maximum-marking fraction (default %(default)s)")
    solve.add_argument("--n0", type=int, default=defaults.n0,
                       help="initial mesh subdivisions per side (default %(default)s)")
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
    try:
        params = adaptive.AdaptiveParams(
            levels=args.levels, theta=args.theta, n0=args.n0, uniform=args.uniform)
        problem = prb.get_problem(args.problem)
        adaptive.check_out_dir(args.out)
    except (ValueError, FileExistsError) as exc:   # bad input; run errors keep their traceback
        parser.error(str(exc))
    try:   # the last check, so that a usage error above leaves no directory behind
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create output directory {args.out}: {exc.strerror}")
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
