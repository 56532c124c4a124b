#!/usr/bin/env python3
"""One run of one workload in a fresh process; writes a JSON report.

Started by run.py, one worker at a time, with BLAS pinned to one thread.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the
process was started, so set-up time counts interpreter start and imports.
With ``--setup-only`` the worker stops when the first level would start.
With ``--trace`` the layer boundaries record spans (see tracing.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads as wl


class SetupDone(Exception):
    """Raised at the entry of the adaptive loop by a set-up-only run."""


def versions():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def level_rows(records, done):
    return [{"level": r.level, "ndof": r.ndof, "eta_h": r.eta_h,
             "err_inf": r.err_inf, "active_nodes": r.active_nodes,
             "seconds": r.seconds, "done_s": t,
             "checks": dataclasses.asdict(r.checks)}
            for r, t in zip(records, done)]


def run(args):
    import signorini
    import signorini.adaptive as ad
    import signorini.cli as cli
    import signorini.problems as prb

    src = Path(signorini.__file__).resolve().parent.parent
    if src != Path(args.src).resolve():
        raise RuntimeError(f"signorini imported from {src}, not {args.src}")

    # Always on, in every mode: the entry time of the adaptive loop, the
    # moment each level's record exists, and the result itself.
    seen = {"entry": None, "result": None, "done": []}
    adapt, record_init = ad.adapt, ad.LevelRecord.__init__

    def adapt_hook(*a, **k):
        seen["entry"] = time.monotonic()
        if args.setup_only:
            raise SetupDone
        seen["result"] = adapt(*a, **k)
        return seen["result"]

    def record_hook(self, *a, **k):
        record_init(self, *a, **k)
        seen["done"].append(time.perf_counter())

    ad.adapt = adapt_hook
    ad.LevelRecord.__init__ = record_hook

    tracer = counts = None
    if args.trace:
        import tracing
        tracer, counts = tracing.Tracer(), {}
        tracing.instrument(tracer, counts)

    try:
        if args.workload == wl.SLAB:
            argv = wl.slab_argv(args.problem_file, args.out_dir)
            tic = time.perf_counter()
            cli.main(argv)
        else:
            key, params, verify = wl.ADAPTIVE[args.workload]
            problem = prb.get_problem(key)
            if verify:
                prb.verify_manufactured(problem)
            tic = time.perf_counter()
            ad.adapt(problem, ad.AdaptiveParams(**params))
        run_s = time.perf_counter() - tic
    except SetupDone:
        return {"setup_s": seen["entry"] - args.spawned_at}

    result = seen["result"]
    report = {
        "setup_s": seen["entry"] - args.spawned_at,
        "run_s": run_s,
        "levels": level_rows(result.records, [t - tic for t in seen["done"]]),
        "triangles_final": result.mesh.num_triangles,
        "output_bytes": sum(p.stat().st_size for p in Path(args.out_dir).iterdir())
        if args.out_dir else 0,
    }
    if tracer is not None:
        import tracing
        counts["mesh.triangles_final"] = result.mesh.num_triangles
        counts["adaptive.output_bytes"] = report["output_bytes"]
        report["layers"] = tracing.layer_metrics(tracer, counts, len(result.records))
        report["spans"] = tracer.spans
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.NAMES, required=True)
    parser.add_argument("--src", required=True, help="directory holding signorini/")
    parser.add_argument("--report", required=True, help="JSON report to write")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--problem-file", help="slab problem (JSON)")
    parser.add_argument("--out-dir", help="slab output directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    report = run(args)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = versions()
    report["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
