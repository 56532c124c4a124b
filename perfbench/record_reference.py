#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from one traced run of each workload.

Only for a change that is meant to alter the program's results; such a
change says so and shows the old and new values.  The slab reference is one
run per Poisson ratio at unit load: eta_h scales with the load and does not
depend on E, while the LU fill depends on the ratio.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads as wl

TOLERANCE = {"eta_h_rtol": 1e-6, "err_inf_rtol": 1e-4}


def traced_report(workload, worker):
    rep = worker.run("traced", run.RUN_LIMIT_S)
    if rep["report"] is None:
        sys.exit(f"{workload}: " + "; ".join(rep["problems"]))
    broken = gate.level_problems(rep["report"]["levels"])
    if broken:
        sys.exit(f"{workload}: " + "; ".join(broken))
    return rep["report"]


def entry(workload, report):
    levels = report["levels"]
    return {
        "ndofs": [r["ndof"] for r in levels],
        "active_nodes": [r["active_nodes"] for r in levels],
        "eta_h_final": levels[-1]["eta_h"],
        "err_inf_final": levels[-1]["err_inf"],
        "target_level": wl.target_level(workload, levels),
        "counts": {k: report["layers"][k] for k in gate.EXACT_COUNTS},
    }


def main():
    scratch = run.OUT / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    out = {"tolerance": TOLERANCE, "workloads": {}}
    try:
        for workload in (wl.EX71, wl.EX72):
            report = traced_report(workload, run.Worker(workload, scratch, None))
            out["workloads"][workload] = entry(workload, report)
        del out["workloads"][wl.EX72]["err_inf_final"]
        slab = out["workloads"][wl.SLAB] = {}
        for nu in wl.SLAB_NU:
            problem = scratch / f"slab-{nu}.json"
            problem.write_text(wl.slab_json(100.0, nu, 1.0))
            report = traced_report(wl.SLAB, run.Worker(wl.SLAB, scratch, problem))
            slab[str(nu)] = entry(wl.SLAB, report)
            del slab[str(nu)]["err_inf_final"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
