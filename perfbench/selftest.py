#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate; about 40 s.

    python3 perfbench/selftest.py

Runs slab-uniform-io untraced and traced against reference.json; both runs
must pass and yield every metric BENCHMARK.json names.  Then each corrupted
copy of the reference, and a corrupted level invariant, must make the same
reports fail while a round-off change of eta_h passes.  Last, a benchmark
invocation against a corrupted reference must count its runs as failed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import gate
import run
import workloads as wl

SEED = 7


def corrupted(reference, nu):
    """Copies of the reference, each with one slab value changed."""
    for what in ("ndofs", "active_nodes", "eta_h_final", "target_level",
                 *gate.EXACT_COUNTS):
        bad = copy.deepcopy(reference)
        entry = bad["workloads"][wl.SLAB][str(nu)]
        if what in ("ndofs", "active_nodes"):
            entry[what][-1] += 1
        elif what == "eta_h_final":
            entry[what] *= 1 + 1e-5
        elif what == "target_level":
            entry[what] += 1
        else:
            entry["counts"][what] += 1
        yield what, bad


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((run.HERE / "reference.json").read_text())
    _, load, nu = wl.slab_problem(SEED)
    inputs = (load, nu)
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    hp = run.high_percentile(list(range(20)))
    expect(hp == (50.0, 9) and run.high_percentile([1.0] * 19) is None,
           "high percentile keeps ten samples above it")

    reps = run.run_workload(wl.SLAB, SEED, 1, True, reference)
    expect([r["mode"] for r in reps] == ["plain", "traced"] and
           not any(r["problems"] for r in reps),
           "genuine reference: untraced and traced runs pass "
           + "; ".join(p for r in reps for p in r["problems"]))
    values = run.samples(wl.SLAB, reps, True)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(n in values for n in names), "every BENCHMARK.json metric is measured")
    traced = reps[1]["report"]

    nudged = copy.deepcopy(reference)
    nudged["workloads"][wl.SLAB][str(nu)]["eta_h_final"] *= 1 + 1e-12
    expect(not gate.problems(wl.SLAB, traced, nudged, inputs),
           "round-off change of eta_h passes")
    for what, bad in corrupted(reference, nu):
        expect(bool(gate.problems(wl.SLAB, traced, bad, inputs)),
               f"corrupted reference ({what}) fails the gate")
    broken = copy.deepcopy(traced)
    broken["levels"][3]["checks"]["resid_free_max"] = broken["levels"][3]["checks"]["resid_scale"]
    expect(bool(gate.level_problems(broken["levels"])), "broken residual invariant fails")

    bad = copy.deepcopy(reference)
    bad["workloads"][wl.SLAB][str(nu)]["ndofs"][-1] += 2
    reps = run.run_workload(wl.SLAB, SEED, 1, False, bad)
    plain = [r for r in reps if r["mode"] == "plain"]
    expect(bool(plain) and all(r["problems"] for r in plain)
           and "run_s" not in run.samples(wl.SLAB, reps, False),
           "corrupted reference: the run counts as failed and is not timed")

    print("selftest " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
