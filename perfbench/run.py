#!/usr/bin/env python3
"""Repository benchmark: adaptive Signorini runs, timed, checked, traced.

Run from the repository root:

    python3 perfbench/run.py --workload ex71-adapt --seed 1 --seconds 60 --trace 0

Each adaptive run happens in a fresh worker process (worker.py), one at a
time, with BLAS pinned to one thread.  Runs repeat until the next one would
overrun ``--seconds``.  Every run passes the correctness gate (gate.py) or
counts as failed and stays out of the timings.

``--trace 0`` first starts a few set-up-only workers, then times untraced
runs and reports the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced runs, reports the per-layer metrics of the traced ones and the
tracing overhead, and writes every span to .perfbench_out/.  Metric names
and units come from BENCHMARK.json.  The last line of output is the JSON
result; the lines before it give provenance and a per-metric table with
median, high percentile and sample count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"   # scratch files and spans; git-ignored
SETUP_PROBES = 5          # set-up-only workers per untraced run
RUN_LIMIT_S = 170.0       # a benchmark invocation must end within 180 s
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def git_sha(root):
    """HEAD commit read from .git directly; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def high_percentile(values):
    """(p, value) for the highest of p99.9/p99/p90/p50 with at least ten
    samples above it (nearest rank), or None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(math.ceil(n * p / 100.0) - 1, 0)]
    return None


class Worker:
    """Starts worker.py processes one at a time under a scratch directory."""

    def __init__(self, workload, scratch, problem_file):
        self.workload = workload
        self.scratch = scratch
        self.problem_file = problem_file
        self.count = 0
        self.env = {**os.environ, **WORKER_ENV,
                    "PYTHONPATH": os.pathsep.join(
                        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def run(self, mode, timeout):
        """One worker; returns a rep dict with its report or its error."""
        self.count += 1
        report_path = self.scratch / f"report-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--src", str(ROOT / "src"), "--report", str(report_path)]
        out_dir = None
        if mode == "probe":
            cmd.append("--setup-only")
        if mode == "traced":
            cmd.append("--trace")
        if self.workload == wl.SLAB:
            out_dir = self.scratch / f"out-{self.count}"
            cmd += ["--problem-file", str(self.problem_file), "--out-dir", str(out_dir)]
        rep = {"mode": mode, "report": None, "problems": []}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
                rep["problems"].append(f"worker exited {proc.returncode}: "
                                       + " | ".join(tail))
            else:
                rep["report"] = json.loads(report_path.read_text())
        except subprocess.TimeoutExpired:
            rep["problems"].append(f"worker exceeded {timeout:.0f} s")
        rep["wall"] = time.monotonic() - spawned
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        return rep


def run_workload(workload, seed, seconds, trace, reference):
    """All worker runs of one benchmark invocation, each gated."""
    scratch = OUT / f"{workload}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    slab_inputs = problem_file = None
    if workload == wl.SLAB:
        text, load, nu = wl.slab_problem(seed)
        slab_inputs = (load, nu)
        problem_file = scratch / "problem.json"
        problem_file.write_text(text)
    worker = Worker(workload, scratch, problem_file)
    start = time.monotonic()
    reps = []
    try:
        for _ in range(0 if trace else SETUP_PROBES):
            reps.append(worker.run("probe", RUN_LIMIT_S - (time.monotonic() - start)))
        longest = 0.0
        for mode in itertools.cycle(["plain", "traced"] if trace else ["plain"]):
            have = {r["mode"] for r in reps}
            required = "plain" not in have or (trace and "traced" not in have)
            elapsed = time.monotonic() - start
            if elapsed + longest > (RUN_LIMIT_S if required else seconds):
                break
            rep = worker.run(mode, RUN_LIMIT_S - elapsed)
            if rep["report"] is not None:
                rep["problems"] += gate.problems(workload, rep["report"], reference,
                                                 slab_inputs)
            longest = max(longest, rep["wall"])
            reps.append(rep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return reps


def end_to_end(workload, report):
    levels = report["levels"]
    target = wl.target_level(workload, levels)
    return {
        "run_s": report["run_s"],
        "setup_s": report["setup_s"],
        "final_level_s": levels[-1]["seconds"],
        "ndof_per_s": sum(r["ndof"] for r in levels) / report["run_s"],
        "time_to_err_s": levels[target]["done_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def samples(workload, reps, trace):
    """Per-metric sample lists from the reps that passed the gate."""
    good = [r for r in reps if not r["problems"]]
    out = {}
    plain = [end_to_end(workload, r["report"]) for r in good if r["mode"] == "plain"]
    for rec in plain:
        for name, value in rec.items():
            out.setdefault(name, []).append(value)
    probes = [r["report"]["setup_s"] for r in good if r["mode"] == "probe"]
    if probes:
        out.setdefault("setup_s", []).extend(probes)
    if trace:
        traced = [r["report"] for r in good if r["mode"] == "traced"]
        for rep in traced:
            for name, value in rep["layers"].items():
                out.setdefault(name, []).append(value)
        if traced and plain:
            out["trace.overhead_s"] = [
                statistics.median(r["run_s"] for r in traced)
                - statistics.median(out["run_s"])]
    return out


def table(rows, units):
    lines = [f"{'metric':32} {'unit':6} {'median':>14} {'high pct':>22} {'n':>3}"]
    for name, values in rows.items():
        hp = high_percentile(values)
        hp_text = f"p{hp[0]:g} {hp[1]:.6g}" if hp else "none (n<20)"
        median = statistics.median(values)
        median_text = f"{median:>14}" if isinstance(median, int) else f"{median:>14.6g}"
        lines.append(f"{name:32} {units.get(name, ''):6} "
                     f"{median_text} {hp_text:>22} {len(values):>3}")
    return "\n".join(lines)


def write_spans(workload, seed, reps):
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as out:
        for i, rep in enumerate(reps):
            for sid, name, start, end, parent in (rep["report"] or {}).get("spans", ()):
                out.write(json.dumps({"run": f"{workload}/{seed}/{i}", "id": sid,
                                      "name": name, "start": start, "end": end,
                                      "parent": parent}) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "signorini" / "__init__.py").is_file():
        sys.exit(f"perfbench: no signorini sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    reps = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    failed = [r for r in reps if r["problems"]]
    for rep in failed:
        print(f"FAILED {rep['mode']} run: " + "; ".join(rep["problems"][:5]))
    first = next((r["report"] for r in reps if r["report"]), None)
    if first is None:
        sys.exit("perfbench: no worker produced a report")
    print("provenance " + json.dumps({
        "git_sha": git_sha(ROOT), **first["versions"], "nproc": os.cpu_count(),
        "blas_threads": first["blas_threads"], "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    values = samples(args.workload, reps, bool(args.trace))
    if args.trace:
        print("spans in " + str(write_spans(args.workload, args.seed, reps).relative_to(ROOT)))
    print(table(values, units))
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no passing run measured {', '.join(missing)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(reps), "failed": len(failed),
        "metrics": {m["name"]: {"value": statistics.median(values[m["name"]]),
                                "unit": m["unit"]} for m in metrics},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
