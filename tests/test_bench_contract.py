"""The benchmark's worker relies on the package's names and loop order.

Its traced run wraps functions of the package by name: instrumenting in a
fresh interpreter fails here, in the test suite, when a wrapped function or
attribute is renamed or removed.  Every run timestamps each level when its
``LevelRecord`` is made and reports the record's checks and the final mesh.
A traced ex71 run must pass the benchmark's gate, whose pinned solver and
mesh counts a change to the solve or the refinement would move.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import signorini.adaptive as ad
import signorini.problems as prb
import signorini.vi as vi

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracing_instruments_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH), env.get("PYTHONPATH", "")])
    code = "import tracing; tracing.instrument(tracing.Tracer(), {})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_one_record_per_level_between_its_solve_and_its_marking(monkeypatch):
    # hooked as the worker and its tracer hook it: the record of level k is
    # made after level k's solve and error and before its marking, and
    # nothing of level k + 1
    events, meshes = [], []
    record_init, solve_vi = ad.LevelRecord.__init__, vi.solve_vi
    measure_error, mark = prb.measure_error, ad.mark

    def record_hook(self, *a, **k):
        record_init(self, *a, **k)
        events.append(("record", self.level))

    def solve_vi_hook(*a, **k):
        events.append(("solve", len(meshes)))
        return solve_vi(*a, **k)

    def measure_error_hook(mesh, *a, **k):
        meshes.append(mesh)
        events.append(("error", len(meshes) - 1))
        return measure_error(mesh, *a, **k)

    def mark_hook(*a, **k):
        events.append(("mark", len(meshes) - 1))
        return mark(*a, **k)

    monkeypatch.setattr(ad.LevelRecord, "__init__", record_hook)
    monkeypatch.setattr(vi, "solve_vi", solve_vi_hook)
    monkeypatch.setattr(prb, "measure_error", measure_error_hook)
    monkeypatch.setattr(ad, "mark", mark_hook)
    levels = 3
    result = ad.adapt(prb.get_problem("ex71"), ad.AdaptiveParams(levels=levels, n0=2))

    steps = ("solve", "error", "record", "mark")
    expected = [(step, k) for k in range(levels) for step in steps][:-1]
    assert events == expected
    assert [r.level for r in result.records] == list(range(levels))
    assert result.mesh is meshes[-1]
    for r in result.records:   # the fields the worker reports per level
        json.dumps([r.level, r.ndof, r.eta_h, r.err_inf, r.active_nodes, r.seconds,
                    dataclasses.asdict(r.checks)])


def test_traced_ex71_run_passes_the_gate(tmp_path, monkeypatch):
    # the worker as the benchmark starts it, traced, so the gate compares
    # the exact counts of reference.json as well as the levels
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import run

    report_path = tmp_path / "report.json"
    env = {**os.environ, **run.WORKER_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", "ex71-adapt",
           "--src", str(ROOT / "src"), "--report", str(report_path), "--trace",
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert "layers" in report
    assert gate.problems("ex71-adapt", report, reference) == []
