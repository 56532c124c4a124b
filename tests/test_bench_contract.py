"""The benchmark's worker relies on the package's names and loop order.

Its traced run wraps functions of the package by name: instrumenting in a
fresh interpreter fails here, in the test suite, when a wrapped function or
attribute is renamed or removed.  Every run timestamps each level when its
``LevelRecord`` is made and reports the record's checks and the final mesh.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import signorini.adaptive as ad
import signorini.problems as prb

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_instruments_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    code = "import tracing; tracing.instrument(tracing.Tracer(), {})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_one_record_per_level_between_its_solve_and_its_marking(monkeypatch):
    # hooked as the worker hooks it: the record of level k is made after level
    # k's solve and error and before its marking, and nothing of level k + 1
    events, meshes = [], []
    record_init, run_level = ad.LevelRecord.__init__, ad.run_level
    measure_error, mark = prb.measure_error, ad.mark

    def record_hook(self, *a, **k):
        record_init(self, *a, **k)
        events.append(("record", self.level))

    def run_level_hook(problem, mesh):
        meshes.append(mesh)
        events.append(("solve", len(meshes) - 1))
        return run_level(problem, mesh)

    def measure_error_hook(*a, **k):
        events.append(("error", len(meshes) - 1))
        return measure_error(*a, **k)

    def mark_hook(*a, **k):
        events.append(("mark", len(meshes) - 1))
        return mark(*a, **k)

    monkeypatch.setattr(ad.LevelRecord, "__init__", record_hook)
    monkeypatch.setattr(ad, "run_level", run_level_hook)
    monkeypatch.setattr(prb, "measure_error", measure_error_hook)
    monkeypatch.setattr(ad, "mark", mark_hook)
    levels = 3
    result = ad.adapt(prb.get_problem("ex71"), ad.AdaptiveParams(levels=levels, n0=2))

    steps = ("solve", "error", "record", "mark")
    expected = [(step, k) for k in range(levels) for step in steps][:-1]
    assert events == expected
    assert [r.level for r in result.records] == list(range(levels))
    assert result.mesh is meshes[-1]
    assert result.dofmap.mesh is result.mesh
    for r in result.records:
        json.dumps(dataclasses.asdict(r.checks))
