"""The benchmark's traced run wraps functions of the package by name.

Instrumenting in a fresh interpreter fails here, in the test suite, when a
wrapped function or attribute is renamed or removed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_instruments_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    code = "import tracing; tracing.instrument(tracing.Tracer(), {})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
