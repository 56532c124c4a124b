"""Smoke tests of the scripts under tools/."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_level_digest_is_repeatable():
    """Two runs of tools/level_digest.py print the same ``level ndof sha256``
    lines, one per level, with ndof increasing."""
    argv = [sys.executable, str(ROOT / "tools" / "level_digest.py"), str(ROOT / "src"),
            "ex71", "--levels", "3", "--theta", "0.35", "--n0", "2"]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True).stdout
                     for _ in range(2))
    assert first == second
    rows = [re.fullmatch(r"(\d+) (\d+) ([0-9a-f]{64})", line) for line in first.splitlines()]
    assert all(rows) and [int(m[1]) for m in rows] == [0, 1, 2]
    ndof = [int(m[2]) for m in rows]
    assert ndof == sorted(set(ndof))
