"""Smoke tests of the scripts under tools/."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest_twice(theta, *flags):
    """[(ndof, sha256)] per level of tools/level_digest.py on ex71 (3 levels,
    n0 2), after checking that two runs print the same lines."""
    argv = [sys.executable, str(ROOT / "tools" / "level_digest.py"), str(ROOT / "src"),
            "ex71", "--levels", "3", "--theta", theta, "--n0", "2", *flags]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True).stdout
                     for _ in range(2))
    assert first == second
    rows = [re.fullmatch(r"(\d+) (\d+) ([0-9a-f]{64})", line) for line in first.splitlines()]
    assert all(rows) and [int(m[1]) for m in rows] == [0, 1, 2]
    return [(int(m[2]), m[3]) for m in rows]


def test_level_digest_is_repeatable():
    """Two runs of tools/level_digest.py print the same ``level ndof sha256``
    lines, one per level, with ndof increasing."""
    ndof = [n for n, _ in digest_twice("0.35")]
    assert ndof == sorted(set(ndof))


def test_level_digest_uniform_is_repeatable():
    """With ``--uniform`` two runs print the same lines too.  Every triangle
    is bisected, so theta is unused, and the last level has more dofs than
    under marking with theta 1."""
    uniform = digest_twice("1.0", "--uniform")
    assert uniform == digest_twice("0.35", "--uniform")
    assert uniform[-1][0] > digest_twice("1.0")[-1][0]
