"""Smoke tests of the scripts under tools/."""

import functools
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("mesh", "solve", "estimate", "marked")
LINE = re.compile(r"(\d+) (\d+) ([0-9a-f]{64}) "
                  + " ".join(f"{part}=([0-9a-f]{{12}})" for part in PARTS))


@functools.cache
def digest_twice(theta, *flags):
    """[(ndof, sha256, {part: hash})] per level of tools/level_digest.py on
    ex71 (3 levels, n0 2), after checking that two runs print the same lines;
    cached, since several tests read the same run."""
    argv = [sys.executable, str(ROOT / "tools" / "level_digest.py"), str(ROOT / "src"),
            "ex71", "--levels", "3", "--theta", theta, "--n0", "2", *flags]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True).stdout
                     for _ in range(2))
    assert first == second
    rows = [LINE.fullmatch(line) for line in first.splitlines()]
    assert all(rows) and [int(m[1]) for m in rows] == [0, 1, 2]
    return [(int(m[2]), m[3], dict(zip(PARTS, m.groups()[3:]))) for m in rows]


def test_level_digest_is_repeatable():
    """Two runs of tools/level_digest.py print the same ``level ndof sha256``
    lines with one hash per part, one line per level, with ndof increasing."""
    ndof = [n for n, _, _ in digest_twice("0.35")]
    assert ndof == sorted(set(ndof))


def test_level_digest_uniform_is_repeatable():
    """With ``--uniform`` two runs print the same lines too.  Every triangle
    is bisected, so theta is unused, and the last level has more dofs than
    under marking with theta 1."""
    uniform = digest_twice("1.0", "--uniform")
    assert uniform == digest_twice("0.35", "--uniform")
    assert uniform[-1][0] > digest_twice("1.0")[-1][0]


def test_level_digest_parts_split_a_level():
    """Uniform refinement and marking with theta 1 compute the same first
    level and mark different triangles on it: the mesh, solve and estimate
    hashes of level 0 agree, its marked hash and its full hash do not."""
    (_, full_u, parts_u), (_, full_m, parts_m) = (
        digest_twice("1.0", *flags)[0] for flags in (("--uniform",), ()))
    assert all(parts_u[part] == parts_m[part] for part in ("mesh", "solve", "estimate"))
    assert parts_u["marked"] != parts_m["marked"] and full_u != full_m
