"""Print SHA-256 digests per level of an adaptive run, to compare two checkouts.

    python tools/level_digest.py SRC PROBLEM --levels N --theta T --n0 M [--uniform]

imports ``signorini`` from the directory SRC (the ``src`` of a checkout),
iterates ``adaptive.levels`` on PROBLEM (``ex71``, ``ex72`` or a JSON problem
file) and prints one line per level,

    level ndof sha256 mesh=H solve=H estimate=H marked=H

``--uniform`` refines every triangle, as ``signorini solve --uniform`` does.
The full sha256 covers the whole level; each H is the first 12 hex digits of
the SHA-256 of one part of it:

    mesh      the node kinds (``DofMap.kind``), the boundary edge ids in
              ascending order with their tags, the node coordinates
              (``Mesh.node_coords``) and the triangles
    solve     every input ``splu`` factors (shape, data, indices, indptr),
              the solution (u, active set, PDAS history, residual), the
              contact density and its record
    estimate  every ``EstimatorReport`` field, the ``LevelChecks`` and the
              level's record without its wall time and marked triangles
    marked    the marked triangles

Arrays enter with dtype, shape and bytes, and numbers exactly, so equal
lines mean bit-equal levels, and a change that only moves the estimator in
round-off leaves the mesh, solve and marked hashes equal.

A level is hashed as it is made: the ``splu`` inputs while it solves, then
its mesh, solve and estimate parts, then its marked triangles.  A checkout
whose package has no ``adaptive.levels`` is digested with its own copy of
this tool.

BLAS runs on one thread unless the environment says otherwise, so two runs
on one machine see the same round-off.  Nothing in the package imports this
script.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after the thread settings)


def feed(h, obj):
    """Add ``obj`` to the hash ``h``: dataclasses field by field, arrays
    with dtype and shape, floats by their exact hex form."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    else:
        h.update(repr(obj).encode())


PARTS = ("mesh", "solve", "estimate", "marked")


class LevelHash:
    """The full SHA-256 of one level and one SHA-256 per part of it."""

    def __init__(self):
        self.full = hashlib.sha256()
        self.parts = {name: hashlib.sha256() for name in PARTS}

    def add(self, part, obj):
        feed(self.full, obj)
        feed(self.parts[part], obj)

    def line(self):
        return " ".join([self.full.hexdigest()] + [
            f"{name}={h.hexdigest()[:12]}" for name, h in self.parts.items()])


def level_digests(src, problem_key, levels, theta, n0, uniform):
    """[(ndof, digest line)] per level of ``adaptive.levels`` run from the
    package in ``src``."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import signorini.adaptive as ad
    import signorini.fem as fem
    import signorini.problems as prb
    import signorini.vi as vi

    if Path(ad.__file__).resolve().parent != src / "signorini":
        raise SystemExit(f"imported signorini from {ad.__file__}, not from {src}")
    if not hasattr(ad, "levels"):
        raise SystemExit(f"{src} has no adaptive.levels; digest it with its own "
                         "tools/level_digest.py")
    hashes, splu = [LevelHash()], vi.spla.splu

    def hashed_splu(A, *args, **kwargs):
        hashes[-1].add("solve", [A.shape, A.data, A.indices, A.indptr])
        return splu(A, *args, **kwargs)

    lines = []
    params = ad.AdaptiveParams(levels=levels, theta=theta, n0=n0, uniform=uniform)
    vi.spla.splu = hashed_splu
    try:
        for lvl in ad.levels(prb.get_problem(problem_key), params):
            h, mesh, rec = hashes[-1], lvl.mesh, lvl.record
            # ascending ids, so that a checkout that lists the boundary in
            # another order hashes the same
            order = np.argsort(mesh.boundary_edge_ids)
            h.add("mesh", [fem.DofMap(mesh).kind, mesh.boundary_edge_ids[order],
                           mesh.boundary_tags[order], mesh.node_coords, mesh.triangles])
            h.add("solve", [lvl.solution, lvl.density])
            h.add("estimate", [lvl.report, rec.checks])
            h.add("estimate", [getattr(rec, f.name) for f in dataclasses.fields(rec)
                               if f.name not in ("seconds", "marked")])
            h.add("marked", rec.marked)
            lines.append((rec.ndof, h.line()))
            hashes.append(LevelHash())
    finally:
        vi.spla.splu = splu
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the signorini package")
    parser.add_argument("problem", help="ex71, ex72 or a JSON problem file")
    parser.add_argument("--levels", type=int, required=True)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--n0", type=int, required=True)
    parser.add_argument("--uniform", action="store_true",
                        help="refine every triangle; theta is then unused")
    args = parser.parse_args()
    for level, (ndof, line) in enumerate(level_digests(
            args.src, args.problem, args.levels, args.theta, args.n0, args.uniform)):
        print(level, ndof, line)


if __name__ == "__main__":
    main()
