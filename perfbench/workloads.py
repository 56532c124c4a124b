"""The benchmark's workloads: fixed inputs plus the seeded slab problem.

ex71 and ex72 are fixed by the paper and ignore the seed.  The slab problem
is drawn from the seed: a constant downward load and a material from a
range, with an obstacle gap so wide that no contact node ever activates.
NOTES.md records why each workload exists.
"""

from __future__ import annotations

import json
import random

EX71 = "ex71-adapt"
EX72 = "ex72-adapt"
SLAB = "slab-uniform-io"
NAMES = (EX71, EX72, SLAB)

# problem key, AdaptiveParams fields, whether the manufactured data is checked
ADAPTIVE = {
    EX71: ("ex71", dict(levels=16, theta=0.35, n0=6), True),
    EX72: ("ex72", dict(levels=24, theta=0.5, n0=4), False),
}
SLAB_LEVELS = 10
SLAB_N0 = 4

# Poisson ratios the slab material is drawn from.  The stress of a linear
# problem does not depend on E, so eta_h / load depends on nu alone and one
# reference per ratio checks every seed (the LU fill also depends on nu).
SLAB_NU = (0.2, 0.25, 0.3, 0.35)
SLAB_CHI = 1.0   # ten times the largest normal displacement (E = 10, load 2)

# time_to_err_s ends once the first level that meets the accuracy target has
# been measured.  ex71 has an exact solution: max-norm error <= 1e-5.  On ex72
# the estimator bound eta_h must fall to a tenth of its level-0 value.  On the
# slab eta_h does not decay under uniform refinement (it stays within 0.8-1.2
# of level 0), so the target is the final level.
ERR_TARGET = 1e-5
ETA_RATIO_TARGET = 0.1


def slab_json(young, nu, load, name="slab"):
    """JSON problem text of a slab with Young modulus, Poisson ratio and load."""
    cfg = {"name": name, "tagging": "bottom_contact",
           "material": {"E": young, "nu": nu}, "f": [0.0, -load],
           "chi": SLAB_CHI}
    return json.dumps(cfg, indent=1) + "\n"


def slab_problem(seed):
    """The seeded slab: its JSON problem text, load and Poisson ratio."""
    rng = random.Random(seed)
    young = 10.0 ** rng.uniform(1.0, 3.0)
    nu = rng.choice(SLAB_NU)
    load = rng.uniform(0.5, 2.0)
    return slab_json(young, nu, load, f"slab-{seed}"), load, nu


def slab_argv(problem_file, out_dir):
    return ["solve", "--problem", str(problem_file), "--uniform",
            "--levels", str(SLAB_LEVELS), "--n0", str(SLAB_N0),
            "--out", str(out_dir), "--trace"]


def target_level(workload, levels):
    """Index of the first level meeting the accuracy target, or None."""
    if workload == SLAB:
        return levels[-1]["level"]
    for rec in levels:
        if workload == EX71:
            if rec["err_inf"] <= ERR_TARGET:
                return rec["level"]
        elif rec["eta_h"] <= ETA_RATIO_TARGET * levels[0]["eta_h"]:
            return rec["level"]
    return None
