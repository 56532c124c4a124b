"""Correctness gate applied to every worker report before its timings count.

Each level must satisfy the sign, residual, complementarity and feasibility
invariants of acceptance criteria 3-5, with the test suite's thresholds.  A
level without active contact nodes (the slab) must instead have a normal
density that is round-off next to the load scale, since a relative sign test
on pure round-off is meaningless.
The run must match reference.json: exact ndof and active-node sequences,
target level and traced counts; eta_h and err_inf within a relative
tolerance that round-off passes.  The estimator-rate criterion is left to
the test suite.
"""

from __future__ import annotations

import workloads as wl

# traced counts that must repeat exactly from run to run
EXACT_COUNTS = ("vi.factorizations", "vi.pdas_iterations", "vi.lu_nnz_max",
                "mesh.triangles_final", "fem.stiffness_nnz_final")


def level_problems(levels):
    out = []
    for rec in levels:
        c = rec["checks"]
        disp_scale = c["comp_scale"] / (1.0 + c["lam_n_max"])
        if rec["active_nodes"]:
            sign = ("normal density sign",
                    c["lam_n_min"] >= -1e-10 * max(c["lam_n_max"], 1e-300))
        else:   # no contact: the density is round-off next to the load
            sign = ("zero density without contact",
                    c["lam_n_max"] <= 1e-9 * c["resid_scale"])
        failed = [
            name for name, ok in (
                sign,
                ("tangential density", c["lam_t_max"] <= 1e-8 * (1.0 + c["lam_n_max"])),
                ("free residual", c["resid_free_max"] <= 1e-8 * c["resid_scale"]),
                ("normal residual sign", c["resid_normal_min"] >= -1e-10 * c["resid_scale"]),
                ("tangential residual", c["resid_tangential_max"] <= 1e-8 * c["resid_scale"]),
                ("complementarity", c["comp_max"] <= 1e-9 * c["comp_scale"]),
                ("feasibility", c["feas_violation"] <= 1e-9 * disp_scale),
            ) if not ok]
        out += [f"level {rec['level']}: {name}" for name in failed]
    return out


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def reference_problems(workload, report, reference, slab_inputs=None):
    """Mismatches of one report against the stored reference values.

    The slab reference is chosen by the seeded Poisson ratio and its eta_h
    is per unit load; ``slab_inputs`` is (load, nu).
    """
    ref = reference["workloads"][workload]
    want_eta_scale = 1.0
    if workload == wl.SLAB:
        load, nu = slab_inputs
        ref, want_eta_scale = ref[str(nu)], load
    tol = reference["tolerance"]
    levels = report["levels"]
    last = levels[-1]
    out = []
    ndofs = [r["ndof"] for r in levels]
    if ndofs != ref["ndofs"]:
        out.append(f"ndof sequence {ndofs} != {ref['ndofs']}")
    actives = [r["active_nodes"] for r in levels]
    if actives != ref["active_nodes"]:
        out.append(f"active nodes per level {actives} != {ref['active_nodes']}")
    want_eta = want_eta_scale * ref["eta_h_final"]
    if not _close(last["eta_h"], want_eta, tol["eta_h_rtol"]):
        out.append(f"final eta_h {last['eta_h']!r} != {want_eta!r}")
    if workload == wl.EX71 and not _close(last["err_inf"], ref["err_inf_final"],
                                          tol["err_inf_rtol"]):
        out.append(f"final err_inf {last['err_inf']!r} != {ref['err_inf_final']!r}")
    target = wl.target_level(workload, levels)
    if target != ref["target_level"]:
        out.append(f"accuracy target met at level {target}, not {ref['target_level']}")
    if report["triangles_final"] != ref["counts"]["mesh.triangles_final"]:
        out.append(f"final triangles {report['triangles_final']}")
    for name in EXACT_COUNTS if "layers" in report else ():
        if report["layers"][name] != ref["counts"][name]:
            out.append(f"{name} {report['layers'][name]} != {ref['counts'][name]}")
    return out


def problems(workload, report, reference, slab_inputs=None):
    """Every reason this report fails the gate; empty when it passes."""
    return level_problems(report["levels"]) + \
        reference_problems(workload, report, reference, slab_inputs)
