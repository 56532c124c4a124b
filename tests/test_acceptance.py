"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-2 run the known-solution benchmark adaptively and check the
convergence rate of the max-norm error and estimator plus the efficiency
band; 3-5 are per-level sign/residual/complementarity suites on both
benchmarks; 6-8 are oracle suites; 9 is the qualitative wedge reproduction.

The estimator-rate half of criterion 1 fails by design of the estimator
itself: its contact-traction part eta_5 measures the full normal traction,
which stays O(1) on fully contacting boundary parts, so eta_5 ~ h on the
contact band and no marking strategy can drive the total below ~NDF^-1.
The ROADMAP.md item on criterion 1 holds the per-term evidence and the
open hypotheses.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import signorini.adaptive as ad
import signorini.density as dens
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

from conftest import interpolate
import quasi_density as qd
from test_vi import brute_force_vi, random_contact_problem

SLOPE_WINDOW = (-1.8, -1.2)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def announce(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def ex71_run():
    problem = prb.bottom_contact_benchmark()
    prb.verify_manufactured(problem)
    tic = time.perf_counter()
    result = ad.adapt(problem, ad.AdaptiveParams(levels=12, theta=0.35, n0=6))
    return result, time.perf_counter() - tic


EX72_PARAMS = ad.AdaptiveParams(levels=20, theta=0.5, n0=4)


@pytest.fixture(scope="session")
def ex72_run():
    return ad.adapt(prb.rigid_wedge_push(), EX72_PARAMS)


def test_runs_repeat_benchmark_reference_prefix(ex71_run, ex72_run, monkeypatch):
    """The acceptance runs are prefixes of the benchmark's ex71 and ex72
    workloads: their ndof and active-node sequences must equal the first
    levels of the benchmark reference, and every level must pass the
    benchmark's per-level gate."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate

    reference = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]
    for name, records in (("ex71-adapt", ex71_run[0].records),
                          ("ex72-adapt", ex72_run.records)):
        ref = reference[name]
        assert [r.ndof for r in records] == ref["ndofs"][:len(records)], name
        assert [r.active_nodes for r in records] == ref["active_nodes"][:len(records)], name
        rows = [{"level": r.level, "active_nodes": r.active_nodes,
                 "checks": dataclasses.asdict(r.checks)} for r in records]
        assert gate.level_problems(rows) == [], name


def slope(records, values):
    nd = np.log([r.ndof for r in records[-4:]])
    return float(np.polyfit(nd, np.log(values[-4:]), 1)[0])


def test_criterion_1_error_rate_and_budget(ex71_run):
    result, seconds = ex71_run
    records = result.records
    s_err = slope(records, [r.err_inf for r in records])
    ok = (len(records) >= 12 and records[-1].ndof <= 3e5 and seconds <= 300.0
          and SLOPE_WINDOW[0] <= s_err <= SLOPE_WINDOW[1])
    announce("1 (error rate, budget)", ok,
             f"levels={len(records)}, ndof={records[-1].ndof}, "
             f"t={seconds:.1f}s, err slope={s_err:.3f}")
    assert len(records) >= 12
    assert records[-1].ndof <= 3e5
    assert seconds <= 300.0
    assert SLOPE_WINDOW[0] <= s_err <= SLOPE_WINDOW[1]


def test_criterion_1_estimator_rate(ex71_run):
    result, _ = ex71_run
    records = result.records
    s_eta = slope(records, [r.eta_h for r in records])
    ok = SLOPE_WINDOW[0] <= s_eta <= SLOPE_WINDOW[1]
    announce("1 (estimator rate)", ok, f"eta_h slope={s_eta:.3f}, "
             "known defect: eta_5 carries the O(1) contact pressure")
    assert SLOPE_WINDOW[0] <= s_eta <= SLOPE_WINDOW[1], (
        "eta_h decays like NDF^-0.6 because eta_5 = h_p * ||normal traction|| "
        "cannot vanish on fully contacting boundary parts; see the ROADMAP.md "
        "item on criterion 1 for the analysis")


def test_criterion_2_efficiency_band(ex71_run):
    result, _ = ex71_run
    effs = np.array([r.eff_index for r in result.records])
    tail = effs[3:]
    ratio = float(tail.max() / tail.min())
    ok = bool((effs >= 1.0).all() and ratio <= 5.0)
    announce("2 (efficiency band)", ok,
             f"min eff={effs.min():.1f}, max/min over levels>=3 = {ratio:.2f}")
    assert (effs >= 1.0).all()
    assert ratio <= 5.0


def test_criterion_3_density_sign_suite(ex71_run, ex72_run):
    worst = 0.0
    for name, result in (("ex71", ex71_run[0]), ("ex72", ex72_run)):
        for r in result.records:
            c = r.checks
            assert c.lam_n_min >= -1e-10 * max(c.lam_n_max, 1e-300), (name, r.level)
            assert c.lam_t_max <= 1e-8 * (1.0 + c.lam_n_max), (name, r.level)
            worst = max(worst, c.lam_t_max / (1.0 + c.lam_n_max))
    announce("3 (density sign suite)", True,
             f"worst tangential/normal ratio {worst:.2e}")


def test_criterion_4_residual_suite(ex71_run, ex72_run):
    worst = 0.0
    for name, result in (("ex71", ex71_run[0]), ("ex72", ex72_run)):
        for r in result.records:
            c = r.checks
            assert c.resid_free_max <= 1e-8 * c.resid_scale, (name, r.level)
            assert c.resid_normal_min >= -1e-10 * c.resid_scale, (name, r.level)
            assert c.resid_tangential_max <= 1e-8 * c.resid_scale, (name, r.level)
            worst = max(worst, c.resid_free_max / c.resid_scale)
    announce("4 (residual suite)", True, f"worst relative residual {worst:.2e}")


def test_criterion_5_complementarity(ex71_run, ex72_run):
    worst = 0.0
    for name, result in (("ex71", ex71_run[0]), ("ex72", ex72_run)):
        for r in result.records:
            c = r.checks
            assert c.comp_max <= 1e-9 * c.comp_scale, (name, r.level)
            worst = max(worst, c.comp_max / c.comp_scale)
    announce("5 (complementarity)", True, f"worst relative product {worst:.2e}")


def test_criterion_6_bruteforce_vi_oracle():
    checked = 0
    for seed in range(10):
        for style in ("bottom", "right"):
            rng = np.random.default_rng(5000 + seed)
            system, trace, fixed = random_contact_problem(rng, 2 + seed % 2, style)
            assert trace.size <= 12
            sol = vi.solve_vi(system, trace)
            energy, u_ref, active_ref = brute_force_vi(system, trace, fixed)
            scale = 1.0 + np.abs(u_ref).max()
            assert np.abs(sol.u - u_ref).max() <= 1e-9 * scale, (seed, style)
            assert (sol.active == active_ref).all(), (seed, style)
            checked += 1
    announce("6 (brute-force VI oracle)", True, f"{checked} randomized configurations")
    assert checked >= 20


def test_criterion_7_assembly_oracles():
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    system = fem.assemble(fem.DofMap(mesh), problem)
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    energy = u @ (system.K @ u)
    expected = problem.material.stress_scale * 1.0
    assert abs(energy - expected) <= 1e-12 * expected
    kmax = np.abs(system.K).max()
    for mode in ((1.0, 0.0), (0.0, 1.0)):
        v = interpolate(mesh, lambda p: np.tile(mode, (len(p), 1)))
        assert np.abs(system.K @ v).max() <= 1e-10 * kmax
    x, y = fem.TRI_QP[:, 1], fem.TRI_QP[:, 2]
    assert abs(0.5 * np.sum(fem.TRI_QW * x ** 2) - 1.0 / 12.0) <= 1e-14
    assert abs(0.5 * np.sum(fem.TRI_QW * x ** 2 * y ** 2) - 1.0 / 180.0) <= 1e-14
    announce("7 (assembly oracles)", True,
             f"energy dev {abs(energy - expected):.2e}, quadrature exact")


def test_criterion_8_quasi_density_positivity(solved71):
    state = solved71
    rng = np.random.default_rng(7)
    worst = np.inf
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, 6)

        def v(pts, a=a):
            x, y = pts[:, 0], pts[:, 1]
            w = (a[0] + a[1] * x + a[2] * y + a[3] * x * y) ** 2 + abs(a[4])
            out = np.column_stack([a[5] * (x - y), -w])   # v_n = -v_y = w >= 0
            return out

        val = qd.apply_quasi_density(state.mesh, state.density, state.solution.u, v)
        worst = min(worst, val)
        assert val >= 0.0
    e = qd.node_averages(state.dofmap, state.trace, lambda pts: np.ones(len(pts)))
    dirichlet = state.dofmap.kind == msh.DIRICHLET
    assert (e[dirichlet] == 0.0).all()
    assert np.abs(e[~dirichlet] - 1.0).max() <= 1e-12
    announce("8 (quasi-density positivity)", True,
             f"min pairing over 100 fields {worst:.3e}, unit averages exact")


def point_segment_distance(points, seg_a, seg_b):
    """Distance of each point to the nearest of the given segments."""
    d = seg_b - seg_a                                     # (k, 2)
    len2 = (d * d).sum(axis=1)
    diff = points[:, None, :] - seg_a[None, :, :]         # (m, k, 2)
    t = np.clip(np.einsum("mkd,kd->mk", diff, d) / len2, 0.0, 1.0)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - proj, axis=2).min(axis=1)


def near_fraction(first, mesh, marked, radius=0.25):
    """Fraction of the marked centroids of ``mesh`` within ``radius`` of the
    contact boundary or of a Dirichlet-Neumann corner.

    Both are read from the run's first mesh ``first``: bisection never moves
    the boundary, so its contact edges cover the same segments at every
    level, and the corners stay vertices of the first mesh.
    """
    centroids = mesh.vertices[mesh.triangles[marked]].mean(axis=1)
    con = first.boundary_tags == msh.CONTACT
    dist = np.full(len(marked), np.inf)
    if con.any():
        seg = first.vertices[first.boundary_edges[con]]
        dist = point_segment_distance(centroids, seg[:, 0], seg[:, 1])
    corners = np.intersect1d(first.boundary_edges[first.boundary_tags == msh.DIRICHLET],
                             first.boundary_edges[first.boundary_tags == msh.NEUMANN])
    if corners.size:
        dc = np.linalg.norm(centroids[:, None, :] - first.vertices[corners][None, :, :],
                            axis=2).min(axis=1)
        dist = np.minimum(dist, dc)
    return float(np.mean(dist <= radius))


def test_criterion_9_wedge_qualitative(ex72_run):
    records = ex72_run.records
    assert len(records) == 20
    assert records[-1].eta_h < records[0].eta_h
    # replay the run's refinements over the recorded marked sets
    first = mesh = prb.rigid_wedge_push().mesh(EX72_PARAMS.n0)
    fractions = []
    for r in records[:-1]:
        if r.level >= 10:
            fractions.append(near_fraction(first, mesh, r.marked))
        mesh = msh.refine(mesh, r.marked)
    assert np.array_equal(mesh.vertices, ex72_run.mesh.vertices)
    assert np.array_equal(mesh.triangles, ex72_run.mesh.triangles)
    assert fractions
    ok = all(f > 0.5 for f in fractions)
    announce("9 (wedge localization)", ok,
             f"eta_h {records[0].eta_h:.1f} -> {records[-1].eta_h:.1f}, "
             f"near-fractions min {min(fractions):.2f}")
    assert ok
