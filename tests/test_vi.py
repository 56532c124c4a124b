import dataclasses
import itertools
import weakref

import numpy as np
import pytest

import signorini.density as dens
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

from conftest import linear_solve


def brute_force_vi(system, trace, feas_tol=1e-10):
    """Exhaustive oracle: try every active subset, keep the feasible minimizer.

    Solves the equality-constrained system densely for all 2^m subsets and
    returns the feasible candidate with the smallest energy (the unique KKT
    point of the convex program).
    """
    K = system.K.toarray()
    F = system.F
    gap = trace.gap
    dofs = trace.dofs
    scale = 1.0 + np.abs(gap).max()
    best = None
    for bits in itertools.product((False, True), repeat=trace.size):
        active = np.array(bits)
        fixed = np.concatenate([system.dirichlet_dofs, dofs[active]])
        vals = np.concatenate([system.dirichlet_values,
                               trace.sign * gap[active]])
        u = np.zeros(system.ndof)
        u[fixed] = vals
        free = np.setdiff1d(np.arange(system.ndof), fixed)
        u[free] = np.linalg.solve(K[np.ix_(free, free)],
                                  F[free] - K[np.ix_(free, fixed)] @ u[fixed])
        un = trace.sign * u[dofs]
        if np.all(un <= gap + feas_tol * scale):
            energy = 0.5 * u @ (K @ u) - F @ u
            if best is None or energy < best[0] - 1e-14 * (1 + abs(best[0])):
                best = (energy, u, active)
    assert best is not None
    return best


def random_contact_problem(rng, n, style):
    """Small randomized configuration with <= 12 constrained nodes."""
    E = rng.uniform(1.0, 400.0)
    nu = rng.uniform(0.0, 0.45)
    material = fem.MaterialLaw.from_young_poisson(E, nu)
    fconst = rng.uniform(-1.0, 1.0, 2) * E
    gconst = rng.uniform(-0.5, 0.5, 2) * E * 0.1
    a, b, c = rng.uniform(-0.03, 0.06), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
    if style == "bottom":
        tagging, coord = msh.tag_bottom_contact, 0
    else:
        tagging, coord = msh.tag_right_contact, 1

    def chi(pts):
        t = pts[:, coord]
        return a + b * t + c * t * t

    problem = prb.ProblemSpec(
        name="random", tagging=tagging, material=material,
        f=lambda p: np.tile(fconst, (len(p), 1)),
        g=lambda p: np.tile(gconst, (len(p), 1)),
        chi=chi, dirichlet=prb.ZERO)
    mesh = problem.mesh(n)
    dofmap = fem.DofMap(mesh)
    system = fem.assemble(dofmap, problem)
    return system, dens.build_trace_mesh(dofmap, problem)


def test_unconstrained_surrogate_matches_linear_solve(solved71):
    system = solved71.system
    loose = dataclasses.replace(solved71.trace,
                                gap=np.full(solved71.trace.size, np.inf))
    sol = vi.solve_vi(system, loose)
    assert sol.active.sum() == 0
    assert np.allclose(sol.u, linear_solve(system), atol=1e-12)


def test_benchmark_solve_contact_structure(solved71):
    sol = solved71.solution
    con = solved71.trace
    assert sol.active.sum() > 0
    un = con.sign * sol.u[con.dofs]
    m = con.sign * sol.residual[con.dofs]
    scale = 1.0 + np.abs(un).max()
    # positive multiplier forces exact touch
    pos = m > 1e-12
    assert np.abs(un[pos] - con.gap[pos]).max() < 1e-9 * scale
    # feasibility and sign everywhere
    assert (un <= con.gap + 1e-10 * scale).all()
    assert m.min() >= -1e-10 * max(1.0, m.max())


def test_residual_identities_at_contact_rows(solved71):
    # equality rows at free non-contact dofs, one-sided at contact rows
    r = solved71.residual
    assert np.array_equal(solved71.solution.residual, r)   # carried by the solve
    system, con, dofmap = solved71.system, solved71.trace, solved71.dofmap
    scale = max(np.abs(system.F).max(), np.abs(system.K @ solved71.solution.u).max())
    free = system.free_mask()
    con_mask = np.zeros(dofmap.ndof, dtype=bool)
    con_mask[con.dofs] = True
    con_mask[con.tangential_dofs] = True
    assert np.abs(r[free & ~con_mask]).max() <= 1e-8 * scale
    assert (con.sign * r[con.dofs]).min() >= -1e-10 * scale
    assert np.abs(r[con.tangential_dofs]).max() <= 1e-8 * scale


def test_pdas_deterministic(solved71):
    sol2 = vi.solve_vi(solved71.system, solved71.trace)
    assert (sol2.active == solved71.solution.active).all()
    assert (sol2.u == solved71.solution.u).all()
    assert sol2.history == solved71.solution.history


def test_nonconvergence_reports_history(solved71, monkeypatch):
    monkeypatch.setattr(vi, "MAX_ITER", 1)
    with pytest.raises(vi.SolverError, match=r"did not settle in 1 iterations; history=\[0\]"):
        vi.solve_vi(solved71.system, solved71.trace)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("style", ["bottom", "right"])
def test_pdas_matches_bruteforce_enumeration(seed, style):
    rng = np.random.default_rng(1000 + seed)
    n = 2 if seed % 2 == 0 else 3
    system, trace = random_contact_problem(rng, n, style)
    assert trace.size <= 12
    sol = vi.solve_vi(system, trace)
    energy, u_ref, active_ref = brute_force_vi(system, trace)

    scale = 1.0 + np.abs(u_ref).max()
    assert np.abs(sol.u - u_ref).max() <= 1e-9 * scale
    assert (sol.active == active_ref).all()

    e_pdas = 0.5 * sol.u @ (system.K @ sol.u) - system.F @ sol.u
    assert abs(e_pdas - energy) <= 1e-9 * (1.0 + abs(energy))
    # the clamped unconstrained solution is feasible, hence no better
    u_unc = linear_solve(system)
    un = trace.sign * u_unc[trace.dofs]
    u_clamp = u_unc.copy()
    u_clamp[trace.dofs] = trace.sign * np.minimum(un, trace.gap)
    e_clamp = 0.5 * u_clamp @ (system.K @ u_clamp) - system.F @ u_clamp
    assert e_pdas <= e_clamp + 1e-9 * (1.0 + abs(e_clamp))


def test_trace_rows_collected(solved72):
    sol = vi.solve_vi(solved72.system, solved72.trace)
    assert len(sol.history) == sol.iterations
    assert [row[0] for row in sol.history] == list(range(sol.iterations))
    assert sol.history[-1][1] == int(sol.active.sum())


def test_contact_solve_converges_at_p2_rate():
    # end to end against the known solution: halving h should cut the
    # max-norm error by about 2^3 (pre-asymptotically a bit less)
    problem = prb.bottom_contact_benchmark()
    errs = []
    for n in (2, 4, 8):
        mesh = problem.mesh(n)
        dofmap = fem.DofMap(mesh)
        system = fem.assemble(dofmap, problem)
        sol = vi.solve_vi(system, dens.build_trace_mesh(dofmap, problem))
        errs.append(prb.measure_error(mesh, sol.u, problem.exact))
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 2.5, (errs, rates)


def test_free_block_reaches_splu_as_csc_without_conversion(monkeypatch):
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    for _ in range(3):
        mesh = msh.refine(mesh, np.arange(0, mesh.num_triangles, 3))
    dofmap = fem.DofMap(mesh)
    system = fem.assemble(dofmap, problem)
    trace = dens.build_trace_mesh(dofmap, problem)
    handed = []
    splu = vi.spla.splu

    def spy(A, *args, **kwargs):
        handed.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(vi.spla, "splu", spy)
    sol = vi.solve_vi(system, trace)
    assert len(handed) == sol.iterations and sol.active.any()
    # the last factorization is that of the final active set
    fixed = np.concatenate([system.dirichlet_dofs, trace.dofs[sol.active]])
    vals = np.concatenate([system.dirichlet_values, trace.sign * trace.gap[sol.active]])
    free_idx = np.setdiff1d(np.arange(system.ndof), fixed)
    A = handed[-1]
    ref = system.K[free_idx][:, free_idx].tocsc()
    assert A.format == "csc" and A.shape == ref.shape
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)
    assert np.array_equal(sol.u[fixed], vals)


def test_each_iteration_frees_its_factors(solved71, monkeypatch):
    # the previous iteration's LU factors are gone when the next one starts,
    # so a level never holds two factorizations at once
    live = []
    splu = vi.spla.splu

    class Factors:
        def __init__(self, lu):
            self.solve = lu.solve

    def spy(A, *args, **kwargs):
        assert all(ref() is None for ref in live)
        factors = Factors(splu(A, *args, **kwargs))
        live.append(weakref.ref(factors))
        return factors

    monkeypatch.setattr(vi.spla, "splu", spy)
    sol = vi.solve_vi(solved71.system, solved71.trace)
    assert len(live) == sol.iterations >= 2
