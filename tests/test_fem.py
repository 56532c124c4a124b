import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import signorini.estimator as est
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb

from conftest import interpolate, linear_solve, tag_all_dirichlet


def test_lame_from_young_poisson():
    mat = fem.MaterialLaw.from_young_poisson(500.0, 0.3)
    assert np.isclose(mat.mu, 500.0 / 2.6, rtol=1e-15)
    assert np.isclose(mat.lam, 150.0 / 0.52, rtol=1e-15)
    collapse = fem.MaterialLaw.from_young_poisson(2.0, 0.0)
    assert collapse.mu == 1.0 and collapse.lam == 0.0
    # direct construction bypassing the conversion
    assert fem.MaterialLaw(1.0, 1.0).stress_scale == 3.0


def test_lame_rejects_incompressible():
    with pytest.raises(ValueError):
        fem.MaterialLaw.from_young_poisson(500.0, 0.5)
    with pytest.raises(ValueError):
        fem.MaterialLaw.from_young_poisson(-1.0, 0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lame_rejects_non_finite(bad):
    for mu, lam in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            fem.MaterialLaw(mu, lam)
    with pytest.raises(ValueError, match="finite"):
        fem.MaterialLaw.from_young_poisson(bad, 0.3)


def test_shape_lagrange_property():
    nodes = np.vstack([np.eye(3),
                       [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]])
    vals = fem.shape_values(nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_partition_of_unity(a, b):
    l1, l2 = a, b * (1.0 - a)
    bary = np.array([1.0 - l1 - l2, l1, l2])
    assert abs(fem.shape_values(bary).sum() - 1.0) < 1e-14
    assert np.abs(fem.shape_grads_ref(bary).sum(axis=0)).max() < 1e-13


def test_gradient_at_physical_gradients():
    mesh = msh.generate_unit_square(2, msh.tag_bottom_contact)
    dofmap = fem.DofMap(mesh)
    pts = np.array([[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
    # a constant field: values reproduce it, gradients vanish
    const = interpolate(dofmap, lambda p: np.tile([1.0, -2.0], (len(p), 1)))
    assert np.allclose(fem.displacement_at(mesh, const, pts),
                       [1.0, -2.0], atol=1e-14)
    assert np.abs(fem.gradient_at(mesh, const, pts)).max() < 1e-13
    # gradients reproduce the exact gradient of an interpolated linear field
    lin = interpolate(dofmap, lambda p: np.column_stack(
        [2.0 * p[:, 0] - 0.5 * p[:, 1], p[:, 0] + 3.0 * p[:, 1]]))
    got = fem.gradient_at(mesh, lin, pts)
    assert np.allclose(got, [[2.0, -0.5], [1.0, 3.0]], atol=1e-13)


def reference_integral(a, b):
    # int_T x^a y^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_triangle_quadrature_degree_four():
    x, y = fem.TRI_QP[:, 1], fem.TRI_QP[:, 2]
    for a in range(5):
        for b in range(5 - a):
            got = 0.5 * np.sum(fem.TRI_QW * x ** a * y ** b)
            assert abs(got - reference_integral(a, b)) < 1e-14, (a, b)
    assert abs(0.5 * np.sum(fem.TRI_QW * x ** 2) - 1.0 / 12.0) < 1e-14


def test_edge_quadrature_degree_five():
    for k in range(6):
        got = np.sum(fem.EDGE_QW * fem.EDGE_QT ** k)
        assert abs(got - 1.0 / (k + 1)) < 1e-14


@pytest.fixture(scope="module")
def assembled():
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    system = fem.assemble(dofmap, problem)
    return mesh, dofmap, system


def test_energy_of_uniaxial_field(assembled):
    mesh, dofmap, system = assembled
    u = interpolate(dofmap, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    energy = u @ (system.K @ u)
    expected = 2.0 * 1.0 + 1.0   # (2 mu + lam) |Omega|
    assert abs(energy - expected) < 1e-12 * expected


def test_rigid_body_kernel(assembled):
    _, dofmap, system = assembled
    kmax = np.abs(system.K).max()
    for mode in (lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
                 lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))]),
                 lambda p: np.column_stack([-p[:, 1], p[:, 0]])):
        v = interpolate(dofmap, mode)
        assert np.abs(system.K @ v).max() <= 1e-10 * kmax


def test_stiffness_symmetric(assembled):
    _, _, system = assembled
    asym = np.abs(system.K - system.K.T).max()
    assert asym <= 1e-12 * np.abs(system.K).max()


def test_free_block_positive_definite(assembled):
    _, _, system = assembled
    free = system.free_mask()
    Kff = system.K.toarray()[np.ix_(free, free)]
    np.linalg.cholesky(Kff)   # raises if not SPD


def test_dirichlet_classification_corners():
    # bottom contact tagging: bottom corners touch contact+Neumann -> contact,
    # top corners touch Dirichlet+Neumann -> Dirichlet
    mesh = msh.generate_unit_square(2, msh.tag_bottom_contact)
    dofmap = fem.DofMap(mesh)
    coords = dofmap.coords
    for target, kinds in (((0, 0), "C"), ((1, 0), "C"), ((0, 1), "D"), ((1, 1), "D")):
        node = int(np.argmin(np.abs(coords - np.array(target, float)).sum(axis=1)))
        assert dofmap.kind[node] == kinds
    assert dofmap.n_nodes == mesh.num_vertices + mesh.edges.shape[0]
    # every node is classified exactly once
    assert set(dofmap.kind) <= {"i", "D", "N", "C"}


def test_traction_uniaxial_hand_value():
    problem = prb.rigid_wedge_push()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    mat = fem.MaterialLaw(1.0, 1.0)
    u = interpolate(dofmap, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    edges = mesh.boundary_edge_ids[mesh.boundary_tags == "C"]   # on x = 1, n = (1, 0)
    sig = fem.corner_stress(mesh, mat, u)
    n = mesh.outward_normals(edges)
    tau = est._boundary_tractions(mesh, sig, edges)
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)
    assert np.allclose(tau, [3.0, 0.0], atol=1e-12)


def test_traction_rigid_motion_zero():
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack([np.full(len(p), 2.0),
                                                       np.full(len(p), -1.0)]))
    sig = fem.corner_stress(mesh, problem.material, u)
    tau = est._boundary_tractions(mesh, sig, mesh.boundary_edge_ids)
    assert np.abs(tau).max() < 1e-13
    jumps = est._interior_jumps(mesh, sig, np.flatnonzero(mesh.edge_tris[:, 1] >= 0))
    assert jumps.max() < 1e-13


def test_traction_two_sided_consistency():
    # a globally smooth quadratic displacement has continuous stress: the
    # tractions seen from the two triangles sharing an edge cancel
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack(
        [p[:, 0] ** 2 + p[:, 1], p[:, 0] * p[:, 1]]))
    sig = fem.corner_stress(mesh, problem.material, u)
    inner = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    jumps = est._interior_jumps(mesh, sig, inner)
    assert jumps.shape == inner.shape
    assert np.abs(sig).max() > 1.0
    assert jumps.max() < 1e-12


def test_element_residual_known_hessian():
    # u = (x^2, 0), mu = lam = 1: div sigma = (mu*2 + (mu+lam)*2, 0) = (6, 0)
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    mat = fem.MaterialLaw(1.0, 1.0)
    u = interpolate(dofmap, lambda p: np.column_stack([p[:, 0] ** 2,
                                                       np.zeros(len(p))]))
    div = fem.divergence_stress(mesh, mat, u)
    assert np.allclose(div[:, 0], 6.0, atol=1e-11)
    assert np.abs(div[:, 1]).max() < 1e-11


def test_element_residual_linear_field_vanishes():
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack([p[:, 0] - 2 * p[:, 1],
                                                       p[:, 1]]))
    assert np.abs(fem.divergence_stress(mesh, problem.material, u)).max() < 1e-12


def test_element_residual_manufactured_interpolant_small():
    problem = prb.bottom_contact_benchmark()
    sizes, norms = (4, 8), []
    for n in sizes:
        mesh = problem.mesh(n)
        dofmap = fem.DofMap(mesh)
        u = interpolate(dofmap, problem.exact)
        # s(u_h) = f + div sigma(u_h) at the degree-4 points of every element
        div = fem.divergence_stress(mesh, problem.material, u)
        xy = fem.barycentric_to_xy(mesh, fem.TRI_QP)
        s = problem.f(xy.reshape(-1, 2)).reshape(xy.shape) + div[:, None, :]
        norms.append(np.abs(s).max())
    # P2 interpolation leaves an O(h) residual of the strong equation
    assert norms[1] < 0.7 * norms[0]


def test_galerkin_pure_dirichlet_cubic_rate():
    base = prb.bottom_contact_benchmark()
    problem = prb.ProblemSpec(
        name="dirichlet-pretest", tagging=tag_all_dirichlet,
        material=base.material, f=base.f, g=prb.ZERO,
        chi=lambda p: np.zeros(len(p)), dirichlet=base.exact,
        exact=base.exact)
    errs = []
    for n in (2, 4, 8):
        mesh = problem.mesh(n)
        dofmap = fem.DofMap(mesh)
        system = fem.assemble(dofmap, problem)
        u = linear_solve(system)
        errs.append(prb.measure_error(mesh, u, problem.exact))
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 2.6, (errs, rates)


# -- reference-tensor kernels against per-element loops -------------------------

@pytest.fixture(scope="module")
def bisected():
    # mixed bisection: each round refines every third triangle, so the
    # elements take many shapes and orientations
    mesh = prb.bottom_contact_benchmark().mesh(2)
    for _ in range(4):
        mesh = msh.refine(mesh, np.arange(0, mesh.num_triangles, 3))
    u = np.random.default_rng(7).standard_normal(fem.DofMap(mesh).ndof)
    return mesh, u


def _loop_inv_jac(mesh, t):
    p = mesh.vertices[mesh.triangles[t]]
    return np.linalg.inv(np.column_stack([p[1] - p[0], p[2] - p[0]]))


def _loop_element_stiffness(mesh, material):
    # six-point quadrature of B^T D B, one triangle at a time
    mu, lam = material.mu, material.lam
    D = np.array([[2 * mu + lam, lam, 0.0], [lam, 2 * mu + lam, 0.0], [0.0, 0.0, mu]])
    Ke = np.zeros((mesh.num_triangles, 12, 12))
    for t in range(mesh.num_triangles):
        inv = _loop_inv_jac(mesh, t)
        for q in range(fem.TRI_QP.shape[0]):
            dN = fem.shape_grads_ref(fem.TRI_QP[q]) @ inv          # (6, 2)
            B = np.zeros((3, 12))
            B[0, 0::2] = dN[:, 0]
            B[1, 1::2] = dN[:, 1]
            B[2, 0::2] = dN[:, 1]
            B[2, 1::2] = dN[:, 0]
            Ke[t] += fem.TRI_QW[q] * mesh.areas[t] * (B.T @ D @ B)
    return Ke


def element_stiffness(mesh, material):
    """(nt, 12, 12) element matrices, each entry copied from the assembly's
    on-or-above-diagonal table, so every matrix is exactly symmetric."""
    return np.take(fem._upper_stiffness(mesh, material), fem._FROM_UPPER, axis=1)


def _relative(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def test_element_stiffness_matches_quadrature_loop(bisected):
    mesh, _ = bisected
    assert np.unique(np.round(mesh.inv_jac, 12), axis=0).shape[0] > 8
    for material in (fem.MaterialLaw(1.0, 1.0), fem.MaterialLaw.from_young_poisson(500.0, 0.3)):
        got = element_stiffness(mesh, material)
        assert got.shape == (mesh.num_triangles, 12, 12)
        assert _relative(got, _loop_element_stiffness(mesh, material)) <= 1e-14


def test_pointwise_evaluators_match_loops(bisected):
    mesh, u = bisected
    material = fem.MaterialLaw(1.0, 2.0)
    bary = np.vstack([np.eye(3), fem.TRI_QP, [[0.1, 0.3, 0.6]]])
    nt = mesh.num_triangles
    xy = np.empty((nt, bary.shape[0], 2))
    vals = np.empty((nt, bary.shape[0], 2))
    grads = np.empty((nt, bary.shape[0], 2, 2))
    div = np.empty((nt, 2))
    for t in range(nt):
        p = mesh.vertices[mesh.triangles[t]]
        nodes = mesh.element_nodes[t]
        coeff = np.column_stack([u[2 * nodes], u[2 * nodes + 1]])   # (6, 2)
        inv = _loop_inv_jac(mesh, t)
        for q, lam_q in enumerate(bary):
            xy[t, q] = lam_q[0] * p[0] + lam_q[1] * p[1] + lam_q[2] * p[2]
            vals[t, q] = fem.shape_values(lam_q) @ coeff
            grads[t, q] = coeff.T @ (fem.shape_grads_ref(lam_q) @ inv)
        hess = [sum(coeff[a, c] * inv.T @ fem.shape_hessians_ref()[a] @ inv
                    for a in range(6)) for c in range(2)]
        lap = np.array([np.trace(hess[c]) for c in range(2)])
        grad_div = hess[0][0] + hess[1][1]
        div[t] = material.mu * lap + (material.mu + material.lam) * grad_div
    assert _relative(fem.barycentric_to_xy(mesh, bary), xy) <= 1e-14
    assert _relative(fem.displacement_at(mesh, u, bary), vals) <= 1e-14
    assert _relative(fem.gradient_at(mesh, u, bary), grads) <= 1e-14
    assert _relative(fem.divergence_stress(mesh, material, u), div) <= 1e-14


# -- array-form CSR assembly against a COO reference ------------------------------

def _coo_stiffness(mesh, material, ndof):
    # every element entry at its (row, column) dof pair, duplicates summed by scipy
    Ke = element_stiffness(mesh, material)
    dofs = fem.element_dofs(mesh)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()


def test_stiffness_matches_coo_assembly(bisected):
    mesh, _ = bisected
    problem = prb.bottom_contact_benchmark()
    dofmap = fem.DofMap(mesh)
    K = fem.assemble(dofmap, problem).K
    ref = _coo_stiffness(mesh, problem.material, dofmap.ndof)
    assert K.format == "csr" and K.indices.dtype == K.indptr.dtype == np.int32
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert _relative(K.data, ref.data) <= 1e-15


def test_stiffness_exactly_symmetric(bisected):
    mesh, _ = bisected
    problem = prb.rigid_wedge_push()
    Ke = element_stiffness(mesh, problem.material)
    assert np.array_equal(Ke, np.swapaxes(Ke, 1, 2))
    K = fem.assemble(fem.DofMap(mesh), problem).K
    KT = K.T.tocsr()
    assert np.array_equal(K.indptr, KT.indptr)
    assert np.array_equal(K.indices, KT.indices)
    assert np.array_equal(K.data, KT.data)
