import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import signorini.estimator as est
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb

from conftest import edge_end_stress, interpolate, linear_solve, prescribed, tag_all_dirichlet


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
    pts = np.array([[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
    # a constant field: values reproduce it, gradients vanish
    const = interpolate(mesh, lambda p: np.tile([1.0, -2.0], (len(p), 1)))
    assert np.allclose(fem.displacement_at(mesh, const, pts),
                       [1.0, -2.0], atol=1e-14)
    assert np.abs(fem.gradient_at(mesh, const, pts)).max() < 1e-13
    # gradients reproduce the exact gradient of an interpolated linear field
    lin = interpolate(mesh, lambda p: np.column_stack(
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
    mesh, _, system = assembled
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    energy = u @ (system.K @ u)
    expected = 2.0 * 1.0 + 1.0   # (2 mu + lam) |Omega|
    assert abs(energy - expected) < 1e-12 * expected


def test_rigid_body_kernel(assembled):
    mesh, _, system = assembled
    kmax = np.abs(system.K).max()
    for mode in (lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
                 lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))]),
                 lambda p: np.column_stack([-p[:, 1], p[:, 0]])):
        v = interpolate(mesh, mode)
        assert np.abs(system.K @ v).max() <= 1e-10 * kmax


def test_stiffness_symmetric(assembled):
    _, _, system = assembled
    asym = np.abs(system.K - system.K.T).max()
    assert asym <= 1e-12 * np.abs(system.K).max()


def test_free_block_positive_definite(assembled):
    _, dofmap, system = assembled
    free = np.ones(system.ndof, dtype=bool)
    free[prescribed(dofmap, prb.bottom_contact_benchmark())[0]] = False
    Kff = system.K.toarray()[np.ix_(free, free)]
    np.linalg.cholesky(Kff)   # raises if not SPD


@pytest.mark.parametrize("case", ["ex72", "all_dirichlet"])
def test_assemble_builds_the_lift_and_the_free_mask(case):
    # ex72 prescribes (0.1, 0) on x = 0; the all-Dirichlet square prescribes
    # ex71's exact solution on its whole boundary
    if case == "ex72":
        problem = prb.rigid_wedge_push()
    else:
        base = prb.bottom_contact_benchmark()
        problem = prb.ProblemSpec(name="all-dirichlet", tagging=tag_all_dirichlet,
                                  material=base.material, f=base.f, g=prb.ZERO,
                                  chi=lambda p: np.zeros(len(p)), dirichlet=base.exact)
    dofmap = fem.DofMap(problem.mesh(4))
    system = fem.assemble(dofmap, problem)
    x, y = dofmap.mesh.node_coords.T
    on_dirichlet = x == 0 if case == "ex72" else np.isin(x, (0, 1)) | np.isin(y, (0, 1))
    nodes = np.flatnonzero(on_dirichlet)
    dofs, values = prescribed(dofmap, problem)
    assert np.array_equal(dofs, (2 * nodes[:, None] + np.arange(2)).ravel())
    assert np.array_equal(np.flatnonzero(~system.free), dofs)
    lift = np.zeros(system.ndof)
    lift[dofs] = values
    assert np.array_equal(system.lift, lift)
    if case == "ex72":
        assert np.array_equal(system.lift[dofs].reshape(-1, 2),
                              np.tile([0.1, 0.0], (nodes.size, 1)))
    # every solve step starts from copies of them
    assert not (system.lift.flags.writeable or system.free.flags.writeable)


def test_dirichlet_classification_corners():
    # corners touching contact and Neumann are contact, Dirichlet and Neumann
    # Dirichlet; side vertices take their side's tag
    cases = {
        msh.tag_bottom_contact: {(0, 0): "C", (1, 0): "C", (0, 1): "D", (1, 1): "D",
                                 (0.5, 0): "C", (0.5, 1): "D", (0, 0.5): "N", (0.5, 0.5): "i"},
        msh.tag_right_contact: {(1, 0): "C", (1, 1): "C", (0, 0): "D", (0, 1): "D",
                                (1, 0.5): "C", (0, 0.5): "D", (0.5, 0): "N", (0.5, 0.5): "i"},
    }
    for tagging, kinds in cases.items():
        mesh = msh.generate_unit_square(2, tagging)
        dofmap = fem.DofMap(mesh)
        coords = mesh.node_coords
        for target, kind in kinds.items():
            node = int(np.argmin(np.abs(coords - np.array(target, float)).sum(axis=1)))
            assert dofmap.kind[node] == kind, (tagging.__name__, target)
        assert dofmap.kind.size == mesh.num_vertices + mesh.edges.shape[0]
        # every boundary midpoint has its edge's tag, every other one is interior
        mid = np.full(mesh.edges.shape[0], "i")
        mid[mesh.boundary_edge_ids] = mesh.boundary_tags
        assert np.array_equal(dofmap.kind[mesh.num_vertices:], mid)
        assert set(dofmap.kind) == {"i", "D", "N", "C"}


def test_traction_uniaxial_hand_value():
    problem = prb.rigid_wedge_push()
    mesh = problem.mesh(2)
    mat = fem.MaterialLaw(1.0, 1.0)
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    edges = mesh.boundary_edge_ids[mesh.boundary_tags == "C"]   # on x = 1, n = (1, 0)
    end_sig = edge_end_stress(mesh, fem.corner_stress(mesh, mat, u))
    n = mesh.outward_normals(edges)
    tau = np.einsum("keij,kj->kei", end_sig[edges, 0], n)
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)
    assert np.allclose(tau, [3.0, 0.0], atol=1e-12)


def test_traction_rigid_motion_zero():
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    u = interpolate(mesh, lambda p: np.column_stack([np.full(len(p), 2.0),
                                                     np.full(len(p), -1.0)]))
    end_sig = edge_end_stress(mesh, fem.corner_stress(mesh, problem.material, u))
    assert np.abs(end_sig[mesh.boundary_edge_ids, 0]).max() < 1e-13
    jumps = est._interior_jumps(mesh, end_sig, np.flatnonzero(mesh.edge_tris[:, 1] >= 0))
    assert jumps.max() < 1e-13


def test_traction_two_sided_consistency():
    # a globally smooth quadratic displacement has continuous stress: the
    # tractions seen from the two triangles sharing an edge cancel
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    u = interpolate(mesh, lambda p: np.column_stack(
        [p[:, 0] ** 2 + p[:, 1], p[:, 0] * p[:, 1]]))
    sig = fem.corner_stress(mesh, problem.material, u)
    inner = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    jumps = est._interior_jumps(mesh, edge_end_stress(mesh, sig), inner)
    assert jumps.shape == inner.shape
    assert np.abs(sig).max() > 1.0
    assert jumps.max() < 1e-12


def test_element_residual_known_hessian():
    # u = (x^2, 0), mu = lam = 1: div sigma = (mu*2 + (mu+lam)*2, 0) = (6, 0)
    problem = prb.bottom_contact_benchmark()
    mesh = problem.mesh(2)
    mat = fem.MaterialLaw(1.0, 1.0)
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0] ** 2,
                                                     np.zeros(len(p))]))
    sig = fem.corner_stress(mesh, mat, u)
    # with f = 0 the residual is |div sigma| = 6; f = (-6, 0) cancels it
    unloaded = dataclasses.replace(problem, f=prb.ZERO)
    assert np.allclose(est._element_residual(mesh, unloaded, sig), 6.0, atol=1e-11)
    balanced = dataclasses.replace(problem, f=lambda p: np.tile([-6.0, 0.0], (len(p), 1)))
    assert est._element_residual(mesh, balanced, sig).max() < 1e-11


def test_element_residual_linear_field_vanishes():
    problem = dataclasses.replace(prb.bottom_contact_benchmark(), f=prb.ZERO)
    mesh = problem.mesh(2)
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0] - 2 * p[:, 1],
                                                     p[:, 1]]))
    sig = fem.corner_stress(mesh, problem.material, u)
    assert est._element_residual(mesh, problem, sig).max() < 1e-12


def test_element_residual_manufactured_interpolant_small():
    problem = prb.bottom_contact_benchmark()
    sizes, norms = (4, 8), []
    for n in sizes:
        mesh = problem.mesh(n)
        u = interpolate(mesh, problem.exact)
        # s(u_h) = f + div sigma(u_h) over the sample set of every element
        sig = fem.corner_stress(mesh, problem.material, u)
        norms.append(est._element_residual(mesh, problem, sig).max())
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
        u = linear_solve(system, prescribed(dofmap, problem))
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
    u = np.random.default_rng(7).standard_normal(2 * mesh.num_nodes)
    return mesh, u


def _loop_hessians_ref():
    """Constant reference Hessians of the six P2 basis functions: (6, 2, 2)."""
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])   # barycentric gradients
    H = np.empty((6, 2, 2))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        H[k] = 4.0 * np.outer(dl[k], dl[k])
        H[3 + k] = 4.0 * (np.outer(dl[i], dl[j]) + np.outer(dl[j], dl[i]))
    return H


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
    hess_ref = _loop_hessians_ref()
    for t in range(nt):
        p = mesh.vertices[mesh.triangles[t]]
        nodes = mesh.element_nodes[t]
        coeff = np.column_stack([u[2 * nodes], u[2 * nodes + 1]])   # (6, 2)
        inv = _loop_inv_jac(mesh, t)
        for q, lam_q in enumerate(bary):
            xy[t, q] = lam_q[0] * p[0] + lam_q[1] * p[1] + lam_q[2] * p[2]
            vals[t, q] = fem.shape_values(lam_q) @ coeff
            grads[t, q] = coeff.T @ (fem.shape_grads_ref(lam_q) @ inv)
        hess = [sum(coeff[a, c] * inv.T @ hess_ref[a] @ inv
                    for a in range(6)) for c in range(2)]
        lap = np.array([np.trace(hess[c]) for c in range(2)])
        grad_div = hess[0][0] + hess[1][1]
        div[t] = material.mu * lap + (material.mu + material.lam) * grad_div
    assert _relative(fem.barycentric_to_xy(mesh, bary), xy) <= 1e-14
    assert _relative(fem.displacement_at(mesh, u, bary), vals) <= 1e-14
    assert _relative(fem.gradient_at(mesh, u, bary), grads) <= 1e-14
    # f = -div at every sample point of triangle t, so the element residual
    # from the corner stresses is the difference of the two divergences
    npts = fem.TRI_SAMPLE.shape[0]
    cancel = dataclasses.replace(prb.bottom_contact_benchmark(),
                                 f=lambda p: -np.repeat(div, npts, axis=0))
    diff = est._element_residual(mesh, cancel, fem.corner_stress(mesh, material, u))
    assert diff.max() / np.abs(div).max() <= 1e-14


# -- array-form CSR assembly against a COO reference ------------------------------

def _coo_stiffness(mesh, material, ndof):
    # every element entry at its (row, column) dof pair, duplicates summed by scipy
    Ke = element_stiffness(mesh, material)
    dofs = (2 * mesh.element_nodes[:, :, None] + np.arange(2)).reshape(-1, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()


def test_stiffness_matches_coo_assembly(bisected):
    mesh, _ = bisected
    problem = prb.bottom_contact_benchmark()
    K = fem.assemble(fem.DofMap(mesh), problem).K
    ref = _coo_stiffness(mesh, problem.material, 2 * mesh.num_nodes)
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
