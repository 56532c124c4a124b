import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import signorini.density as dens
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

# independent degree-3 triangle rule (not the rule used by the package)
_D3_W = np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0
_D3_B = np.array([[1 / 3, 1 / 3, 1 / 3],
                  [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
# independent degree-2 edge-midpoint rule
_MID_B = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def test_trace_weights_uniform_mesh(solved71):
    trace = solved71.trace
    mesh = solved71.mesh
    h = 0.25
    coords = solved71.dofmap.coords[trace.nodes]
    is_mid = trace.nodes >= mesh.num_vertices
    endpoints = (np.isclose(coords[:, 0], 0.0) | np.isclose(coords[:, 0], 1.0)) & ~is_mid
    inner_vertex = ~is_mid & ~endpoints
    assert np.allclose(trace.weight[is_mid], h / 2)
    assert np.allclose(trace.weight[inner_vertex], h / 2)
    assert np.allclose(trace.weight[endpoints], h / 4)
    assert np.isclose(trace.weight.sum(), trace.total_length, atol=1e-14)
    assert np.isclose(trace.total_length, 1.0)


def chain_ends(mesh, trace, h):
    """Contact vertices holding a single half-hat (weight h/4)."""
    vert = trace.nodes < mesh.num_vertices
    return trace.nodes[vert & np.isclose(trace.weight, h / 4)]


def test_trace_single_chain(solved71):
    # one contact chain: its two ends are the only vertices on one edge
    mesh, trace = solved71.mesh, solved71.trace
    ends = chain_ends(mesh, trace, 0.25)
    assert np.array_equal(np.sort(mesh.vertices[ends, 0]), [0.0, 1.0])
    single = trace.node_edges[:, 0] == trace.node_edges[:, 1]
    assert np.array_equal(trace.nodes[single & (trace.nodes < mesh.num_vertices)], ends)
    assert (trace.node_edges[:, 0] <= trace.node_edges[:, 1]).all()


def test_trace_requires_contact():
    mesh = msh.generate_unit_square(2, msh.tag_all_dirichlet)
    with pytest.raises(ValueError):
        dens.build_trace_mesh(mesh)


def test_trace_rejects_vertex_on_four_contact_edges():
    # two triangles pinched at vertex 2: a valid mesh whose four contact
    # edges meet there, which the two-column node-edge table cannot hold
    mesh = msh.Mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)],
                    [(0, 1, 2), (2, 3, 4)],
                    [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
                    ["N", "C", "C", "C", "N", "C"])
    with pytest.raises(ValueError, match="more than two contact edges"):
        dens.build_trace_mesh(mesh)


def test_trace_disconnected_chains():
    # contact on the two outer quarters of the bottom edge, Neumann between
    def tagging(x, y):
        if y < 1e-12 and (x < 0.25 or x > 0.75):
            return msh.CONTACT
        if y > 1 - 1e-12:
            return msh.DIRICHLET
        return msh.NEUMANN

    mesh = msh.generate_unit_square(4, tagging)
    trace = dens.build_trace_mesh(mesh)
    assert np.isclose(trace.total_length, 0.5)
    assert np.isclose(trace.weight.sum(), 0.5)
    # the chain ends, and only they, carry the single half-hat weight h/4
    ends = chain_ends(mesh, trace, 0.25)
    assert np.array_equal(np.sort(mesh.vertices[ends, 0]), [0.0, 0.25, 0.75, 1.0])


def test_density_sign_property(solved71, solved72):
    for state in (solved71, solved72):
        den = state.density
        scale = max(1.0, np.abs(den.normal).max())
        assert den.normal.min() >= -1e-10 * scale
        assert np.abs(den.tangential).max() <= 1e-8 * (1.0 + np.abs(den.normal).max())


def test_density_multiplier_relation(solved71):
    # lambda_n(p) = m_p / w_p links the density to the solver multipliers
    den, trace, sol = solved71.density, solved71.trace, solved71.solution
    con = solved71.constraints
    pos = np.searchsorted(con.nodes, trace.nodes)
    assert np.allclose(den.normal * trace.weight, sol.multipliers[pos], atol=1e-12)


def test_inactive_node_zero_density(solved72):
    den, trace = solved72.density, solved72.trace
    con, sol = solved72.constraints, solved72.solution
    pos = np.searchsorted(con.nodes, trace.nodes)
    inactive = ~sol.active[pos]
    assert inactive.any()
    assert np.abs(den.normal[inactive]).max() <= 1e-10 * max(1.0, den.normal.max())


def test_density_against_independent_quadrature():
    """lambda * w must equal L(phi) - a(u_h, phi) integrated from scratch.

    Constant data on the two-triangle mesh keeps every integral polynomial,
    so closed forms and an independent degree-2 rule are exact.
    """
    fconst = np.array([0.3, -1.2])
    gconst = np.array([0.1, 0.2])
    problem = prb.ProblemSpec(
        name="tiny", tagging=msh.tag_bottom_contact,
        material=fem.MaterialLaw(1.5, 0.7),
        f=lambda p: np.tile(fconst, (len(p), 1)),
        g=lambda p: np.tile(gconst, (len(p), 1)),
        chi=lambda p: np.full(len(p), 0.01),
        dirichlet=None, normal_comp=1, normal_sign=-1.0)
    mesh = problem.mesh(1)
    dofmap = fem.DofMap(mesh)
    system = fem.assemble(mesh, dofmap, problem.material, problem)
    con = vi.contact_constraints(dofmap, problem)
    sol = vi.solve_vi(system, con)
    trace = dens.build_trace_mesh(mesh)
    den = dens.compute_density(vi.residual_functional(system, sol.u), sol.u, trace, con)

    def a_direct(node, comp):
        # loop quadrature of sigma(u_h) : eps(phi_node e_comp)
        total = 0.0
        for t in range(mesh.num_triangles):
            nodes_t = mesh.element_nodes[t]
            if node not in nodes_t:
                continue
            a_loc = int(np.flatnonzero(nodes_t == node)[0])
            sig = fem.stress_from_grad(
                fem.gradient_at(mesh, sol.u, np.array([t]), _D3_B)[0],
                problem.material)
            dref = fem.shape_grads_ref(_D3_B)
            dphys = np.einsum("qad,de->qae", dref, mesh.inv_jac[t])
            for q in range(len(_D3_W)):
                grad_phi = np.zeros((2, 2))
                grad_phi[comp] = dphys[q, a_loc]
                eps = 0.5 * (grad_phi + grad_phi.T)
                total += _D3_W[q] * mesh.areas[t] * np.tensordot(sig[q], eps)
        return total

    def L_direct(node, comp):
        # closed forms: P2 vertex bases have zero element mean, midpoints |T|/3
        total = 0.0
        nv = mesh.num_vertices
        if node >= nv:
            for t in mesh.edge_tris[node - nv]:
                if t >= 0:
                    total += fconst[comp] * mesh.areas[t] / 3.0
        for eid, tag in zip(mesh.boundary_edge_ids, mesh.boundary_tags):
            if tag != msh.NEUMANN:
                continue
            length = mesh.edge_length(np.array([eid]))[0]
            a, b = mesh.edges[eid]
            if node in (a, b):
                total += gconst[comp] * length / 6.0
            elif node == nv + eid:
                total += gconst[comp] * length * 2.0 / 3.0
        return total

    for i, p in enumerate(trace.nodes):
        for comp, value in ((1, -den.normal[i]), (0, den.tangential[i])):
            reference = L_direct(p, comp) - a_direct(p, comp)
            assert abs(value * trace.weight[i] - reference) < 1e-12 * (1 + abs(reference))


def test_lumped_pairing_matches_algebraic_residual(solved71):
    # the lumped product lambda_i(p) w_p equals the residual row exactly
    den, trace, r = solved71.density, solved71.trace, solved71.residual
    con = solved71.constraints
    normal_rows = con.sign * r[2 * trace.nodes + con.comp]
    tangential_rows = r[2 * trace.nodes + (1 - con.comp)]
    scale = np.abs(normal_rows).max()
    assert np.abs(den.normal * trace.weight - normal_rows).max() <= 1e-10 * scale
    assert np.abs(den.tangential * trace.weight - tangential_rows).max() <= 1e-10 * scale


def test_classification_synthetic(solved71):
    # full contact everywhere in the benchmark solve
    assert (solved71.density.classes == dens.FULL_CONTACT).all()

    # lifting one midpoint off the gap demotes its vertices to semi contact
    state = solved71
    u = state.solution.u.copy()
    trace = state.trace
    mid = trace.nodes[trace.nodes >= state.mesh.num_vertices][0]
    u[2 * mid + state.constraints.comp] -= 0.05 * state.constraints.sign  # u_n -= 0.05
    classes, _ = dens.classify_nodes(u, trace, state.constraints)
    i_mid = trace.index_of(mid)
    assert classes[i_mid] == dens.NO_CONTACT
    k = trace.node_edges[i_mid][0]
    for v in (trace.edge_nodes[k][0], trace.edge_nodes[k][2]):
        assert classes[trace.index_of(v)] == dens.SEMI_CONTACT


def test_no_contact_classification(solved72):
    # wedge tip binds, the corners stay clear of the obstacle
    classes = solved72.density.classes
    assert dens.NO_CONTACT in classes
    con, sol = solved72.constraints, solved72.solution
    un = con.sign * sol.u[con.dofs]
    pos = np.searchsorted(con.nodes, solved72.trace.nodes)
    clear = (con.gap - un)[pos] > 1e-6
    assert (classes[clear] == dens.NO_CONTACT).all()


def test_node_average_constant_is_one(solved71):
    state = solved71
    ones = lambda pts: np.ones(len(pts))
    for p in range(state.dofmap.n_nodes):
        e_p = dens.node_average(state.mesh, state.dofmap, state.patches,
                               state.trace, p, ones)
        if state.dofmap.kind[p] == msh.DIRICHLET:
            assert e_p == 0.0
        else:
            assert abs(e_p - 1.0) < 1e-12


def test_node_average_linear_field_against_independent_rule(solved71):
    state = solved71
    mesh, dofmap, patches = state.mesh, state.dofmap, state.patches
    v = lambda pts: 0.7 * pts[:, 0] - 0.3 * pts[:, 1] + 0.2

    def oracle_volume(p):
        tris = patches.tris(p)
        num = den_ = 0.0
        for t in tris:
            pts = np.einsum("qk,kd->qd", _D3_B, mesh.vertices[mesh.triangles[t]])
            if p < mesh.num_vertices:
                loc = int(np.flatnonzero(mesh.triangles[t] == p)[0])
                w = _D3_B[:, loc]
            else:
                loc = int(np.flatnonzero(mesh.tri_edges[t] == p - mesh.num_vertices)[0])
                w = fem.shape_values(_D3_B)[:, 3 + loc]
            num += mesh.areas[t] * np.sum(_D3_W * w * v(pts))
            den_ += mesh.areas[t] * np.sum(_D3_W * w)
        return num / den_

    checked = 0
    for p in range(dofmap.n_nodes):
        if dofmap.kind[p] in (msh.DIRICHLET, msh.CONTACT):
            continue
        got = dens.node_average(mesh, dofmap, patches, state.trace, p, v)
        assert abs(got - oracle_volume(p)) < 1e-12
        checked += 1
    assert checked > 10
    # symmetric interior vertex patch: the average of a linear field is its
    # value at the patch center
    interior = [q for q in range(mesh.num_vertices) if dofmap.kind[q] == "i"]
    q = interior[0]
    assert abs(dens.node_average(mesh, dofmap, patches, state.trace, q, v)
               - v(dofmap.coords[[q]])[0]) < 1e-12


def test_quasi_density_unit_field_total_force(solved71):
    state = solved71
    nsum = state.solution.multipliers.sum()
    ones = lambda pts: np.tile([0.0, -1.0], (len(pts), 1))   # v_n = 1 in this frame
    got = dens.apply_quasi_density(state.mesh, state.density, ones)
    assert abs(got - nsum) < 1e-12 * max(1.0, nsum)


def test_quasi_density_zero_field(solved71):
    zero = lambda pts: np.zeros((len(pts), 2))
    assert dens.apply_quasi_density(solved71.mesh, solved71.density, zero) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_quasi_density_nonnegative(solved71, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, 6)

    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        w = (a[0] + a[1] * x + a[2] * y + a[3] * x * y) ** 2 + abs(a[4])
        out = np.zeros((len(pts), 2))
        out[:, 1] = -w          # with n = (0,-1): v_n = -v_y = w >= 0
        out[:, 0] = a[5] * (x - y)
        return out

    assert dens.apply_quasi_density(solved71.mesh, solved71.density, v) >= 0.0


def test_density_csv_dump(tmp_path, solved71):
    path = tmp_path / "density.csv"
    dens.write_density_csv(path, solved71.mesh, solved71.dofmap, solved71.density)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,x,y,class,lambda_n,lambda_t,weight"
    assert len(lines) == 1 + solved71.trace.nodes.size
