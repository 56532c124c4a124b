import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import signorini.adaptive as ad
import signorini.cli as cli
import signorini.density as dens
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

from conftest import WEDGE_SCALES, tag_all_dirichlet
import quasi_density as qd

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
    coords = solved71.mesh.node_coords[trace.nodes]
    is_mid = trace.nodes >= mesh.num_vertices
    endpoints = (np.isclose(coords[:, 0], 0.0) | np.isclose(coords[:, 0], 1.0)) & ~is_mid
    inner_vertex = ~is_mid & ~endpoints
    assert np.allclose(trace.weight[is_mid], h / 2)
    assert np.allclose(trace.weight[inner_vertex], h / 2)
    assert np.allclose(trace.weight[endpoints], h / 4)
    lengths = mesh.edge_lengths[trace.edge_ids]
    assert np.isclose(trace.weight.sum(), lengths.sum(), atol=1e-14)
    assert np.isclose(lengths.sum(), 1.0)


def chain_ends(mesh, trace, h):
    """Contact vertices holding a single half-hat (weight h/4)."""
    vert = trace.nodes < mesh.num_vertices
    return trace.nodes[vert & np.isclose(trace.weight, h / 4)]


def test_trace_single_chain(solved71):
    # one contact chain: its two ends are the only vertices on one edge
    mesh, trace = solved71.mesh, solved71.trace
    ends = chain_ends(mesh, trace, 0.25)
    assert np.array_equal(np.sort(mesh.vertices[ends, 0]), [0.0, 1.0])
    single = np.bincount(trace.edge_pos.ravel()) == 1
    assert np.array_equal(trace.nodes[single & (trace.nodes < mesh.num_vertices)], ends)
    # the oracle's node -> entry grouping: both entries hold the node, edges ascending
    entries = qd.node_entries(trace)
    assert (entries[:, 0] // 3 <= entries[:, 1] // 3).all()
    assert np.array_equal(trace.edge_pos.ravel()[entries],
                          np.column_stack([np.arange(trace.size)] * 2))


def trace_of(mesh):
    """Contact record of ``mesh`` against the flat obstacle of ex71."""
    return dens.build_trace_mesh(mesh, prb.bottom_contact_benchmark())


def test_trace_requires_contact():
    mesh = msh.generate_unit_square(2, tag_all_dirichlet)
    with pytest.raises(ValueError):
        trace_of(mesh)


def test_trace_rejects_vertex_on_four_contact_edges():
    # two triangles pinched at vertex 2: a valid mesh whose four contact
    # edges meet there, which the two-column node-edge table cannot hold
    def tagging(pts):
        # Neumann on (0, 1) and (3, 4), contact on the four edges at vertex 2
        x, y = pts.T
        return np.where((y == 0.0) | (x == 2.0), msh.NEUMANN, msh.CONTACT)

    mesh = msh.Mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)],
                    [(0, 1, 2), (2, 3, 4)], tagging)
    assert (mesh.boundary_tags == msh.CONTACT).sum() == 4
    with pytest.raises(ValueError, match="more than two contact edges"):
        trace_of(mesh)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_trace_rejects_non_finite_gap(bad, monkeypatch):
    # every comparison with a NaN gap is false, so no node could activate;
    # an infinite gap is no obstacle, and a side without one is a Neumann side
    p = prb.bottom_contact_benchmark()
    bad_right = dataclasses.replace(p, chi=lambda pts: np.where(pts[:, 0] > 0.5, bad, 0.0))
    factored = []
    splu = vi.spla.splu

    def spy(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(vi.spla, "splu", spy)
    with pytest.raises(ValueError, match=re.escape(
            "the gap chi is not finite at 4 of 9 contact nodes, first at node 3 (0.75, 0.0)")):
        ad.adapt(bad_right, ad.AdaptiveParams(levels=1, n0=4))
    assert factored == []


def test_trace_rejects_contact_on_two_sides():
    # contact on the right side and on the right half of the bottom, Dirichlet
    # on the left: the closures are disjoint, but the normals differ
    def tagging(pts):
        x, y = pts.T
        return np.select([(x > 1 - 1e-12) | ((y < 1e-12) & (x > 0.5)), x < 1e-12],
                         [msh.CONTACT, msh.DIRICHLET], msh.NEUMANN)

    mesh = msh.generate_unit_square(4, tagging)
    with pytest.raises(ValueError, match=re.escape("[[0.0, -1.0], [1.0, 0.0]]")):
        trace_of(mesh)


def test_trace_disconnected_chains():
    # contact on the two outer quarters of the bottom edge, Neumann between
    def tagging(pts):
        x, y = pts.T
        return np.select([(y < 1e-12) & ((x < 0.25) | (x > 0.75)), y > 1 - 1e-12],
                         [msh.CONTACT, msh.DIRICHLET], msh.NEUMANN)

    mesh = msh.generate_unit_square(4, tagging)
    trace = trace_of(mesh)
    assert np.isclose(mesh.edge_lengths[trace.edge_ids].sum(), 0.5)
    assert np.isclose(trace.weight.sum(), 0.5)
    # the chain ends, and only they, carry the single half-hat weight h/4
    ends = chain_ends(mesh, trace, 0.25)
    assert np.array_equal(np.sort(mesh.vertices[ends, 0]), [0.0, 0.25, 0.75, 1.0])


@pytest.mark.parametrize("key, frame", [("ex71", (1, -1.0)), ("ex72", (0, 1.0)),
                                        ("right_contact.json", (0, 1.0))],
                         ids=["ex71", "ex72", "right_contact.json"])
def test_contact_record_is_the_dofmap_contact_set(key, frame, tmp_path):
    """After mixed bisection, the record's nodes are the dofmap's contact
    nodes, its gap is chi there bit for bit, and its dofs are the
    interleaved (2p, 2p + 1) pairs split into normal and tangential."""
    if key.endswith(".json"):
        path = tmp_path / key
        path.write_text(json.dumps({"tagging": "right_contact",
                                    "material": {"E": 50.0, "nu": 0.3},
                                    "f": [-1.0, 0.5], "chi": 0.02}))
        problem = prb.get_problem(str(path))
    else:
        problem = prb.get_problem(key)
    mesh = problem.mesh(3)
    for k in range(4):
        mesh = msh.refine(mesh, np.arange(k % 3, mesh.num_triangles, 3))
    assert mesh.levels.max() > mesh.levels.min()
    trace = dens.build_trace_mesh(mesh, problem)

    assert np.array_equal(trace.nodes, np.flatnonzero(fem.DofMap(mesh).kind == msh.CONTACT))
    gap = problem.chi(mesh.node_coords[trace.nodes])
    assert trace.gap.dtype == gap.dtype and trace.gap.tobytes() == gap.tobytes()
    ends = mesh.edges[trace.edge_ids]
    edge_nodes = np.column_stack([ends[:, 0], mesh.num_vertices + trace.edge_ids, ends[:, 1]])
    assert np.array_equal(trace.nodes[trace.edge_pos], edge_nodes)
    comp = frame[0]
    assert (trace.comp, trace.sign) == frame
    pairs = 2 * trace.nodes[:, None] + np.array([0, 1])
    assert np.array_equal(trace.dofs, pairs[:, comp])
    assert np.array_equal(trace.tangential_dofs, pairs[:, 1 - comp])
    assert trace.size == trace.nodes.size


def test_density_sign_property(solved71, solved72):
    for state in (solved71, solved72):
        den = state.density
        scale = max(1.0, np.abs(den.normal).max())
        assert den.normal.min() >= -1e-10 * scale
        assert np.abs(den.tangential).max() <= 1e-8 * (1.0 + np.abs(den.normal).max())


def test_density_multiplier_relation(solved71):
    # lambda_n(p) = m_p / w_p links the density to the solver multipliers
    den, trace, sol = solved71.density, solved71.trace, solved71.solution
    m = trace.sign * sol.residual[trace.dofs]
    assert np.array_equal(den.multiplier, m)
    assert np.array_equal(den.normal, m / trace.weight)
    assert np.allclose(den.normal * trace.weight, m, atol=1e-12)


def test_inactive_node_zero_density(solved72):
    den, sol = solved72.density, solved72.solution
    inactive = ~sol.active
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
        dirichlet=prb.ZERO)
    mesh = problem.mesh(1)
    system = fem.assemble(fem.DofMap(mesh), problem)
    trace = dens.build_trace_mesh(mesh, problem)
    sol = vi.solve_vi(system, trace)
    den = dens.compute_density(system.F - system.K @ sol.u, trace)
    sig_q = fem.stress_from_grad(fem.gradient_at(mesh, sol.u, _D3_B), problem.material)

    def a_direct(node, comp):
        # loop quadrature of sigma(u_h) : eps(phi_node e_comp)
        total = 0.0
        for t in range(mesh.num_triangles):
            nodes_t = mesh.element_nodes[t]
            if node not in nodes_t:
                continue
            a_loc = int(np.flatnonzero(nodes_t == node)[0])
            sig = sig_q[t]
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
            length = mesh.edge_lengths[eid]
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
    normal_rows = trace.sign * r[2 * trace.nodes + trace.comp]
    tangential_rows = r[2 * trace.nodes + (1 - trace.comp)]
    scale = np.abs(normal_rows).max()
    assert np.abs(den.normal * trace.weight - normal_rows).max() <= 1e-10 * scale
    assert np.abs(den.tangential * trace.weight - tangential_rows).max() <= 1e-10 * scale


def test_classification_synthetic(solved71):
    # full contact everywhere in the benchmark solve
    active = solved71.solution.active
    assert (dens.classify_nodes(active, solved71.trace) == dens.FULL_CONTACT).all()

    # dropping one midpoint from the active set demotes its vertices to semi contact
    state = solved71
    trace = state.trace
    mid = trace.nodes[trace.nodes >= state.mesh.num_vertices][0]
    i_mid = np.searchsorted(trace.nodes, mid)
    active = active.copy()
    active[i_mid] = False
    classes = dens.classify_nodes(active, trace)
    assert classes[i_mid] == dens.NO_CONTACT
    k = np.flatnonzero((trace.edge_pos == i_mid).any(axis=1))[0]
    ends = trace.edge_pos[k][[0, 2]]
    assert (classes[ends] == dens.SEMI_CONTACT).all()


def test_no_contact_classification(solved72):
    # wedge tip binds, the corners stay clear of the obstacle
    trace, sol = solved72.trace, solved72.solution
    classes = dens.classify_nodes(sol.active, trace)
    assert dens.NO_CONTACT in classes
    un = trace.sign * sol.u[trace.dofs]
    clear = trace.gap - un > 1e-6
    assert (classes[clear] == dens.NO_CONTACT).all()


@pytest.mark.parametrize("alpha", WEDGE_SCALES)
def test_classes_do_not_depend_on_the_data_scale(scaled_wedges, alpha):
    """ex72 with its data scaled by alpha, down to 1e-14, has the node
    classes of scale 1, and all three of them."""
    base, scaled = (dens.classify_nodes(s.solution.active, s.trace)
                    for s in (scaled_wedges[1.0], scaled_wedges[alpha]))
    assert set(base) == {dens.FULL_CONTACT, dens.SEMI_CONTACT, dens.NO_CONTACT}
    assert np.array_equal(scaled, base)


# a steel block pushed onto an obstacle 2e-8 away: u_n and chi are ~1e-8
STEEL = {"tagging": "right_contact", "material": {"E": 2e11, "nu": 0.3},
         "f": [1e4, 0.0], "chi": 2e-8}


def test_density_csv_touching_nodes_are_the_active_nodes_at_steel_scale(tmp_path, monkeypatch):
    """At every level of ``signorini solve --trace`` on the steel problem,
    the nodes the density dump classes full or semi are exactly the
    solver's active nodes, though some contact nodes stay inactive."""
    path = tmp_path / "steel.json"
    path.write_text(json.dumps(STEEL))
    solve, active = vi.solve_vi, []

    def recording(system, trace):
        sol = solve(system, trace)
        active.append(trace.nodes[sol.active].tolist())
        return sol

    monkeypatch.setattr(vi, "solve_vi", recording)
    assert cli.main(["solve", "--problem", str(path), "--levels", "6", "--n0", "4",
                     "--out", str(tmp_path / "out"), "--trace"]) == 0
    assert len(active) == 6
    for level, nodes in enumerate(active):
        rows = [line.split(",") for line in
                (tmp_path / "out" / f"density_{level}.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows if r[3] != dens.NO_CONTACT] == nodes
        assert 0 < len(nodes) < len(rows)


def test_complementarity_at_steel_scale(tmp_path):
    """At every level of the steel problem, lambda_n (gap - u_n) stays within
    1e-9 max|lambda_n| max|gap|.  ``LevelChecks.comp_scale`` adds 1 to both
    factors, which at gap 2e-8 makes its bound about 1e8 times looser."""
    path = tmp_path / "steel.json"
    path.write_text(json.dumps(STEEL))
    seen = []
    for lvl in ad.levels(prb.get_problem(str(path)), ad.AdaptiveParams(levels=6, n0=4)):
        sol, density = lvl.solution, lvl.density
        trace = density.trace
        comp = density.normal * (trace.gap - trace.normal_part(sol.u))
        seen.append((comp.max(), np.abs(density.normal).max() * np.abs(trace.gap).max()))
    assert len(seen) == 6
    for level, (comp_max, scale) in enumerate(seen):
        assert scale > 0 and comp_max <= 1e-9 * scale, (level, comp_max, scale)


def test_node_average_constant_is_one(solved71):
    state = solved71
    e = qd.node_averages(state.dofmap, state.trace, lambda pts: np.ones(len(pts)))
    dirichlet = state.dofmap.kind == msh.DIRICHLET
    assert dirichlet.any() and (e[dirichlet] == 0.0).all()
    assert np.abs(e[~dirichlet] - 1.0).max() < 1e-12


def test_node_average_linear_field_against_independent_rule(solved71):
    state = solved71
    mesh, dofmap, patches = state.mesh, state.dofmap, state.patches
    v = lambda pts: 0.7 * pts[:, 0] - 0.3 * pts[:, 1] + 0.2
    got = qd.node_averages(dofmap, state.trace, v)

    def oracle_volume(p):
        tris = np.flatnonzero((patches.tri_nodes == p).any(axis=1))
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
    for p in range(mesh.num_nodes):
        if dofmap.kind[p] in (msh.DIRICHLET, msh.CONTACT):
            continue
        assert abs(got[p] - oracle_volume(p)) < 1e-12
        checked += 1
    assert checked > 10
    # symmetric interior vertex patch: the average of a linear field is its
    # value at the patch center
    interior = [q for q in range(mesh.num_vertices) if dofmap.kind[q] == "i"]
    q = interior[0]
    assert abs(got[q] - v(mesh.node_coords[[q]])[0]) < 1e-12


def test_boundary_averages_quadratic_field_against_independent_rule(solved71, solved72):
    """On every adjacent contact edge of every contact node, the hat average
    equals a 4-point Gauss-Legendre integration over the two half-edges, with
    psi_p interpolated from its nodal values (1 at p, 0 at the other two)."""
    v = lambda pts: 1.3 * pts[:, 0] ** 2 - 0.4 * pts[:, 0] * pts[:, 1] + 0.9 * pts[:, 1] ** 2 + 0.1
    t, w = np.polynomial.legendre.leggauss(4)
    t, w = (t + 1) / 4, w / 4                      # on [0, 1/2]
    for state in (solved71, solved72):
        mesh, trace = state.mesh, state.trace
        entries = qd.node_entries(trace)
        for col in (0, 1):
            edge = entries[:, col] // 3
            got = qd.node_averages(state.dofmap, trace, v, selected_entry=entries[:, col])
            for i, p in enumerate(trace.nodes):
                nodes = trace.nodes[trace.edge_pos[edge[i]]]
                pa, pb = mesh.vertices[nodes[0]], mesh.vertices[nodes[2]]
                num = den_ = 0.0
                for lo in (0.0, 0.5):
                    s = lo + t
                    psi = np.interp(s, [0.0, 0.5, 1.0], (nodes == p).astype(float))
                    num += np.sum(w * psi * v(pa + np.outer(s, pb - pa)))
                    den_ += np.sum(w * psi)
                assert abs(got[p] - num / den_) < 1e-12


def test_quasi_density_unit_field_total_force(solved71):
    state = solved71
    nsum = (state.trace.sign * state.solution.residual[state.trace.dofs]).sum()
    ones = lambda pts: np.tile([0.0, -1.0], (len(pts), 1))   # v_n = 1 in this frame
    got = qd.apply_quasi_density(state.mesh, state.density, state.solution.u, ones)
    assert abs(got - nsum) < 1e-12 * max(1.0, nsum)


def test_quasi_density_zero_field(solved71):
    zero = lambda pts: np.zeros((len(pts), 2))
    assert qd.apply_quasi_density(solved71.mesh, solved71.density, solved71.solution.u,
                                  zero) == 0.0


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

    assert qd.apply_quasi_density(solved71.mesh, solved71.density, solved71.solution.u,
                                  v) >= 0.0


def test_density_csv_dump(tmp_path, solved71):
    path = tmp_path / "density.csv"
    dens.write_density_csv(path, solved71.mesh, solved71.density, solved71.solution.active)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,x,y,class,lambda_n,lambda_t,weight"
    assert len(lines) == 1 + solved71.trace.nodes.size


def test_density_csv_contents(tmp_path, solved72):
    """Each row holds its node's id, coordinates, class, density and weight;
    the wedge solve has nodes of all three classes."""
    state = solved72
    trace, den, active = state.trace, state.density, state.solution.active
    path = tmp_path / "density.csv"
    dens.write_density_csv(path, state.mesh, den, active)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    node, x, y, cls, lam_n, lam_t, weight = (np.array(col) for col in zip(*rows))
    classes = dens.classify_nodes(active, trace)
    assert set(classes) == {dens.FULL_CONTACT, dens.SEMI_CONTACT, dens.NO_CONTACT}
    assert np.array_equal(cls, classes)
    assert np.array_equal(node.astype(np.int64), trace.nodes)
    assert np.array_equal(np.column_stack([x, y]).astype(float),
                          state.mesh.node_coords[trace.nodes])
    assert np.array_equal(lam_n.astype(float), den.normal)
    assert np.array_equal(lam_t.astype(float), den.tangential)
    assert np.array_equal(weight.astype(float), trace.weight)
