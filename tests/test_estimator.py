import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

import signorini.adaptive as ad
import signorini.density as dens
import signorini.estimator as est
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb

from conftest import interpolate
import quasi_density as qd


def zero_problem(tagging=msh.tag_bottom_contact, material=None):
    return prb.ProblemSpec(
        name="zero", tagging=tagging,
        material=material or fem.MaterialLaw(1.0, 1.0),
        f=prb.ZERO, g=prb.ZERO, chi=lambda p: np.zeros(len(p)),
        dirichlet=prb.ZERO)


def report_for(problem, mesh, u):
    dofmap = fem.DofMap(mesh)
    patches = msh.build_patches(mesh)
    system = fem.assemble(dofmap, problem)
    trace = dens.build_trace_mesh(dofmap, problem)
    density = dens.compute_density(system.F - system.K @ u, u, trace)
    return est.estimate(dofmap, patches, problem, u, density), dofmap, patches


def test_eta1_zero_for_linear_field():
    problem = zero_problem()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack([p[:, 0], -p[:, 1]]))
    report, _, _ = report_for(problem, mesh, u)
    assert report.eta[0] < 1e-12


def test_eta1_constant_force():
    c = np.array([2.0, -0.5])
    problem = dataclasses.replace(zero_problem(),
                                  f=lambda p: np.tile(c, (len(p), 1)))
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    report, _, patches = report_for(problem, mesh, np.zeros(dofmap.ndof))
    assert np.allclose(report.eta_p[0], patches.diameter ** 2 * np.abs(c).max(),
                       atol=1e-14)


def test_eta2_zero_for_global_linear():
    problem = zero_problem()
    mesh = problem.mesh(3)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack(
        [0.3 * p[:, 0] + 0.1 * p[:, 1], 0.5 * p[:, 1]]))
    report, _, _ = report_for(problem, mesh, u)
    assert report.eta[1] < 1e-12


def test_eta2_hand_built_jump():
    """Piecewise-linear ramp over the two-triangle square.

    u1 = alpha (y - x)^+ gives stress zero below the diagonal and a constant
    stress above; the traction jump across the diagonal has max component
    2 sqrt(2) alpha, and the diagonal midpoint patch has diameter sqrt(2),
    so its eta_2 value is 4 alpha.
    """
    alpha = 0.25
    problem = zero_problem()
    mesh = problem.mesh(1)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack(
        [alpha * np.maximum(p[:, 1] - p[:, 0], 0.0), np.zeros(len(p))]))
    report, dofmap, patches = report_for(problem, mesh, u)
    diag = int(np.flatnonzero(mesh.edge_tris[:, 1] >= 0)[0])
    p_mid = mesh.num_vertices + diag
    assert np.isclose(patches.diameter[p_mid], np.sqrt(2.0))
    assert np.isclose(report.eta_p[1, p_mid], 4.0 * alpha, atol=1e-13)


def test_eta3_manufactured_quadratic_exact():
    # data manufactured from a global quadratic: P2 reproduces it exactly and
    # the volume, jump, and Neumann residuals all collapse
    exact = lambda p: np.column_stack([p[:, 0] ** 2 + 0.5 * p[:, 1] ** 2,
                                       p[:, 0] * p[:, 1] - p[:, 1] ** 2])
    mat = fem.MaterialLaw(1.0, 2.0)

    def f(p):
        # -div sigma for that displacement: div u = 3x - 2y, lap u = (3, -2)
        return np.tile([-(mat.mu * 3.0 + (mat.mu + mat.lam) * 3.0),
                        +(mat.mu * 2.0 + (mat.mu + mat.lam) * 2.0)], (len(p), 1))

    def g(p):
        grad = np.zeros((len(p), 2, 2))
        grad[:, 0, 0] = 2 * p[:, 0]
        grad[:, 0, 1] = p[:, 1]
        grad[:, 1, 0] = p[:, 1]
        grad[:, 1, 1] = p[:, 0] - 2 * p[:, 1]
        sig = fem.stress_from_grad(grad, mat)
        n = np.where(p[:, [0]] > 0.5, 1.0, -1.0) * np.array([1.0, 0.0])
        return np.einsum("nij,nj->ni", sig, n)

    problem = prb.ProblemSpec(
        name="quad", tagging=msh.tag_bottom_contact, material=mat, f=f, g=g,
        chi=lambda p: np.zeros(len(p)), dirichlet=exact,
        exact=exact)
    mesh = problem.mesh(3)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, exact)
    report, _, _ = report_for(problem, mesh, u)
    scale = 1.0 + np.abs(u).max()
    assert report.eta[0] <= 1e-9 * scale
    assert report.eta[1] <= 1e-9 * scale
    assert report.eta[2] <= 1e-9 * scale


def test_eta3_zero_data():
    problem = zero_problem()
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    report, _, _ = report_for(problem, mesh, np.zeros(dofmap.ndof))
    assert report.eta[2] == 0.0
    assert report.eta_h == 0.0 and report.psi == 0.0


def test_eta45_uniaxial_contact_traction():
    # u = (x, 0) with contact on x=1 (n = (1,0)): normal traction 3, tangential 0
    problem = zero_problem(tagging=msh.tag_right_contact)
    mesh = problem.mesh(2)
    dofmap = fem.DofMap(mesh)
    u = interpolate(dofmap, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    report, dofmap, patches = report_for(problem, mesh, u)
    contact_nodes = np.flatnonzero(dofmap.kind == msh.CONTACT)
    assert np.allclose(report.eta_p[4, contact_nodes],
                       3.0 * patches.diameter[contact_nodes], atol=1e-12)
    assert np.abs(report.eta_p[3, contact_nodes]).max() < 1e-12
    assert np.isclose(report.eta[4], 3.0 * patches.diameter[contact_nodes].max())


def test_consistency_terms_flat_obstacle(solved71):
    # full contact against chi = 0: no penetration, empty inactive region
    state = solved71
    report = est.estimate(state.dofmap, state.patches, state.problem,
                          state.solution.u, state.density)
    assert report.eta6 == 0.0
    assert report.eta7 == 0.0
    con_ids = state.mesh.boundary_edge_ids[state.mesh.boundary_tags == msh.CONTACT]
    assert set(report.lambda_edges) == set(con_ids)   # full contact everywhere


def test_lambda_region_excludes_zero_density(solved72):
    state = solved72
    report = est.estimate(state.dofmap, state.patches, state.problem,
                          state.solution.u, state.density)
    m = state.density.normal * state.trace.weight
    cold = np.flatnonzero(m <= 1e-12 * m.max())
    lam = set(report.lambda_edges)
    for i in cold:
        p = state.trace.nodes[i]
        # an inactive node contributes none of its edges on its own; each of
        # its edges may appear only through the neighbouring active node
        for k in state.trace.node_edges[i]:
            eid = state.trace.edge_ids[k]
            others = [n for n in state.trace.edge_nodes[k] if n != p]
            if eid in lam:
                assert (m[np.searchsorted(state.trace.nodes, others)] > 1e-12 * m.max()).any()


def test_total_arithmetic(solved72):
    assert est.log_factor(1.0) == 1.0
    assert np.isclose(est.log_factor(np.exp(-1.0)), 2.0, rtol=1e-15)
    state = solved72
    report = est.estimate(state.dofmap, state.patches, state.problem,
                          state.solution.u, state.density)
    assert report.l_h == est.log_factor(report.h_min)
    assert report.eta_h == est.C0 * (report.l_h * report.psi + report.eta6 + report.eta7)
    assert report.eta6 + report.eta7 > 0.0


@settings(max_examples=10, deadline=None)
@given(st.floats(0.03, 30.0))
def test_positive_homogeneity(solved71, alpha):
    """Scaling u, f, g, chi by alpha scales every estimator part by alpha."""
    state = solved71
    base = est.estimate(state.dofmap, state.patches, state.problem,
                        state.solution.u, state.density)
    p = state.problem
    scaled = prb.ProblemSpec(
        name="scaled", tagging=p.tagging, material=p.material,
        f=lambda q: alpha * p.f(q), g=lambda q: alpha * p.g(q),
        chi=lambda q: alpha * p.chi(q), dirichlet=prb.ZERO)
    system = fem.assemble(state.dofmap, scaled)
    u = alpha * state.solution.u
    den = dens.compute_density(system.F - system.K @ u, u,
                               dens.build_trace_mesh(state.dofmap, scaled))
    rep = est.estimate(state.dofmap, state.patches, scaled, u, den)
    assert np.allclose(rep.eta, alpha * base.eta, rtol=1e-12)
    assert np.isclose(rep.eta6, alpha * base.eta6, rtol=1e-12)
    assert np.isclose(rep.eta7, alpha * base.eta7, rtol=1e-12)
    assert np.allclose(rep.indicator, alpha * base.indicator, rtol=1e-12)


def test_estimate_deterministic(solved71):
    state = solved71
    args = (state.dofmap, state.patches, state.problem,
            state.solution.u, state.density)
    a, b = est.estimate(*args), est.estimate(*args)
    assert a.eta_h == b.eta_h
    assert (a.indicator == b.indicator).all()


def test_patch_maxima_match_per_node_oracle():
    """Patch maxima and diameters equal a per-node evaluation that lists each
    patch's triangles, interior edges and Neumann/contact edges explicitly."""
    problem = prb.rigid_wedge_push()
    res = ad.adapt(problem, ad.AdaptiveParams(levels=4, theta=0.5, n0=4))
    mesh, dofmap, u, report = res.mesh, res.dofmap, res.solution.u, res.report
    patches = msh.build_patches(mesh)
    nv, nn = mesh.num_vertices, dofmap.n_nodes
    assert len(set(np.bincount(mesh.triangles.ravel()).tolist())) > 3
    assert set(mesh.boundary_tags) == {"D", "N", "C"}

    S = est._element_residual(mesh, problem, u)
    sig = fem.corner_stress(mesh, problem.material, u)
    # per-edge values keyed by mesh edge id, from the arrays aligned with
    # the interior, Neumann and contact edge ids
    inner = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    neu_ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
    con_ids = res.trace_mesh.edge_ids
    J = dict(zip(inner, est._interior_jumps(mesh, sig, inner)))
    R = dict(zip(neu_ids, est._neumann_residual(mesh, sig, problem, neu_ids)))
    Tn, Tt = (dict(zip(con_ids, v)) for v in est._contact_tractions(mesh, sig, res.trace_mesh))
    pen, gap = (dict(zip(con_ids, v))
                for v in est._consistency_per_edge(dofmap, problem, u, res.trace_mesh))
    in_lambda = np.isin(np.arange(mesh.edges.shape[0]), report.lambda_edges)
    tag = dict(zip(mesh.boundary_edge_ids, mesh.boundary_tags))

    def sup(vals, ids):
        return max((vals[e] for e in ids), default=0.0)

    eta_p, cons_p, diameter = np.zeros((5, nn)), np.zeros(nn), np.zeros(nn)
    for p in range(nn):
        if p < nv:
            tris = np.flatnonzero((mesh.triangles == p).any(axis=1))
        else:
            tris = mesh.edge_tris[p - nv][mesh.edge_tris[p - nv] >= 0]
        assert np.array_equal(np.flatnonzero((patches.tri_nodes == p).any(axis=1)), tris)
        interior_edges, neumann_edges, contact_edges = [], [], []
        for e in np.unique(mesh.tri_edges[tris]):
            t0, t1 = mesh.edge_tris[e]
            if t1 >= 0:
                if t0 in tris and t1 in tris:
                    interior_edges.append(e)
            elif tag[e] == msh.NEUMANN:
                neumann_edges.append(e)
            elif tag[e] == msh.CONTACT:
                contact_edges.append(e)
        lam = [e for e in contact_edges if in_lambda[e]]
        pts = mesh.vertices[np.unique(mesh.triangles[tris])]
        h = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).max())
        diameter[p] = h
        eta_p[:, p] = (h ** 2 * S[tris].max(), h * sup(J, interior_edges),
                       h * sup(R, neumann_edges), h * sup(Tt, contact_edges),
                       h * sup(Tn, contact_edges))
        cons_p[p] = sup(pen, contact_edges) + sup(gap, lam)

    assert report.lambda_edges.size and (cons_p > 0).any()
    assert np.array_equal(patches.diameter, diameter)
    assert np.array_equal(report.eta_p, eta_p)
    assert np.array_equal(report.consistency_p, cons_p)


def test_contact_quantities_match_per_edge_oracle():
    """Hat weights, node-edge incidences, node classes and the consistency
    sups equal a loop that visits one contact edge at a time."""
    problem = prb.rigid_wedge_push()
    res = ad.adapt(problem, ad.AdaptiveParams(levels=4, theta=0.5, n0=4))
    mesh, dofmap, u, trace = res.mesh, res.dofmap, res.solution.u, res.trace_mesh
    chi_p = problem.chi(dofmap.coords[trace.nodes])
    comp, sgn = 0, 1.0                        # contact on x = 1, n = (1, 0)
    ncon, nc = trace.nodes.size, trace.edge_ids.size

    weight = np.zeros(ncon)
    edges_of = [[] for _ in range(ncon)]
    for k in range(nc):
        h = mesh.edge_length(trace.edge_ids[[k]])[0]
        for n, w in zip(trace.edge_nodes[k], (h / 4, h / 2, h / 4)):
            i = np.searchsorted(trace.nodes, n)
            weight[i] += w
            edges_of[i].append(k)
    node_edges = np.array([[min(e), max(e)] for e in edges_of])

    def quadratic_range(v0, vm, v1):
        a, b = fem.trace_coefficients(v0, vm, v1)
        cands = [v0, v1]
        if a != 0.0:
            s = -b / (2 * a)
            if 0.0 < s < 1.0:
                cands.append((a * s + b) * s + v0)
        return min(cands), max(cands)

    gmax = np.abs(chi_p).max()
    tol = 1e-9 * (1.0 + gmax)
    edge_active, edge_sup = np.zeros(nc, dtype=bool), np.zeros(nc)
    pen, gap = np.zeros(nc), np.zeros(nc)
    for k in range(nc):
        nodes = trace.edge_nodes[k]
        un = sgn * u[2 * nodes + comp]
        dev = un - chi_p[np.searchsorted(trace.nodes, nodes)]
        edge_active[k] = np.all(np.abs(dev) <= tol)
        lo, hi = quadratic_range(*dev)
        edge_sup[k] = max(abs(lo), abs(hi))

        pts_nodes = dofmap.coords[nodes]
        A, B = fem.trace_coefficients(*un)
        chi_nodes = problem.chi(pts_nodes)
        svals = [est.EDGE_SAMPLE]
        for lo, (i, j) in ((0.0, (0, 1)), (0.5, (1, 2))):
            if A != 0.0:
                s_star = (2.0 * (chi_nodes[j] - chi_nodes[i]) - B) / (2.0 * A)
                if lo < s_star < lo + 0.5:
                    svals.append(np.array([s_star]))
        s = np.concatenate(svals)
        pts = pts_nodes[0][None, :] * (1 - s)[:, None] + pts_nodes[2][None, :] * s[:, None]
        diff = (A * s + B) * s + un[0] - problem.chi(pts)
        pen[k] = max(np.max(diff), 0.0) + 0.0
        gap[k] = max(np.max(-diff), 0.0) + 0.0

    classes, selected = np.empty(ncon, dtype="<U4"), np.empty(ncon, dtype=np.int64)
    for i, p in enumerate(trace.nodes):
        adj = np.array(edges_of[i])
        touching = abs(sgn * u[2 * p + comp] - chi_p[i]) <= tol
        if touching:
            classes[i] = dens.FULL_CONTACT if edge_active[adj].all() else dens.SEMI_CONTACT
        else:
            classes[i] = dens.NO_CONTACT
        selected[i] = adj[np.argmin(edge_sup[adj])]

    assert set(classes) == {dens.FULL_CONTACT, dens.SEMI_CONTACT, dens.NO_CONTACT}
    assert (node_edges[:, 0] < node_edges[:, 1]).any() and (gap > 0).any()
    assert np.array_equal(trace.weight, weight)
    assert np.array_equal(trace.node_edges, node_edges)
    got_classes = dens.classify_nodes(u, trace)
    got_selected = qd.selected_entries(u, trace)
    assert np.array_equal(got_classes, classes)
    assert np.array_equal(got_selected // 3, selected)
    assert np.array_equal(trace.edge_nodes.ravel()[got_selected], trace.nodes)
    got_pen, got_gap = est._consistency_per_edge(dofmap, problem, u, trace)
    assert np.array_equal(got_pen, pen)
    assert np.array_equal(got_gap, gap)
