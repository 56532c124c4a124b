import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import signorini.adaptive as ad
import signorini.density as dens
import signorini.estimator as est
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

from conftest import WEDGE_SCALES, SolvedState, edge_end_stress, interior_edges, interpolate
import quasi_density as qd


def zero_problem(tagging=msh.tag_bottom_contact, material=None):
    return prb.ProblemSpec(
        name="zero", tagging=tagging,
        material=material or fem.MaterialLaw(1.0, 1.0),
        f=prb.ZERO, g=prb.ZERO, chi=lambda p: np.zeros(len(p)),
        dirichlet=prb.ZERO)


def report_for(problem, mesh, u):
    """Estimate of a given field ``u``, not a solve: its active set is empty."""
    dofmap = fem.DofMap(mesh)
    system = fem.assemble(dofmap, problem)
    trace = dens.build_trace_mesh(mesh, problem)
    residual = system.F - system.K @ u
    sol = vi.VISolution(u, np.zeros(trace.size, dtype=bool), [], residual)
    density = dens.compute_density(residual, trace)
    return est.estimate(dofmap, problem, sol, density)


def test_eta1_zero_for_linear_field():
    problem = zero_problem()
    mesh = problem.mesh(2)
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0], -p[:, 1]]))
    report = report_for(problem, mesh, u)
    assert report.eta[0] < 1e-12


def test_eta1_constant_force():
    c = np.array([2.0, -0.5])
    problem = dataclasses.replace(zero_problem(),
                                  f=lambda p: np.tile(c, (len(p), 1)))
    mesh = problem.mesh(2)
    report = report_for(problem, mesh, np.zeros(2 * mesh.num_nodes))
    assert np.allclose(report.eta_p[0], msh.build_patches(mesh) ** 2 * np.abs(c).max(),
                       atol=1e-14)


def test_eta2_zero_for_global_linear():
    problem = zero_problem()
    mesh = problem.mesh(3)
    u = interpolate(mesh, lambda p: np.column_stack(
        [0.3 * p[:, 0] + 0.1 * p[:, 1], 0.5 * p[:, 1]]))
    report = report_for(problem, mesh, u)
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
    u = interpolate(mesh, lambda p: np.column_stack(
        [alpha * np.maximum(p[:, 1] - p[:, 0], 0.0), np.zeros(len(p))]))
    report = report_for(problem, mesh, u)
    diag = int(interior_edges(mesh)[0])
    p_mid = mesh.num_vertices + diag
    assert np.isclose(msh.build_patches(mesh)[p_mid], np.sqrt(2.0))
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
    u = interpolate(mesh, exact)
    report = report_for(problem, mesh, u)
    scale = 1.0 + np.abs(u).max()
    assert report.eta[0] <= 1e-9 * scale
    assert report.eta[1] <= 1e-9 * scale
    assert report.eta[2] <= 1e-9 * scale


def test_eta3_zero_data():
    problem = zero_problem()
    mesh = problem.mesh(2)
    report = report_for(problem, mesh, np.zeros(2 * mesh.num_nodes))
    assert report.eta[2] == 0.0
    assert report.eta_h == 0.0 and report.psi == 0.0


def test_eta45_uniaxial_contact_traction():
    # u = (x, 0) with contact on x=1 (n = (1,0)): normal traction 3, tangential 0
    problem = zero_problem(tagging=msh.tag_right_contact)
    mesh = problem.mesh(2)
    u = interpolate(mesh, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    report = report_for(problem, mesh, u)
    contact_nodes = np.flatnonzero(fem.DofMap(mesh).kind == msh.CONTACT)
    h_p = msh.build_patches(mesh)
    assert np.allclose(report.eta_p[4, contact_nodes], 3.0 * h_p[contact_nodes], atol=1e-12)
    assert np.abs(report.eta_p[3, contact_nodes]).max() < 1e-12
    assert np.isclose(report.eta[4], 3.0 * h_p[contact_nodes].max())


def lambda_region(mesh, trace, active):
    """Mesh edge ids of the active-density region, one contact node at a
    time: the contact edges holding a node of the active set ``active``."""
    nv = mesh.num_vertices
    region = set()
    for p in trace.nodes[active]:
        region |= {int(e) for e in trace.edge_ids if p == nv + e or p in mesh.edges[e]}
    return region


def test_consistency_terms_flat_obstacle(solved71):
    # full contact against chi = 0: no penetration, empty inactive region
    state = solved71
    report = est.estimate(state.dofmap, state.problem,
                          state.solution, state.density)
    assert report.eta6 == 0.0
    assert report.eta7 == 0.0
    con_ids = state.mesh.boundary_edge_ids[state.mesh.boundary_tags == msh.CONTACT]
    region = lambda_region(state.mesh, state.trace, state.solution.active)
    assert region == set(con_ids)   # full contact everywhere


def test_lambda_region_excludes_zero_density():
    """eta7 is the gap sup over the edges of active nodes only: an edge none
    of whose nodes is active, so that all carry zero density, does not
    enter.  On n = 8, two of the wedge push's eight contact edges are such
    edges."""
    state = SolvedState(prb.rigid_wedge_push(), n=8)
    report = est.estimate(state.dofmap, state.problem,
                          state.solution, state.density)
    _, gap = est._consistency_per_edge(state.mesh, state.problem, state.solution.u,
                                       state.trace)
    region = np.isin(state.trace.edge_ids,
                     sorted(lambda_region(state.mesh, state.trace, state.solution.active)))
    assert region.any() and not region.all()
    assert report.eta7 == gap[region].max()
    assert report.eta7 < gap.max()


@pytest.mark.parametrize("alpha", WEDGE_SCALES)
def test_wedge_estimate_scales_with_the_data(scaled_wedges, alpha):
    """eta7 and eta_h of ex72 with its data scaled by alpha are alpha times
    those of scale 1, down to 1e-14: the region of eta7 is the solver's
    active set, which holds no absolute tolerance."""
    base, scaled = (est.estimate(s.dofmap, s.problem, s.solution, s.density)
                    for s in (scaled_wedges[1.0], scaled_wedges[alpha]))
    assert base.eta7 > 0.0
    assert scaled.eta7 / alpha == pytest.approx(base.eta7, rel=1e-9)
    assert scaled.eta_h / alpha == pytest.approx(base.eta_h, rel=1e-9)


def test_total_arithmetic(solved72):
    assert est.log_factor(1.0) == 1.0
    assert np.isclose(est.log_factor(np.exp(-1.0)), 2.0, rtol=1e-15)
    state = solved72
    report = est.estimate(state.dofmap, state.problem,
                          state.solution, state.density)
    assert report.l_h == est.log_factor(report.h_min)
    assert report.eta_h == est.C0 * (report.l_h * report.psi + report.eta6 + report.eta7)
    assert report.eta6 + report.eta7 > 0.0


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(-14.0, np.log10(30.0)).map(lambda e: 10.0 ** e))
@example(alpha=1e-14)
def test_positive_homogeneity(solved71, alpha):
    """Scaling u, f, g, chi by alpha, from 1e-14 to 30, scales every
    estimator part by alpha; the active set does not change."""
    state = solved71
    base = est.estimate(state.dofmap, state.problem,
                        state.solution, state.density)
    p = state.problem
    scaled = prb.ProblemSpec(
        name="scaled", tagging=p.tagging, material=p.material,
        f=lambda q: alpha * p.f(q), g=lambda q: alpha * p.g(q),
        chi=lambda q: alpha * p.chi(q), dirichlet=prb.ZERO)
    system = fem.assemble(state.dofmap, scaled)
    u = alpha * state.solution.u
    residual = system.F - system.K @ u
    sol = dataclasses.replace(state.solution, u=u, residual=residual)
    den = dens.compute_density(residual, dens.build_trace_mesh(state.mesh, scaled))
    rep = est.estimate(state.dofmap, scaled, sol, den)
    assert np.allclose(rep.eta, alpha * base.eta, rtol=1e-12, atol=0.0)
    assert np.isclose(rep.eta6, alpha * base.eta6, rtol=1e-12, atol=0.0)
    assert np.isclose(rep.eta7, alpha * base.eta7, rtol=1e-12, atol=0.0)
    assert np.allclose(rep.indicator, alpha * base.indicator, rtol=1e-12, atol=0.0)


def test_estimate_deterministic(solved71):
    state = solved71
    args = (state.dofmap, state.problem,
            state.solution, state.density)
    a, b = est.estimate(*args), est.estimate(*args)
    assert a.eta_h == b.eta_h
    assert (a.indicator == b.indicator).all()


def test_patch_maxima_match_per_node_oracle():
    """Patch maxima and diameters equal a per-node evaluation that lists each
    patch's triangles, interior edges and Neumann/contact edges explicitly."""
    problem = prb.rigid_wedge_push()
    res = ad.adapt(problem, ad.AdaptiveParams(levels=4, theta=0.5, n0=4))
    mesh, u, report, trace = res.mesh, res.solution.u, res.report, res.density.trace
    nv, nn = mesh.num_vertices, mesh.num_nodes
    assert len(set(np.bincount(mesh.triangles.ravel()).tolist())) > 3
    assert set(mesh.boundary_tags) == {"D", "N", "C"}

    sig = fem.corner_stress(mesh, problem.material, u)
    S = est._element_residual(mesh, problem, sig)
    end_sig = edge_end_stress(mesh, sig)
    # per-edge values keyed by mesh edge id, from the arrays aligned with
    # all, the Neumann and the contact edge ids
    neu_ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
    con_ids = trace.edge_ids
    J = dict(enumerate(est._interior_jumps(mesh, end_sig)))
    assert all(J[e] == 0.0 for e in mesh.boundary_edge_ids)
    R = dict(zip(neu_ids, est._neumann_residual(mesh, end_sig, problem, neu_ids)))
    Tn, Tt = (dict(zip(con_ids, v)) for v in est._contact_tractions(end_sig, trace))
    pen, gap = (dict(zip(con_ids, v))
                for v in est._consistency_per_edge(mesh, problem, u, trace))
    lam_region = lambda_region(mesh, trace, res.solution.active)
    tag = dict(zip(mesh.boundary_edge_ids, mesh.boundary_tags))

    def sup(vals, ids):
        return max((vals[e] for e in ids), default=0.0)

    eta_p, cons_p, diameter = np.zeros((5, nn)), np.zeros(nn), np.zeros(nn)
    for p in range(nn):
        if p < nv:
            tris = np.flatnonzero((mesh.triangles == p).any(axis=1))
        else:
            tris = np.unique(mesh.edge_tris[p - nv])
        assert np.array_equal(np.flatnonzero((mesh.element_nodes == p).any(axis=1)), tris)
        inner_edges, neumann_edges, contact_edges = [], [], []
        for e in np.unique(mesh.tri_edges[tris]):
            t0, t1 = mesh.edge_tris[e]
            if t0 != t1:
                if t0 in tris and t1 in tris:
                    inner_edges.append(e)
            elif tag[e] == msh.NEUMANN:
                neumann_edges.append(e)
            elif tag[e] == msh.CONTACT:
                contact_edges.append(e)
        lam = [e for e in contact_edges if e in lam_region]
        pts = mesh.vertices[np.unique(mesh.triangles[tris])]
        h = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).max())
        diameter[p] = h
        eta_p[:, p] = (h ** 2 * S[tris].max(), h * sup(J, inner_edges),
                       h * sup(R, neumann_edges), h * sup(Tt, contact_edges),
                       h * sup(Tn, contact_edges))
        cons_p[p] = sup(pen, contact_edges) + sup(gap, lam)

    assert lam_region and (cons_p > 0).any()
    assert np.array_equal(msh.build_patches(mesh), diameter)
    assert np.array_equal(report.eta_p, eta_p)
    assert np.array_equal(report.consistency_p, cons_p)


def test_contact_quantities_match_per_edge_oracle():
    """Hat weights, node-edge incidences, node classes and the consistency
    sups equal a loop that visits one contact edge at a time; a node's class
    comes from the solver's active set."""
    problem = prb.rigid_wedge_push()
    res = ad.adapt(problem, ad.AdaptiveParams(levels=4, theta=0.5, n0=4))
    mesh, u, trace = res.mesh, res.solution.u, res.density.trace
    active = res.solution.active
    chi_p = problem.chi(mesh.node_coords[trace.nodes])
    comp, sgn = 0, 1.0                        # contact on x = 1, n = (1, 0)
    ncon, nc = trace.nodes.size, trace.edge_ids.size

    weight = np.zeros(ncon)
    edges_of = [[] for _ in range(ncon)]
    for k in range(nc):
        h = mesh.edge_lengths[trace.edge_ids[k]]
        for n, w in zip(trace.nodes[trace.edge_pos[k]], (h / 4, h / 2, h / 4)):
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

    edge_active, edge_sup = np.zeros(nc, dtype=bool), np.zeros(nc)
    pen, gap = np.zeros(nc), np.zeros(nc)
    for k in range(nc):
        nodes = trace.nodes[trace.edge_pos[k]]
        un = sgn * u[2 * nodes + comp]
        pos = np.searchsorted(trace.nodes, nodes)
        dev = un - chi_p[pos]
        edge_active[k] = active[pos].all()
        lo, hi = quadratic_range(*dev)
        edge_sup[k] = max(abs(lo), abs(hi))

        pts_nodes = mesh.node_coords[nodes]
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
    for i in range(ncon):
        adj = np.array(edges_of[i])
        if active[i]:
            classes[i] = dens.FULL_CONTACT if edge_active[adj].all() else dens.SEMI_CONTACT
        else:
            classes[i] = dens.NO_CONTACT
        selected[i] = adj[np.argmin(edge_sup[adj])]

    assert set(classes) == {dens.FULL_CONTACT, dens.SEMI_CONTACT, dens.NO_CONTACT}
    assert (node_edges[:, 0] < node_edges[:, 1]).any() and (gap > 0).any()
    assert np.array_equal(trace.weight, weight)
    assert np.array_equal(qd.node_entries(trace) // 3, node_edges)
    got_classes = dens.classify_nodes(active, trace)
    got_selected = qd.selected_entries(u, trace)
    assert np.array_equal(got_classes, classes)
    assert np.array_equal(got_selected // 3, selected)
    assert np.array_equal(trace.edge_pos.ravel()[got_selected], np.arange(ncon))
    got_pen, got_gap = est._consistency_per_edge(mesh, problem, u, trace)
    assert np.array_equal(got_pen, pen)
    assert np.array_equal(got_gap, gap)
