"""Pointwise residual error estimator for the contact solve.

Patchwise terms, each scaled by the patch diameter h_p:

    eta_1,p = h_p^2 ||f + div sigma(u_h)||_inf  over the patch
    eta_2,p = h_p   ||traction jump||_inf       over patch-interior edges
    eta_3,p = h_p   ||g - sigma(u_h) n||_inf    over patch Neumann edges
    eta_4,p = h_p   ||tangential traction||_inf over patch contact edges
    eta_5,p = h_p   ||normal traction||_inf     over patch contact edges

The total combines the global maxima Psi = eta_1 + ... + eta_5 with the
logarithmic factor l_h = 1 + |log h_min|^2 and two obstacle-consistency
terms: the penetration sup (u_n - chi)^+ over the whole contact boundary
and the gap sup (chi - u_n)^+ over the active-density region, giving

    eta_h = C0 (l_h Psi + eta6 + eta7).

Sup norms are taken over sample sets that are exact for the polynomial
degrees involved; on contact edges a closed-form parabola-vertex check
locates the extremum of the quadratic trace against a locally affine
obstacle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from . import mesh as msh

# vertices, edge midpoints, then the interior quadrature points
TRI_SAMPLE = np.vstack([
    np.eye(3),
    np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
    fem.TRI_QP,
])
EDGE_SAMPLE = np.unique(np.concatenate([
    np.array([0.0, 0.5, 1.0]), fem.EDGE_QT, np.linspace(0.0, 1.0, 21),
]))


@dataclass
class EstimatorReport:
    h_min: float
    l_h: float
    eta: np.ndarray            # global eta_1 .. eta_5
    psi: float
    eta6: float                # penetration sup over the contact boundary
    eta7: float                # gap sup over the active-density region
    eta_h: float
    c0: float
    eta_p: np.ndarray          # (5, n_nodes) patch values
    consistency_p: np.ndarray  # (n_nodes,) local eta6/eta7 contribution
    indicator: np.ndarray      # (nt,) marking indicator
    lambda_edges: np.ndarray   # mesh edge ids of the active-density region
    osc_f: float
    osc_g: float
    osc_f_p: np.ndarray
    osc_g_p: np.ndarray


def log_factor(h_min):
    """l_h = 1 + |log h_min|^2 (natural logarithm)."""
    return 1.0 + np.log(h_min) ** 2


def total_estimate(psi, eta6, eta7, h_min, c0):
    """eta_h = C0 (l_h Psi + eta6 + eta7)."""
    return c0 * (log_factor(h_min) * psi + eta6 + eta7)


def _abs_max(arr, axis=None):
    return np.abs(arr).max(axis=axis) if arr.size else 0.0


def estimate(mesh, dofmap, patches, material, problem, u, trace, density=None,
             c0=0.45):
    """Evaluate all estimator contributions for one solved level."""
    h_p = patches.diameter
    S, OscF = _element_residual(mesh, material, problem, u)
    sig = fem.corner_stress(mesh, material, u)                   # (nt, 3, 2, 2)

    J = _interior_jumps(mesh, sig)                               # (ne,), nan off interior
    R, OscG = _neumann_residual(mesh, sig, problem)              # (ne,), nan off Neumann
    Tn, Tt = _contact_tractions(mesh, sig, problem)              # (ne,), nan off contact
    pen_e, gap_e = _consistency_per_edge(mesh, dofmap, problem, u, trace)

    # active-density region: contact edges of nodes with positive lumped density
    if density is not None:
        m = density.normal * trace.weight
        tol_active = 1e-12 * max(1.0, _abs_max(m))
        hot = np.flatnonzero(m > tol_active)
        lambda_edges = trace.edge_ids[np.unique(trace.node_edges[hot])]
    else:
        lambda_edges = np.array([], dtype=np.int64)

    inner = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    neu_ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
    con_ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.CONTACT]
    eta_p = np.stack([
        h_p ** 2 * patches.tri_max(S),
        h_p * patches.edge_max(J, inner),
        h_p * patches.edge_max(R, neu_ids),
        h_p * patches.edge_max(Tt, con_ids),
        h_p * patches.edge_max(Tn, con_ids),
    ])
    cons_p = patches.edge_max(pen_e, con_ids) + patches.edge_max(gap_e, lambda_edges)

    neu_node, con_node = dofmap.kind == msh.NEUMANN, dofmap.kind == msh.CONTACT
    glob = np.array([eta_p[0].max(), eta_p[1].max(), _abs_max(eta_p[2, neu_node]),
                     _abs_max(eta_p[3, con_node]), _abs_max(eta_p[4, con_node])])
    psi = float(glob.sum())

    eta6 = float(pen_e[con_ids].max()) if con_ids.size else 0.0
    eta7 = float(gap_e[lambda_edges].max()) if lambda_edges.size else 0.0

    h_min = float(mesh.diameters.min())
    l_h = float(log_factor(h_min))
    eta_h = float(total_estimate(psi, eta6, eta7, h_min, c0))

    node_total = l_h * eta_p.sum(axis=0) + cons_p
    indicator = node_total[mesh.element_nodes].max(axis=1)

    # data oscillations (diagnostic only)
    osc_f_p = h_p ** 2 * patches.tri_max(OscF)
    osc_g_p = h_p * patches.edge_max(OscG, neu_ids)

    return EstimatorReport(
        h_min=h_min, l_h=l_h, eta=glob, psi=psi, eta6=eta6, eta7=eta7,
        eta_h=eta_h, c0=c0, eta_p=eta_p, consistency_p=cons_p,
        indicator=indicator, lambda_edges=lambda_edges,
        osc_f=float(osc_f_p.max()), osc_g=float(osc_g_p.max()),
        osc_f_p=osc_f_p, osc_g_p=osc_g_p)


# -- per-element and per-edge quantities -----------------------------------------

def _element_residual(mesh, material, problem, u):
    """Per triangle: the sup of s(u_h) = f + div sigma(u_h) over the triangle
    sample set, and the sup of f minus its element average."""
    nt = mesh.num_triangles
    div = fem.divergence_stress(mesh, material, u)
    xy = fem.barycentric_to_xy(mesh, TRI_SAMPLE)
    if problem.f is not None:
        fv = problem.f(xy.reshape(-1, 2)).reshape(nt, TRI_SAMPLE.shape[0], 2)
    else:
        fv = np.zeros((nt, TRI_SAMPLE.shape[0], 2))
    S = np.abs(fv + div[:, None, :]).max(axis=(1, 2))
    f_mean = np.einsum("q,tqc->tc", fem.TRI_QW, fv[:, -fem.TRI_QP.shape[0]:, :])
    return S, np.abs(fv - f_mean[:, None, :]).max(axis=(1, 2))


def _locate(mesh, tris, vert):
    """Local corner index of each vertex id within its triangle."""
    return np.argmax(mesh.triangles[tris] == vert[:, None], axis=1)


def _unit_normals(mesh, ids):
    """(k, 2) unit normals of the given edges, the edge tangent (second vertex
    minus first) turned clockwise."""
    tang = mesh.vertices[mesh.edges[ids, 1]] - mesh.vertices[mesh.edges[ids, 0]]
    n = np.column_stack([tang[:, 1], -tang[:, 0]])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return n


def _interior_jumps(mesh, sig):
    """Sup of the traction jump per interior edge (nan on boundary edges)."""
    ne = mesh.edges.shape[0]
    J = np.full(ne, np.nan)
    inner = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    if inner.size == 0:
        return J
    t0, t1 = mesh.edge_tris[inner, 0], mesh.edge_tris[inner, 1]
    a, b = mesh.edges[inner, 0], mesh.edges[inner, 1]
    n = _unit_normals(mesh, inner)
    vals = []
    for vert in (a, b):
        s0 = sig[t0, _locate(mesh, t0, vert)]
        s1 = sig[t1, _locate(mesh, t1, vert)]
        vals.append(np.einsum("eij,ej->ei", s0 - s1, n))
    jump = np.abs(np.stack(vals)).max(axis=(0, 2))
    J[inner] = jump
    return J


def _boundary_tractions(mesh, sig, ids):
    """Linear traction profile on tagged boundary edges: endpoint values.

    Returns the outward normals (k, 2), the tractions at both endpoints
    (k, 2 ends, 2 comps) and the endpoint coordinates (k, 2) each.
    """
    t = mesh.edge_tris[ids, 0]
    a, b = mesh.edges[ids, 0], mesh.edges[ids, 1]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    n = _unit_normals(mesh, ids)
    la, lb = _locate(mesh, t, a), _locate(mesh, t, b)
    opp = mesh.triangles[t, (3 - la - lb)]
    flip = np.einsum("ej,ej->e", n, mesh.vertices[opp] - pa) > 0
    n[flip] *= -1.0
    tau = np.stack([
        np.einsum("eij,ej->ei", sig[t, la], n),
        np.einsum("eij,ej->ei", sig[t, lb], n),
    ], axis=1)
    return n, tau, pa, pb


def _neumann_residual(mesh, sig, problem):
    ne = mesh.edges.shape[0]
    R = np.full(ne, np.nan)
    Osc = np.full(ne, np.nan)
    ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
    if ids.size == 0:
        return R, Osc
    _, tau, pa, pb = _boundary_tractions(mesh, sig, ids)
    s = EDGE_SAMPLE
    pts = pa[:, None, :] * (1 - s)[None, :, None] + pb[:, None, :] * s[None, :, None]
    if problem.g is not None:
        gv = problem.g(pts.reshape(-1, 2)).reshape(ids.size, s.size, 2)
    else:
        gv = np.zeros((ids.size, s.size, 2))
    tau_s = tau[:, 0, None, :] * (1 - s)[None, :, None] + tau[:, 1, None, :] * s[None, :, None]
    R[ids] = np.abs(gv - tau_s).max(axis=(1, 2))
    qpts = pa[:, None, :] * (1 - fem.EDGE_QT)[None, :, None] \
        + pb[:, None, :] * fem.EDGE_QT[None, :, None]
    if problem.g is not None:
        gq = problem.g(qpts.reshape(-1, 2)).reshape(ids.size, fem.EDGE_QT.size, 2)
    else:
        gq = np.zeros((ids.size, fem.EDGE_QT.size, 2))
    g_mean = np.einsum("q,eqc->ec", fem.EDGE_QW, gq)
    Osc[ids] = np.abs(gv - g_mean[:, None, :]).max(axis=(1, 2))
    return R, Osc


def _contact_tractions(mesh, sig, problem):
    """Per contact edge: sup of normal and tangential traction components."""
    ne = mesh.edges.shape[0]
    Tn = np.full(ne, np.nan)
    Tt = np.full(ne, np.nan)
    ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.CONTACT]
    if ids.size == 0:
        return Tn, Tt
    _, tau, _, _ = _boundary_tractions(mesh, sig, ids)
    nf = np.zeros(2)
    nf[problem.normal_comp] = problem.normal_sign
    tf = np.array([-nf[1], nf[0]])
    tau_n = tau @ nf
    tau_t = tau @ tf
    Tn[ids] = np.abs(tau_n).max(axis=1)     # traction linear: endpoints suffice
    Tt[ids] = np.abs(tau_t).max(axis=1)
    return Tn, Tt


def _consistency_per_edge(mesh, dofmap, problem, u, trace):
    """Penetration and gap sups per contact edge.

    The trace of u_n is quadratic along the edge; the obstacle is sampled
    densely and the vertex of the parabola (u_n minus the locally affine
    obstacle interpolant) is added as a candidate extremum per half-edge.
    A candidate outside its half-edge is replaced by s = 0, already a sample.
    """
    ne = mesh.edges.shape[0]
    pen = np.full(ne, np.nan)
    gapv = np.full(ne, np.nan)
    nodes = trace.edge_nodes
    un = problem.normal_sign * u[2 * nodes + problem.normal_comp]
    pts_nodes = dofmap.coords[nodes]                             # (nc, 3, 2)
    A, B = fem.trace_coefficients(un[:, 0], un[:, 1], un[:, 2])  # u_n(s) = (A s + B) s + C
    chi_nodes = problem.chi(pts_nodes.reshape(-1, 2)).reshape(nodes.shape)
    slope = 2.0 * np.diff(chi_nodes, axis=1)                     # per half-edge
    s_star = (slope - B[:, None]) / np.where(A != 0.0, 2.0 * A, 1.0)[:, None]
    lo = np.array([0.0, 0.5])
    applies = (A != 0.0)[:, None] & (lo < s_star) & (s_star < lo + 0.5)
    s = np.hstack([np.broadcast_to(EDGE_SAMPLE, (A.size, EDGE_SAMPLE.size)),
                   np.where(applies, s_star, 0.0)])
    p0, p1 = pts_nodes[:, None, 0], pts_nodes[:, None, 2]
    pts = p0 * (1 - s)[:, :, None] + p1 * s[:, :, None]
    un_s = (A[:, None] * s + B[:, None]) * s + un[:, :1]
    diff = un_s - problem.chi(pts.reshape(-1, 2)).reshape(s.shape)
    pen[trace.edge_ids] = np.maximum(diff.max(axis=1), 0.0) + 0.0
    gapv[trace.edge_ids] = np.maximum((-diff).max(axis=1), 0.0) + 0.0
    return pen, gapv
