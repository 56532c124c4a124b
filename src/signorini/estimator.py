"""Pointwise residual error estimator for the contact solve.

Patchwise terms, each scaled by the patch diameter h_p:

    eta_1,p = h_p^2 ||f + div sigma(u_h)||_inf  over the patch
    eta_2,p = h_p   ||traction jump||_inf       over patch-interior edges
    eta_3,p = h_p   ||g - sigma(u_h) n||_inf    over patch Neumann edges
    eta_4,p = h_p   ||tangential traction||_inf over patch contact edges
    eta_5,p = h_p   ||normal traction||_inf     over patch contact edges

The patch of node p is the set of triangles whose six P2 nodes include p,
and h_p is its diameter (``mesh.build_patches``).  A Neumann or contact
edge lies on the patch of every node of its one triangle.  An interior edge
lies only on the patches of its own three nodes, its ends and its midpoint,
since two triangles share one edge at most; the jump is taken on every
edge, and is 0 on a boundary edge, whose two sides are its one triangle.
Each patch value is a scatter-maximum of per-triangle or per-edge values
over these incidences.

The total combines the global maxima Psi = eta_1 + ... + eta_5 with the
logarithmic factor l_h = 1 + |log h_min|^2 and two obstacle-consistency
terms: the penetration sup (u_n - chi)^+ over the whole contact boundary
and the gap sup (chi - u_n)^+ over the active-density region: the contact
edges holding a node of the solver's active set, where m_p > 0, giving

    eta_h = C0 (l_h Psi + eta6 + eta7).

Sup norms are taken over sample sets that are exact for the polynomial
degrees involved; on contact edges a closed-form parabola-vertex check
locates the extremum of the quadratic trace against a locally affine
obstacle.  div sigma(u_h) is the gradient of the linear corner stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from . import mesh as msh

# the generic constant of the total estimate eta_h
C0 = 0.45

# sup-norm sample on an edge, s in [0, 1]: 21 equispaced points (the ends
# and the midpoint among them) and the Gauss points, sorted
EDGE_SAMPLE = np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), fem.EDGE_QT]))


@dataclass
class EstimatorReport:
    h_min: float
    l_h: float
    eta: np.ndarray            # global eta_1 .. eta_5
    psi: float
    eta6: float                # penetration sup over the contact boundary
    eta7: float                # gap sup over the edges of active nodes
    eta_h: float
    eta_p: np.ndarray          # (5, n_nodes) patch values
    consistency_p: np.ndarray  # (n_nodes,) local eta6/eta7 contribution
    indicator: np.ndarray      # (nt,) marking indicator


def log_factor(h_min):
    """l_h = 1 + |log h_min|^2 (natural logarithm)."""
    return 1.0 + np.log(h_min) ** 2


def estimate(dofmap, problem, sol, density):
    """Evaluate all estimator contributions for the level solved by ``sol``
    (u and the active set); the contact record is ``density.trace``."""
    mesh, trace, u = dofmap.mesh, density.trace, sol.u
    n, h_p = mesh.num_nodes, msh.build_patches(mesh)
    sig = fem.corner_stress(mesh, problem.material, u)           # (nt, 3, 2, 2)
    S = _element_residual(mesh, problem, sig)
    # sigma(u_h) at both ends of every edge, seen from both sides
    end_sig = sig[mesh.edge_tris[:, :, None], mesh.edge_corners]  # (ne, side, end, 2, 2)

    # each edge term is aligned with its own edge ids
    neu_ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
    con_ids = trace.edge_ids
    J = _interior_jumps(mesh, end_sig)
    R = _neumann_residual(mesh, end_sig, problem, neu_ids)
    Tn, Tt = _contact_tractions(end_sig, trace)
    pen, gap = _consistency_per_edge(mesh, problem, u, trace)

    # positions in con_ids of the contact edges that hold an active node
    hot = np.flatnonzero(sol.active[trace.edge_pos].any(axis=1))

    # a boundary edge lies on the patches of the six nodes of its triangle
    on_neu, on_con = (mesh.element_nodes[mesh.edge_tris[ids, 0]] for ids in (neu_ids, con_ids))
    eta_p = np.stack([
        h_p ** 2 * _patch_max(n, mesh.element_nodes, S),
        h_p * _patch_max(n, mesh.edge_node_triples, J),
        h_p * _patch_max(n, on_neu, R),
        h_p * _patch_max(n, on_con, Tt),
        h_p * _patch_max(n, on_con, Tn),
    ])
    cons_p = _patch_max(n, on_con, pen) + _patch_max(n, on_con[hot], gap[hot])

    neu_node = dofmap.kind == msh.NEUMANN
    glob = np.array([eta_p[0].max(), eta_p[1].max(), eta_p[2, neu_node].max(initial=0.0),
                     eta_p[3, trace.nodes].max(), eta_p[4, trace.nodes].max()])
    psi = float(glob.sum())

    eta6 = float(pen.max())
    eta7 = float(gap[hot].max(initial=0.0))

    h_min = float(mesh.diameters.min())
    l_h = float(log_factor(h_min))
    eta_h = C0 * (l_h * psi + eta6 + eta7)

    node_total = l_h * eta_p.sum(axis=0) + cons_p
    indicator = node_total[mesh.element_nodes].max(axis=1)

    return EstimatorReport(
        h_min=h_min, l_h=l_h, eta=glob, psi=psi, eta6=eta6, eta7=eta7,
        eta_h=eta_h, eta_p=eta_p, consistency_p=cons_p,
        indicator=indicator)


def _patch_max(n, incidence, values):
    """(n,) per node, the max of the nonnegative ``values`` over the rows of
    ``incidence`` (aligned with them) that hold the node, 0 where none does."""
    out = np.zeros(n)
    np.maximum.at(out, incidence, values[:, None])
    return out


# -- per-element and per-edge quantities -----------------------------------------

def _element_residual(mesh, problem, sig):
    """Per triangle: the sup of s(u_h) = f + div sigma(u_h) over the triangle
    sample set; div sigma = sum_r (sig_r - sig_0) grad lambda_r is constant
    for the linear stress with corner values ``sig``."""
    nt = mesh.num_triangles
    div = np.einsum("nrij,nrj->ni", sig[:, 1:] - sig[:, :1], mesh.inv_jac)
    xy = fem.barycentric_to_xy(mesh, fem.TRI_SAMPLE)
    fv = problem.f(xy.reshape(-1, 2)).reshape(nt, fem.TRI_SAMPLE.shape[0], 2)
    return np.abs(fv + div[:, None, :]).max(axis=(1, 2))


def _interior_jumps(mesh, end_sig):
    """Sup of the traction jump per edge, at both ends; exactly 0 on a
    boundary edge, whose two sides are one triangle."""
    normals = mesh.outward_normals(np.arange(len(end_sig)))
    jump = np.einsum("keij,kj->kei", end_sig[:, 0] - end_sig[:, 1], normals)
    return np.abs(jump).max(axis=(1, 2))


def _neumann_residual(mesh, end_sig, problem, ids):
    """Sup of |g - sigma(u_h) n| per Neumann edge ``ids``; the traction
    sigma n with the outward normal n is linear along the edge."""
    tau = np.einsum("keij,kj->kei", end_sig[ids, 0], mesh.outward_normals(ids))  # (k, 2, 2)
    pts = mesh.edge_points(ids, EDGE_SAMPLE)
    gv = problem.g(pts.reshape(-1, 2)).reshape(pts.shape)
    s = EDGE_SAMPLE[:, None]
    tau_s = tau[:, :1] * (1 - s) + tau[:, 1:] * s
    return np.abs(gv - tau_s).max(axis=(1, 2))


def _contact_tractions(end_sig, trace):
    """Per contact edge of ``trace``: sups of the normal and tangential
    traction components in the record's normal frame n = sign * e_comp, which
    are |sigma[comp, comp]| and |sigma[1 - comp, comp]| (the traction is
    linear along the edge, so its endpoints suffice)."""
    c = trace.comp
    ends = end_sig[trace.edge_ids, 0]                                        # (k, 2, 2, 2)
    return np.abs(ends[..., c, c]).max(axis=1), np.abs(ends[..., 1 - c, c]).max(axis=1)


def _consistency_per_edge(mesh, problem, u, trace):
    """Penetration and gap sups per contact edge of ``trace``.

    The trace of u_n is quadratic along the edge; the obstacle is sampled
    densely and the vertex of the parabola (u_n minus the locally affine
    interpolant of the record's nodal gap) is added as a candidate extremum
    per half-edge.  A candidate outside its half-edge is replaced by s = 0,
    already a sample.
    """
    un = trace.normal_part(u)[trace.edge_pos]
    A, B = fem.trace_coefficients(un[:, 0], un[:, 1], un[:, 2])  # u_n(s) = (A s + B) s + C
    chi_nodes = trace.gap[trace.edge_pos]
    slope = 2.0 * np.diff(chi_nodes, axis=1)                     # per half-edge
    s_star = (slope - B[:, None]) / np.where(A != 0.0, 2.0 * A, 1.0)[:, None]
    lo = np.array([0.0, 0.5])
    applies = (A != 0.0)[:, None] & (lo < s_star) & (s_star < lo + 0.5)
    s = np.hstack([np.broadcast_to(EDGE_SAMPLE, (A.size, EDGE_SAMPLE.size)),
                   np.where(applies, s_star, 0.0)])
    pts = mesh.edge_points(trace.edge_ids, s)
    un_s = (A[:, None] * s + B[:, None]) * s + un[:, :1]
    diff = un_s - problem.chi(pts.reshape(-1, 2)).reshape(s.shape)
    return np.maximum(diff.max(axis=1), 0.0) + 0.0, np.maximum((-diff).max(axis=1), 0.0) + 0.0
