"""The quasi-density: the oracle behind the tests of the density's sign.

The package computes the nodal contact force density lambda_n(p) and its
lumped pairing with nodal values.  The quasi-density extends that pairing to
arbitrary fields through the node averages e_p, all computed at once by
``node_averages`` from the fixed tables W[a, q] = w_q phi_a(x_q) on a
triangle and H[j, q] (hats psi_j times weights) on a contact edge; v_T and
v_k are the values of v at their quadrature points:

    e_p(v) = sum_T |T| (W v_T)[a_T] / sum_T |T| (W 1)[a_T]   (p is node a_T of T)
    e_p(v) = (H v_k)[j] at a contact node p, node j of its edge k; 0 if Dirichlet
    <quasi-density, v> = sum_p lambda_n(p) e_p(v_n) weight(p)  >= 0 if v_n >= 0

A contact node averages over the adjacent contact edge on which
|u_n - gap| is smallest in the sup norm (``selected_entries``).
"""

import numpy as np

import signorini.fem as fem
import signorini.mesh as msh

# W[a, q] = w_q phi_a(x_q) on one triangle: the linear hat at a vertex (its
# P2 basis has zero element mean), the P2 basis at a midpoint
_VOLUME_W = fem.TRI_QW * np.vstack([fem.TRI_QP.T, fem.shape_values(fem.TRI_QP).T[3:]])
# H[j, q]: hat psi_j of (vertex, midpoint, vertex) on a contact edge times the
# weight of 3-point Gauss per half-edge at s_q, normalised per hat
_HALF_EDGE_S = np.r_[0.5 * fem.EDGE_QT, 0.5 + 0.5 * fem.EDGE_QT]
_HAT_W = np.clip([1 - 2 * _HALF_EDGE_S, 1 - np.abs(2 * _HALF_EDGE_S - 1),
                  2 * _HALF_EDGE_S - 1], 0.0, None) * np.tile(fem.EDGE_QW, 2)
_HAT_W /= _HAT_W.sum(axis=1, keepdims=True)


def quadratic_range(values):
    """(min, max) over [0, 1] of the quadratics with nodal values
    (v0, vmid, v1) along the last axis of ``values``."""
    v0, vm, v1 = np.moveaxis(np.asarray(values, dtype=float), -1, 0)
    a, b = fem.trace_coefficients(v0, vm, v1)
    s = -b / np.where(a != 0.0, 2 * a, 1.0)
    inside = (a != 0.0) & (0.0 < s) & (s < 1.0)
    # an extremum outside (0, 1) is replaced by the value at s = 0
    peak = np.where(inside, (a * s + b) * s + v0, v0)
    return np.minimum(np.minimum(v0, v1), peak), np.maximum(np.maximum(v0, v1), peak)


def node_entries(trace):
    """(ncon, 2) flat entries 3k + j of ``trace.edge_pos`` holding each
    contact node (contact edge k, slot j), edges ascending; a node on one
    edge repeats its entry."""
    pos = trace.edge_pos.ravel()
    order = np.argsort(pos, kind="stable")
    count = np.bincount(pos, minlength=trace.size)
    last = np.cumsum(count) - 1
    return np.column_stack([order[last - count + 1], order[last]])


def selected_entries(u, trace):
    """Averaging edge per contact node, as the node's entry 3k + j in
    ``trace.edge_pos``: the adjacent contact edge on which |u_n - gap| is
    smallest in the sup norm, ties to the lower edge index."""
    dev = (trace.sign * u[trace.dofs] - trace.gap)[trace.edge_pos]
    lo, hi = quadratic_range(dev)
    edge_gap_sup = np.maximum(np.abs(lo), np.abs(hi))
    entries = node_entries(trace)
    pick = np.argmin(edge_gap_sup[entries // 3], axis=1)
    return np.take_along_axis(entries, pick[:, None], axis=1)[:, 0]


def _contact_averages(mesh, trace, v, entry):
    """psi_p average of scalar field ``v`` for each contact node p over the
    contact edge of its ``entry`` (flat entries of trace.edge_pos)."""
    pts = mesh.edge_points(trace.edge_ids, _HALF_EDGE_S)
    vals = np.asarray(v(pts.reshape(-1, 2)), dtype=float)
    avg = vals.reshape(-1, _HALF_EDGE_S.size) @ _HAT_W.T
    return avg.ravel()[entry]


def node_averages(dofmap, trace, v, selected_entry=None):
    """e_p of scalar field ``v`` at every node; a contact node averages over
    the edge of ``selected_entry``, default node_entries(trace)[:, 0]."""
    mesh = dofmap.mesh
    pts = fem.barycentric_to_xy(mesh, fem.TRI_QP).reshape(-1, 2)
    vals = np.asarray(v(pts), dtype=float).reshape(mesh.num_triangles, -1)
    nodes = mesh.element_nodes.ravel()
    num = np.bincount(nodes, (mesh.areas[:, None] * (vals @ _VOLUME_W.T)).ravel())
    den = np.bincount(nodes, np.outer(mesh.areas, _VOLUME_W.sum(axis=1)).ravel())
    e = num / den
    entry = node_entries(trace)[:, 0] if selected_entry is None else selected_entry
    e[trace.nodes] = _contact_averages(mesh, trace, v, entry)
    e[dofmap.kind == msh.DIRICHLET] = 0.0
    return e


def apply_quasi_density(mesh, density, u, v):
    """<quasi-density, v> = sum_p lambda_n(p) e_p(v_n) weight(p) for the
    density of the solution ``u``.

    ``v`` maps points to vectors; only the contact-normal component enters,
    so the result is nonnegative whenever v_n >= 0 on the contact boundary.
    """
    trace = density.trace

    def v_n(pts):
        return trace.sign * np.asarray(v(pts), dtype=float)[:, trace.comp]

    e = _contact_averages(mesh, trace, v_n, selected_entries(u, trace))
    return float(np.sum(density.normal * e * trace.weight))
