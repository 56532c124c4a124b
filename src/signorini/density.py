"""Discrete contact force density on the split contact trace mesh.

The contact boundary is viewed as a piecewise-linear trace mesh whose cells
are the half-edges [vertex, midpoint] and [midpoint, vertex] of every contact
edge.  Hat functions psi_p on that split mesh define the lumped pairing

    <w, v>_h = sum_p w(p) . v(p) * weight(p),   weight(p) = int psi_p ds,

and the nodal density is the discrete residual divided by the hat weight:
lambda_n(p) = m_p / weight(p) in the contact-normal direction (nonnegative at
a converged solve) and lambda_t(p) in the tangential direction (zero).  The
quasi-density extends this to arbitrary fields through weighted node averages
e_p and stays nonnegative on fields with nonnegative normal component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as msh
from . import fem

FULL_CONTACT = "full"
SEMI_CONTACT = "semi"
NO_CONTACT = "none"

# hat weight of (vertex, midpoint, vertex) per unit length of a contact edge
_HAT_SHARE = np.array([0.25, 0.5, 0.25])


@dataclass(frozen=True)
class ContactTraceMesh:
    """Connectivity and hat weights of the split contact boundary mesh.

    edge_ids    (nc,) mesh edge ids of the contact edges, ascending
    edge_nodes  (nc, 3) node ids (vertex, midpoint, vertex) per contact edge
    lengths     (nc,) edge lengths
    nodes       (ncon,) sorted contact node ids
    weight      (ncon,) hat weight per contact node, aligned with ``nodes``
    node_edges  (ncon, 2) indices into edge_ids of the contact edges holding
                each node, ascending; a node on one edge repeats it
    """

    edge_ids: np.ndarray
    edge_nodes: np.ndarray
    lengths: np.ndarray
    nodes: np.ndarray
    weight: np.ndarray
    node_edges: np.ndarray

    def index_of(self, node):
        i = np.searchsorted(self.nodes, node)
        if i == self.nodes.size or self.nodes[i] != node:
            raise KeyError(f"node {node} is not a contact node")
        return i

    @property
    def total_length(self):
        return float(self.lengths.sum())


def build_trace_mesh(mesh):
    """Split contact-edge mesh with closed-form hat weights.

    A midpoint hat spans the two half-edges of its edge (weight h/2); a
    vertex hat spans one half-edge per adjacent contact edge (weight h/4
    each), so h/4 marks the ends of each contact chain.  The contact
    boundary may have several components; an empty one is an error, and so
    is a vertex on more than two contact edges.
    """
    nv = mesh.num_vertices
    con = mesh.boundary_tags == msh.CONTACT
    edge_ids = mesh.boundary_edge_ids[con]
    if edge_ids.size == 0:
        raise ValueError("mesh has no contact boundary")
    edge_ids = np.sort(edge_ids)
    ev = mesh.edges[edge_ids]
    lengths = mesh.edge_length(edge_ids)
    edge_nodes = np.column_stack([ev[:, 0], nv + edge_ids, ev[:, 1]])

    nodes, inv = np.unique(edge_nodes.ravel(), return_inverse=True)
    weight = np.zeros(nodes.size)
    np.add.at(weight, inv, (lengths[:, None] * _HAT_SHARE).ravel())
    # entries grouped by node, edges ascending within a group
    order = np.argsort(inv, kind="stable")
    count = np.bincount(inv)
    if count.max() > 2:
        raise ValueError("a contact vertex lies on more than two contact edges")
    last = np.cumsum(count) - 1
    node_edges = np.column_stack([order[last - count + 1], order[last]]) // 3
    return ContactTraceMesh(edge_ids, edge_nodes, lengths, nodes, weight, node_edges)


@dataclass(frozen=True)
class DensityField:
    """Nodal contact force density in the (normal, tangential) frame."""

    trace: ContactTraceMesh
    comp: int                # constrained component of the contact normal
    sign: float              # sign of the normal along that component
    normal: np.ndarray       # lambda in the constrained direction, >= 0
    tangential: np.ndarray   # lambda in the tangential direction, ~ 0
    classes: np.ndarray      # full / semi / none per contact node
    selected_edge: np.ndarray  # index into trace.edge_ids of the averaging edge


def compute_density(residual, u, trace, constraints):
    """Nodal density lambda(p) = r(p) / weight(p) in the contact frame, from
    the algebraic residual r = F - K u of the solution u."""
    if np.any(trace.weight <= 0):
        raise ValueError("nonpositive hat weight on the contact trace mesh")
    normal = constraints.sign * residual[trace.nodes * 2 + constraints.comp] / trace.weight
    tangential = residual[trace.nodes * 2 + (1 - constraints.comp)] / trace.weight
    classes, selected = classify_nodes(u, trace, constraints)
    return DensityField(trace, constraints.comp, constraints.sign,
                        normal, tangential, classes, selected)


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


def classify_nodes(u, trace, constraints, tol=None):
    """Full/semi/no-contact split plus the averaging edge per node.

    A contact edge is fully active when the quadratic traces of u_n and of
    the interpolated gap coincide, i.e. the three nodal values agree within
    ``tol``.  The averaging edge is the adjacent contact edge on which
    |u_n - gap| is smallest in the sup norm, ties to the lower edge index.
    """
    if tol is None:
        gmax = np.abs(constraints.gap[np.isfinite(constraints.gap)])
        tol = 1e-9 * (1.0 + (gmax.max() if gmax.size else 0.0))
    gap = constraints.gap[np.searchsorted(constraints.nodes, trace.edge_nodes)]
    dev = constraints.sign * u[2 * trace.edge_nodes + constraints.comp] - gap
    edge_active = np.all(np.abs(dev) <= tol, axis=1)
    lo, hi = quadratic_range(dev)
    edge_gap_sup = np.maximum(np.abs(lo), np.abs(hi))

    pos = np.searchsorted(constraints.nodes, trace.nodes)
    touching = np.abs(constraints.sign * u[2 * trace.nodes + constraints.comp]
                      - constraints.gap[pos]) <= tol
    full = edge_active[trace.node_edges].all(axis=1)
    classes = np.where(touching, np.where(full, FULL_CONTACT, SEMI_CONTACT), NO_CONTACT)
    pick = np.argmin(edge_gap_sup[trace.node_edges], axis=1)
    return classes, np.take_along_axis(trace.node_edges, pick[:, None], axis=1)[:, 0]


# -- weighted node averages ---------------------------------------------------

def _hat_on_edge(local, s):
    """psi_p along one contact edge for p = vertex0/midpoint/vertex1 (local 0/1/2).

    The hat lives on the split mesh: linear on [0, 1/2] and on [1/2, 1].
    """
    s = np.asarray(s, dtype=float)
    if local == 0:
        return np.clip(1.0 - 2.0 * s, 0.0, None)
    if local == 2:
        return np.clip(2.0 * s - 1.0, 0.0, None)
    return np.where(s <= 0.5, 2.0 * s, 2.0 * (1.0 - s))


def boundary_average(mesh, trace, k, local, v):
    """psi_p-weighted average of scalar field ``v`` over contact edge k.

    Exact for the polynomial degrees in play: 3-point Gauss per half-edge.
    """
    a, b = mesh.edges[trace.edge_ids[k]]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    num = 0.0
    den = 0.0
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        s = lo + (hi - lo) * fem.EDGE_QT
        pts = pa[None, :] * (1 - s)[:, None] + pb[None, :] * s[:, None]
        w = fem.EDGE_QW * (hi - lo) * trace.lengths[k]
        hats = _hat_on_edge(local, s)
        num += float(np.sum(w * hats * np.asarray(v(pts), dtype=float)))
        den += float(np.sum(w * hats))
    return num / den


def volume_average(mesh, patches, p, v):
    """Nonnegative-weight average of ``v`` over the patch of node p.

    Midpoint nodes use their own quadratic basis (nonnegative on the patch).
    The quadratic vertex basis has zero element mean, so vertex nodes use the
    linear hat instead, which shares its support and sign.
    """
    tris = patches.tris(p)
    pts = fem.barycentric_to_xy(mesh, fem.TRI_QP)[tris]          # (k, 6, 2)
    areas = mesh.areas[tris]
    if p < mesh.num_vertices:
        local = np.array([int(np.flatnonzero(mesh.triangles[t] == p)[0]) for t in tris])
        weights = fem.TRI_QP[:, local].T                          # hat = barycentric coord
    else:
        e = p - mesh.num_vertices
        local = np.array([int(np.flatnonzero(mesh.tri_edges[t] == e)[0]) for t in tris])
        weights = fem.shape_values(fem.TRI_QP)[:, 3 + local].T
    vv = np.asarray(v(pts.reshape(-1, 2)), dtype=float).reshape(len(tris), 6)
    num = float(np.einsum("k,q,kq,kq->", areas, fem.TRI_QW, weights, vv))
    den = float(np.einsum("k,q,kq->", areas, fem.TRI_QW, weights))
    return num / den


def node_average(mesh, dofmap, patches, trace, p, v, selected_edge=None):
    """The e_p average of a scalar field: zero on Dirichlet nodes, a
    boundary hat average on contact nodes, a volume average elsewhere."""
    kind = dofmap.kind[p]
    if kind == msh.DIRICHLET:
        return 0.0
    if kind == msh.CONTACT and trace is not None:
        i = trace.index_of(p)
        k = trace.node_edges[i][0] if selected_edge is None else selected_edge
        local = int(np.flatnonzero(trace.edge_nodes[k] == p)[0])
        return boundary_average(mesh, trace, k, local, v)
    return volume_average(mesh, patches, p, v)


def apply_quasi_density(mesh, density, v):
    """<quasi-density, v> = sum_p lambda_n(p) e_p(v_n) weight(p).

    ``v`` maps points to vectors; only the contact-normal component enters,
    so the result is nonnegative whenever v_n >= 0 on the contact boundary.
    """
    trace = density.trace

    def v_n(pts):
        return density.sign * np.asarray(v(pts), dtype=float)[:, density.comp]

    total = 0.0
    for i, p in enumerate(trace.nodes):
        if density.normal[i] == 0.0:
            continue
        k = density.selected_edge[i]
        local = int(np.flatnonzero(trace.edge_nodes[k] == p)[0])
        total += density.normal[i] * boundary_average(mesh, trace, k, local, v_n) * trace.weight[i]
    return total


def write_density_csv(path, mesh, dofmap, density):
    """Dump rows (node id, x, y, class, lambda_n, lambda_t, weight)."""
    trace = density.trace
    with open(path, "w") as out:
        out.write("node,x,y,class,lambda_n,lambda_t,weight\n")
        for i, p in enumerate(trace.nodes):
            x, y = dofmap.coords[p]
            out.write(f"{p},{x:.17g},{y:.17g},{density.classes[i]},"
                      f"{density.normal[i]:.17g},{density.tangential[i]:.17g},"
                      f"{trace.weight[i]:.17g}\n")
