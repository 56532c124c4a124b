"""Discrete contact force density on the split contact trace mesh.

The contact boundary is viewed as a piecewise-linear trace mesh whose cells
are the half-edges [vertex, midpoint] and [midpoint, vertex] of every contact
edge.  ``build_trace_mesh`` makes the level's one contact record from it: the
contact nodes, their hat weights and edge incidences, the normal frame and the
nodal gap chi(p).  The frame comes from the mesh: the contact edges' common
outward normal must be an axis direction n = sign * e_comp.  The active-set
solver, the density, the node classes and the estimator all read this record.
Hat functions psi_p on the split mesh define the lumped pairing

    <w, v>_h = sum_p w(p) . v(p) * weight(p),   weight(p) = int psi_p ds,

and the nodal density is the discrete residual divided by the hat weight:
lambda_n(p) = m_p / weight(p) in the contact-normal direction (nonnegative at
a converged solve) and lambda_t(p) in the tangential direction (zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as msh

FULL_CONTACT = "full"
SEMI_CONTACT = "semi"
NO_CONTACT = "none"

# hat weight of (vertex, midpoint, vertex) per unit length of a contact edge
_HAT_SHARE = np.array([0.25, 0.5, 0.25])


@dataclass(frozen=True)
class ContactTraceMesh:
    """The contact record of one mesh: split trace mesh, normal frame, gap.

    edge_ids    (nc,) mesh edge ids of the contact edges, ascending
    edge_nodes  (nc, 3) node ids (vertex, midpoint, vertex) per contact edge
    edge_pos    (nc, 3) position in ``nodes`` of each entry of edge_nodes
    nodes       (ncon,) sorted contact node ids
    weight      (ncon,) hat weight per contact node, aligned with ``nodes``
    node_entries (ncon, 2) flat entries 3k + j of edge_nodes holding each
                node (contact edge k, slot j), edges ascending; a node on one
                edge repeats its entry
    comp, sign  contact normal n = sign * e_comp, so u_n = sign * u[2p + comp]
    gap         (ncon,) gap chi(p) per contact node; the constraint is
                u_n(p) <= gap(p)
    """

    edge_ids: np.ndarray
    edge_nodes: np.ndarray
    edge_pos: np.ndarray
    nodes: np.ndarray
    weight: np.ndarray
    node_entries: np.ndarray
    comp: int
    sign: float
    gap: np.ndarray

    @property
    def node_edges(self):
        """(ncon, 2) indices into edge_ids of the contact edges holding each
        node, ascending; a node on one edge repeats it."""
        return self.node_entries // 3

    @property
    def dofs(self):
        """Normal dof 2p + comp per contact node."""
        return 2 * self.nodes + self.comp

    @property
    def tangential_dofs(self):
        return 2 * self.nodes + (1 - self.comp)

    @property
    def size(self):
        return self.nodes.size


def build_trace_mesh(dofmap, problem):
    """Contact record of ``dofmap``'s mesh for ``problem``.

    The split contact-edge mesh has closed-form hat weights: a midpoint hat
    spans the two half-edges of its edge (weight h/2); a vertex hat spans
    one half-edge per adjacent contact edge (weight h/4 each), so h/4 marks
    the ends of each contact chain.  The contact boundary may have several
    components; an empty one is an error, and so are a vertex on more than
    two contact edges and contact edges whose outward normals are not one
    axis direction.  The gap is ``problem.chi`` at the contact nodes.
    """
    mesh = dofmap.mesh
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
    weight = np.bincount(inv, (lengths[:, None] * _HAT_SHARE).ravel())
    # entries grouped by node, edges ascending within a group
    order = np.argsort(inv, kind="stable")
    count = np.bincount(inv)
    if count.max() > 2:
        raise ValueError("a contact vertex lies on more than two contact edges")
    last = np.cumsum(count) - 1
    node_entries = np.column_stack([order[last - count + 1], order[last]])
    normals = np.unique(mesh.outward_normals(edge_ids).round(12) + 0.0, axis=0)
    if len(normals) > 1 or np.count_nonzero(normals[0]) != 1:
        raise ValueError("the contact boundary must face one axis direction; "
                         f"its outward normals are {normals.tolist()}")
    comp = int(np.flatnonzero(normals[0])[0])
    gap = problem.chi(dofmap.coords[nodes])
    return ContactTraceMesh(edge_ids, edge_nodes, inv.reshape(edge_nodes.shape),
                            nodes, weight, node_entries, comp, float(normals[0, comp]), gap)


@dataclass(frozen=True)
class DensityField:
    """Nodal contact force density in the (normal, tangential) frame."""

    trace: ContactTraceMesh
    normal: np.ndarray       # lambda in the constrained direction, >= 0
    tangential: np.ndarray   # lambda in the tangential direction, ~ 0
    classes: np.ndarray      # full / semi / none per contact node


def compute_density(residual, u, trace):
    """Nodal density lambda(p) = r(p) / weight(p) in the contact frame, from
    the algebraic residual r = F - K u of the solution u."""
    normal = trace.sign * residual[trace.dofs] / trace.weight
    tangential = residual[trace.tangential_dofs] / trace.weight
    return DensityField(trace, normal, tangential, classify_nodes(u, trace))


def classify_nodes(u, trace):
    """Full/semi/no-contact split of the contact nodes.

    A node touches when u_n equals its gap within a tolerance of 1e-9 times
    (1 + max |gap|).  A contact edge is fully active when the quadratic
    traces of u_n and of the interpolated gap coincide, i.e. its three nodal
    values agree within that tolerance; a touching node is in full contact
    when every contact edge holding it is fully active.
    """
    gmax = np.abs(trace.gap[np.isfinite(trace.gap)])
    tol = 1e-9 * (1.0 + (gmax.max() if gmax.size else 0.0))
    dev = trace.sign * u[2 * trace.edge_nodes + trace.comp] - trace.gap[trace.edge_pos]
    edge_active = np.all(np.abs(dev) <= tol, axis=1)
    touching = np.abs(trace.sign * u[trace.dofs] - trace.gap) <= tol
    full = edge_active[trace.node_edges].all(axis=1)
    return np.where(touching, np.where(full, FULL_CONTACT, SEMI_CONTACT), NO_CONTACT)


def write_density_csv(path, dofmap, density):
    """Dump rows (node id, x, y, class, lambda_n, lambda_t, weight)."""
    trace = density.trace
    x, y = dofmap.coords[trace.nodes].T
    columns = (trace.nodes, x, y, density.classes, density.normal,
               density.tangential, trace.weight)
    values = np.column_stack([np.asarray(c, dtype=object) for c in columns])
    row = "{},{:.17g},{:.17g},{},{:.17g},{:.17g},{:.17g}\n"
    with open(path, "w") as out:
        out.write("node,x,y,class,lambda_n,lambda_t,weight\n"
                  + (row * trace.size).format(*values.ravel().tolist()))
