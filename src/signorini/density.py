"""Discrete contact force density on the split contact trace mesh.

The contact boundary is viewed as a piecewise-linear trace mesh whose cells
are the half-edges [vertex, midpoint] and [midpoint, vertex] of every contact
edge.  ``build_trace_mesh`` makes the level's one contact record from it: the
contact nodes, their hat weights, the one table of each contact edge's nodes,
the normal frame and the finite nodal gap chi(p).  The frame comes from the
mesh: the contact edges' common outward normal must be an axis direction
n = sign * e_comp.  The active-set solver, the density, the estimator and the
node classes of the density dump all read this record, and take every normal
part sign * v[2p + comp] from its ``normal_part``; the node classes read the
solver's active set, the level's one contact state.
Hat functions psi_p on the split mesh define the lumped pairing

    <w, v>_h = sum_p w(p) . v(p) * weight(p),   weight(p) = int psi_p ds,

and the nodal density is the nodal contact residual divided by the hat weight:
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
    edge_pos    (nc, 3) position in ``nodes`` of each contact edge's
                (vertex, midpoint, vertex); its node ids are nodes[edge_pos]
    nodes       (ncon,) sorted contact node ids
    weight      (ncon,) hat weight per contact node, aligned with ``nodes``
    comp, sign  contact normal n = sign * e_comp, so u_n = sign * u[2p + comp]
    gap         (ncon,) finite gap chi(p) per contact node; the constraint
                is u_n(p) <= gap(p)
    """

    edge_ids: np.ndarray
    edge_pos: np.ndarray
    nodes: np.ndarray
    weight: np.ndarray
    comp: int
    sign: float
    gap: np.ndarray

    @property
    def dofs(self):
        """Normal dof 2p + comp per contact node."""
        return 2 * self.nodes + self.comp

    def normal_part(self, v):
        """(ncon,) normal components sign * v[2p + comp] of a nodal vector v."""
        return self.sign * v[self.dofs]

    @property
    def tangential_dofs(self):
        return 2 * self.nodes + (1 - self.comp)

    @property
    def size(self):
        return self.nodes.size


def build_trace_mesh(mesh, problem):
    """Contact record of ``mesh`` (its contact-tagged edges) for ``problem``.

    The split contact-edge mesh has closed-form hat weights: a midpoint hat
    spans the two half-edges of its edge (weight h/2); a vertex hat spans
    one half-edge per adjacent contact edge (weight h/4 each), so h/4 marks
    the ends of each contact chain.  The contact boundary may have several
    components; an empty one is an error, and so are a vertex on more than
    two contact edges and contact edges whose outward normals are not one
    axis direction.  The gap is ``problem.chi`` at the contact nodes; a gap
    that is not finite is an error, since a side without an obstacle is a
    Neumann side.
    """
    edge_ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.CONTACT]
    if edge_ids.size == 0:
        raise ValueError("mesh has no contact boundary")
    lengths = mesh.edge_lengths[edge_ids]
    edge_nodes = mesh.edge_node_triples[edge_ids]

    nodes, inv = np.unique(edge_nodes.ravel(), return_inverse=True)
    weight = np.bincount(inv, (lengths[:, None] * _HAT_SHARE).ravel())
    if np.bincount(inv).max() > 2:
        raise ValueError("a contact vertex lies on more than two contact edges")
    normals = np.unique(mesh.outward_normals(edge_ids).round(12) + 0.0, axis=0)
    if len(normals) > 1 or np.count_nonzero(normals[0]) != 1:
        raise ValueError("the contact boundary must face one axis direction; "
                         f"its outward normals are {normals.tolist()}")
    comp = int(np.flatnonzero(normals[0])[0])
    xy = mesh.node_coords[nodes]
    gap = problem.chi(xy)
    bad = np.flatnonzero(~np.isfinite(gap))
    if bad.size:
        raise ValueError(f"the gap chi is not finite at {bad.size} of {nodes.size} contact "
                         f"nodes, first at node {nodes[bad[0]]} {tuple(xy[bad[0]].tolist())}")
    return ContactTraceMesh(edge_ids, inv.reshape(edge_nodes.shape), nodes, weight,
                            comp, float(normals[0, comp]), gap)


@dataclass(frozen=True)
class DensityField:
    """Nodal contact force density in the (normal, tangential) frame."""

    trace: ContactTraceMesh
    multiplier: np.ndarray   # nodal contact residual m_p, the normal part of r
    normal: np.ndarray       # lambda_n = m_p / weight(p), >= 0
    tangential: np.ndarray   # lambda in the tangential direction, ~ 0


def compute_density(residual, trace):
    """Nodal density lambda(p) = r(p) / weight(p) in the contact frame, and
    the nodal contact residual m_p, from the algebraic residual r = F - K u
    of a solution u."""
    multiplier = trace.normal_part(residual)
    tangential = residual[trace.tangential_dofs] / trace.weight
    return DensityField(trace, multiplier, multiplier / trace.weight, tangential)


def classify_nodes(active, trace):
    """Full/semi/no-contact split of the contact nodes from the solver's
    active set ``active`` (bool per contact node).

    A node touches exactly when it is active.  A contact edge is fully
    active when its three nodes are; a touching node is in full contact
    when every contact edge holding it is fully active, and in semi contact
    otherwise.  At the solver's fixed point an active node has m_p > 0, so
    a weakly active node (u_n = gap with m_p = 0) is inactive and classed
    none: the classes mark where the contact force acts.
    """
    full = active.copy()
    full[trace.edge_pos[~active[trace.edge_pos].all(axis=1)]] = False
    return np.where(active, np.where(full, FULL_CONTACT, SEMI_CONTACT), NO_CONTACT)


def write_density_csv(path, mesh, density, active):
    """Dump rows (node id, x, y, class, lambda_n, lambda_t, weight), with
    (x, y) from ``mesh.node_coords``; the classes are those of ``active``."""
    trace = density.trace
    x, y = mesh.node_coords[trace.nodes].T
    columns = (trace.nodes, x, y, classify_nodes(active, trace), density.normal,
               density.tangential, trace.weight)
    values = np.column_stack([np.asarray(c, dtype=object) for c in columns])
    with open(path, "w") as out:
        out.write("node,x,y,class,lambda_n,lambda_t,weight\n"
                  + msh.format_rows("{},{:.17g},{:.17g},{},{:.17g},{:.17g},{:.17g}\n", values))
