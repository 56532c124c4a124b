"""Quadratic Lagrange vector elements for plane linear elasticity.

Degrees of freedom sit at vertices and edge midpoints, two displacement
components per node (dof index = 2*node + component).  The bilinear form is

    a(z, v) = int_Omega sigma(z) : eps(v) dx,
    sigma(v) = 2 mu eps(v) + lam tr(eps(v)) I,

and the load is L(v) = (f, v) + <g, v>_{Gamma_N}.  Element integrals use a
six-point degree-4 triangle rule and three-point Gauss on edges; Dirichlet
rows are kept in the assembled matrix and eliminated symmetrically at solve
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import mesh as msh

# Degree-4 rule on the reference triangle (6 points, weights sum to 1).
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI_QW = np.array([_W1] * 3 + [_W2] * 3)
TRI_QP = np.array([
    [1 - 2 * _A1, _A1, _A1],
    [_A1, 1 - 2 * _A1, _A1],
    [_A1, _A1, 1 - 2 * _A1],
    [1 - 2 * _A2, _A2, _A2],
    [_A2, 1 - 2 * _A2, _A2],
    [_A2, _A2, 1 - 2 * _A2],
])

# 3-point Gauss on [0, 1] (degree 5).
EDGE_QT = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
EDGE_QW = np.array([5.0, 8.0, 5.0]) / 18.0

_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # barycentric gradients in (xi, eta)


@dataclass(frozen=True)
class MaterialLaw:
    """Isotropic Lame parameters: shear modulus ``mu`` and ``lam``."""

    mu: float
    lam: float

    def __post_init__(self):
        if self.mu <= 0 or self.lam < 0:
            raise ValueError(f"need mu > 0 and lam >= 0, got mu={self.mu}, lam={self.lam}")

    @classmethod
    def from_young_poisson(cls, E, nu):
        """Convert (E, nu) with lam = E nu / ((1+nu)(1-2nu)), mu = E / (2(1+nu))."""
        if E <= 0:
            raise ValueError(f"Young's modulus must be positive, got {E}")
        if not 0.0 <= nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
        return cls(mu=E / (2.0 * (1.0 + nu)), lam=E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu)))

    @property
    def stress_scale(self):
        return 2.0 * self.mu + self.lam


def shape_values(bary):
    """P2 basis values at barycentric points.  bary (..., 3) -> (..., 6)."""
    L = np.asarray(bary, dtype=float)
    l0, l1, l2 = L[..., 0], L[..., 1], L[..., 2]
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ], axis=-1)


def shape_grads_ref(bary):
    """Reference-coordinate gradients at barycentric points: (..., 6, 2)."""
    L = np.asarray(bary, dtype=float)
    out = np.empty(L.shape[:-1] + (6, 2))
    for k in range(3):
        out[..., k, :] = (4 * L[..., k, None] - 1) * _DL[k]
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        out[..., 3 + k, :] = 4 * (L[..., i, None] * _DL[j] + L[..., j, None] * _DL[i])
    return out


def trace_coefficients(v0, vm, v1):
    """(a, b) of the edge trace a s^2 + b s + v0, s in [0, 1], of a P2 field
    with values v0, vm, v1 at the first vertex, the midpoint and the second."""
    return 2 * v0 - 4 * vm + 2 * v1, -3 * v0 + 4 * vm - v1


def shape_hessians_ref():
    """Constant reference Hessians of the six basis functions: (6, 2, 2)."""
    H = np.empty((6, 2, 2))
    for k in range(3):
        H[k] = 4.0 * np.outer(_DL[k], _DL[k])
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        H[3 + k] = 4.0 * (np.outer(_DL[i], _DL[j]) + np.outer(_DL[j], _DL[i]))
    return H


_HESS_REF = shape_hessians_ref()
_CORNER_BARY = np.eye(3)
_GRAD_REF_QP = shape_grads_ref(TRI_QP)                  # (6, 6, 2)
_VAL_QP = shape_values(TRI_QP)                          # (6, 6)


# node kinds by precedence at a vertex where boundary parts meet
_KIND_BY_RANK = np.array(["i", msh.NEUMANN, msh.CONTACT, msh.DIRICHLET])


@dataclass(frozen=True)
class DofMap:
    """Node enumeration and boundary classification for one mesh.

    Nodes 0..nv-1 are the vertices, node nv+e is the midpoint of edge e.
    ``kind`` holds 'i' (interior), 'D', 'N' or 'C' per node; a vertex where
    several boundary parts meet takes Dirichlet over Neumann and contact over
    Neumann (Dirichlet and contact never meet, which the mesh enforces).
    """

    mesh: msh.Mesh
    coords: np.ndarray = field(init=False)
    kind: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.mesh
        nv = m.num_vertices
        coords = np.vstack([m.vertices, m.vertices[m.edges].mean(axis=1)])
        rank = np.argmax(m.boundary_tags[:, None] == _KIND_BY_RANK, axis=1)
        vrank = np.zeros(nv, dtype=np.int64)
        np.maximum.at(vrank, m.boundary_edges, rank[:, None])
        kind = np.full(nv + m.edges.shape[0], "i", dtype="<U1")
        kind[:nv] = _KIND_BY_RANK[vrank]
        kind[nv + m.boundary_edge_ids] = m.boundary_tags
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "kind", kind)

    @property
    def n_vertices(self):
        return self.mesh.num_vertices

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def ndof(self):
        return 2 * self.n_nodes

    def nodes_of(self, kind):
        return np.flatnonzero(self.kind == kind)

    @property
    def contact_nodes(self):
        return self.nodes_of(msh.CONTACT)

    @property
    def dirichlet_nodes(self):
        return self.nodes_of(msh.DIRICHLET)

    @property
    def dirichlet_dofs(self):
        nodes = self.dirichlet_nodes
        return np.sort(np.concatenate([2 * nodes, 2 * nodes + 1]))


def element_dofs(mesh):
    """(nt, 12) global dof ids interleaved as (node, component)."""
    nodes = mesh.element_nodes
    dofs = np.empty((nodes.shape[0], 12), dtype=np.int64)
    dofs[:, 0::2] = 2 * nodes
    dofs[:, 1::2] = 2 * nodes + 1
    return dofs


def barycentric_to_xy(mesh, bary):
    """Map barycentric sample points to physical coordinates, (nt, npts, 2)."""
    p = mesh.vertices[mesh.triangles]
    return np.einsum("qk,tkd->tqd", np.asarray(bary, dtype=float), p)


@dataclass(frozen=True)
class SparseSystem:
    """Assembled stiffness/load with Dirichlet data kept separately.

    K is the full symmetric matrix (no rows eliminated); solvers restrict to
    free dofs and move prescribed values to the right-hand side.
    """

    K: sp.csr_matrix
    F: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    material: MaterialLaw

    @property
    def ndof(self):
        return self.F.shape[0]

    def free_mask(self):
        free = np.ones(self.ndof, dtype=bool)
        free[self.dirichlet_dofs] = False
        return free


def assemble(mesh, dofmap, material, problem):
    """Build the elasticity stiffness matrix and load vector.

    ``problem`` provides vectorized callables f(points) -> (n, 2) and
    g(points) -> (n, 2) plus Dirichlet data; any of them may be None for zero
    data.
    """
    nt = mesh.num_triangles
    mu, lam = material.mu, material.lam
    D = np.array([
        [2 * mu + lam, lam, 0.0],
        [lam, 2 * mu + lam, 0.0],
        [0.0, 0.0, mu],
    ])

    # physical gradients at quadrature points: (nt, nq, 6, 2)
    dN = np.einsum("qad,tde->tqae", _GRAD_REF_QP, mesh.inv_jac)
    B = np.zeros((nt, 6, 3, 12))
    B[:, :, 0, 0::2] = dN[..., 0]
    B[:, :, 1, 1::2] = dN[..., 1]
    B[:, :, 2, 0::2] = dN[..., 1]
    B[:, :, 2, 1::2] = dN[..., 0]
    Ke = np.zeros((nt, 12, 12))
    for q in range(6):
        DB = np.einsum("ij,tjb->tib", D, B[:, q])
        Ke += TRI_QW[q] * np.einsum("tia,tib->tab", B[:, q], DB)
    Ke *= mesh.areas[:, None, None]

    dofs = element_dofs(mesh)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(dofmap.ndof, dofmap.ndof)).tocsr()

    F = np.zeros(dofmap.ndof)
    if problem is not None and problem.f is not None:
        xy = barycentric_to_xy(mesh, TRI_QP)
        fv = problem.f(xy.reshape(-1, 2)).reshape(nt, 6, 2)
        # (nt, 12) element loads: sum_q w_q area f_i(x_q) N_a(x_q)
        fe = np.einsum("q,qa,tqc->tac", TRI_QW, _VAL_QP, fv) * mesh.areas[:, None, None]
        np.add.at(F, dofs, fe.reshape(nt, 12))

    if problem is not None and problem.g is not None:
        _add_neumann_load(mesh, F, problem.g)

    d_dofs = dofmap.dirichlet_dofs
    if problem is not None and problem.dirichlet is not None and d_dofs.size:
        vals = problem.dirichlet(dofmap.coords[dofmap.dirichlet_nodes])
        d_values = np.empty(d_dofs.size)
        d_values[0::2] = vals[:, 0]
        d_values[1::2] = vals[:, 1]
    else:
        d_values = np.zeros(d_dofs.size)
    return SparseSystem(K, F, d_dofs, d_values, material)


def _add_neumann_load(mesh, F, g):
    nv = mesh.num_vertices
    ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
    if ids.size == 0:
        return
    v0 = mesh.vertices[mesh.edges[ids, 0]]
    v1 = mesh.vertices[mesh.edges[ids, 1]]
    length = np.linalg.norm(v1 - v0, axis=1)
    # 1D quadratic Lagrange trace: endpoint, endpoint, midpoint
    t = EDGE_QT
    Nend0 = (2 * t - 1) * (t - 1)
    Nend1 = t * (2 * t - 1)
    Nmid = 4 * t * (1 - t)
    pts = v0[:, None, :] * (1 - t)[None, :, None] + v1[:, None, :] * t[None, :, None]
    gv = g(pts.reshape(-1, 2)).reshape(ids.size, t.size, 2)
    w = EDGE_QW[None, :] * length[:, None]
    for shape, node in ((Nend0, mesh.edges[ids, 0]),
                        (Nend1, mesh.edges[ids, 1]),
                        (Nmid, nv + ids)):
        contrib = np.einsum("eq,eq,eqc->ec", w, np.broadcast_to(shape, w.shape), gv)
        np.add.at(F, 2 * node, contrib[:, 0])
        np.add.at(F, 2 * node + 1, contrib[:, 1])


# -- pointwise evaluation -----------------------------------------------------

def displacement_at(mesh, u, tris, bary):
    """u_h at barycentric points of the given triangles: (ntris, npts, 2)."""
    nodes = mesh.element_nodes[tris]
    coeff = np.stack([u[2 * nodes], u[2 * nodes + 1]], axis=-1)   # (nt, 6, 2)
    vals = shape_values(bary)                                      # (npts, 6)
    return np.einsum("qa,tac->tqc", vals, coeff)


def gradient_at(mesh, u, tris, bary):
    """grad u_h (rows: component, cols: direction) at barycentric points."""
    nodes = mesh.element_nodes[tris]
    coeff = np.stack([u[2 * nodes], u[2 * nodes + 1]], axis=-1)
    dref = shape_grads_ref(bary)                                   # (npts, 6, 2)
    dphys = np.einsum("qad,tde->tqae", dref, mesh.inv_jac[tris])
    return np.einsum("tqad,tac->tqcd", dphys, coeff)


def stress_from_grad(grad, material):
    """sigma = 2 mu eps + lam tr(eps) I from displacement gradients (..., 2, 2)."""
    eps = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    sig = 2.0 * material.mu * eps
    sig[..., 0, 0] += material.lam * tr
    sig[..., 1, 1] += material.lam * tr
    return sig


def corner_stress(mesh, material, u):
    """sigma(u_h) at the three corners of every triangle: (nt, 3, 2, 2).

    The stress of a quadratic displacement is linear per element, so corner
    values determine it everywhere on the element.
    """
    grads = gradient_at(mesh, u, np.arange(mesh.num_triangles), _CORNER_BARY)
    return stress_from_grad(grads, material)


def divergence_stress(mesh, material, u):
    """div sigma(u_h), constant per element: (nt, 2)."""
    nodes = mesh.element_nodes
    coeff = np.stack([u[2 * nodes], u[2 * nodes + 1]], axis=-1)   # (nt, 6, 2)
    # physical Hessians: inv_jac^T Href inv_jac per element and basis function
    H = np.einsum("ted,aef,tfg->tadg", mesh.inv_jac, _HESS_REF, mesh.inv_jac)
    Hu = np.einsum("tac,tadg->tcdg", coeff, H)                     # (nt, 2, 2, 2)
    mu, lam = material.mu, material.lam
    lap = Hu[:, :, 0, 0] + Hu[:, :, 1, 1]
    grad_div = Hu[:, 0, 0, :] + Hu[:, 1, 1, :]
    return mu * lap + (mu + lam) * grad_div


def interpolate(dofmap, func):
    """Nodal interpolant of a vectorized field func(points) -> (n, 2)."""
    vals = func(dofmap.coords)
    u = np.empty(dofmap.ndof)
    u[0::2] = vals[:, 0]
    u[1::2] = vals[:, 1]
    return u
