"""Quadratic Lagrange vector elements for plane linear elasticity.

Degrees of freedom sit at the mesh's P2 nodes (``Mesh.node_coords``), two
displacement components per node (dof index = 2*node + component); ``DofMap``
is the table of their kinds.  The bilinear form is

    a(z, v) = int_Omega sigma(z) : eps(v) dx,
    sigma(v) = 2 mu eps(v) + lam tr(eps(v)) I,

and the load is L(v) = (f, v) + <g, v>_{Gamma_N}.  Element integrals use a
six-point degree-4 triangle rule and three-point Gauss on edges.  Dirichlet
rows are kept in K; ``assemble`` returns the Dirichlet constraint once per
mesh as data, a lifted displacement and a free-dof mask (``SparseSystem``).

Element kernels are products of fixed reference tables with per-element
coefficients (the tensor form of Kirby, Knepley, Logg and Scott).  On an
affine triangle with inverse Jacobian J^{-1} the element stiffness is

    Ke[(a,c),(b,e)] = |T| sum_{x,y,d,f} J^{-1}[x,d] J^{-1}[y,f]
                                         C[c,d,e,f] R[x,y,a,b],
    R[x,y,a,b] = sum_q w_q d_x phi_a(q) d_y phi_b(q),

with C the elasticity tensor and R the reference tensor of the six P2 basis
functions.  The table C (x) R is laid out in dof order, so the 78 entries on
and above the diagonal of all element matrices come from one
(nt, 16) @ (16, 78) product; the entries below copy them.  Loads, point
values and gradients follow the same pattern: a reference table at the
sample points times the element coefficients, as ``np.matmul``.  One
``np.bincount`` adds the element loads, then the Neumann edge loads, into F.

K is assembled exactly symmetric, as CSR with sorted int32 indices: one
sort of the element node pairs gives the pattern, each pair a 2x2 dof block,
and ``np.bincount`` adds the element contributions to entry (i, j) and to
entry (j, i) in the same element order.  The blocks form K in scipy's
block-sparse row format, whose conversion lays out the CSR arrays; there is
no COO stage.  Because K equals its transpose bit for bit, the CSR arrays of K, and
of any symmetric restriction K[I][:, I], are also its CSC arrays.
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
# sup-norm sample: vertices, edge midpoints, then the quadrature points
TRI_SAMPLE = np.vstack([
    np.eye(3),
    np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
    TRI_QP,
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
        if not (0 < self.mu < np.inf and 0 <= self.lam < np.inf):
            raise ValueError(f"need finite mu > 0 and lam >= 0, got mu={self.mu}, lam={self.lam}")

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


_CORNER_BARY = np.eye(3)
_GRAD_REF_QP = shape_grads_ref(TRI_QP)                  # (6, 6, 2)
# R[(x, y), (a, b)] = sum_q w_q d_x phi_a(q) d_y phi_b(q)
_STIFF_REF = np.einsum("q,qax,qby->xyab", TRI_QW, _GRAD_REF_QP, _GRAD_REF_QP).reshape(4, 36)
_UPPER = np.triu_indices(12)                      # entries i <= j of an element matrix
_FROM_UPPER = np.empty((12, 12), dtype=np.int64)    # the one of them entry (i, j) copies
_FROM_UPPER[_UPPER] = _FROM_UPPER.T[_UPPER] = np.arange(_UPPER[0].size)
_LOAD_REF = (TRI_QW[:, None] * shape_values(TRI_QP)).T  # (6, 6): w_q phi_a(q), rows a
# 1D quadratic Lagrange trace on an edge (first end, midpoint, second end)
# at the Gauss points, times the weights: (3, 3)
_EDGE_LOAD_REF = EDGE_QW * np.array([(2 * EDGE_QT - 1) * (EDGE_QT - 1),
                                     4 * EDGE_QT * (1 - EDGE_QT),
                                     EDGE_QT * (2 * EDGE_QT - 1)])


@dataclass(frozen=True)
class DofMap:
    """The node-kind table of one mesh's P2 nodes (``mesh.node_coords``).

    ``kind`` holds 'i' (interior), 'D', 'N' or 'C' per node, from the mesh's
    boundary tags (its rule at the boundary-edge midpoints).  Neumann, then
    contact, then Dirichlet, each tag overwrites the kinds of its edges' P2
    nodes (``mesh.edge_node_triples``): a midpoint has its edge's tag, a
    vertex the last of its edges' (the mesh keeps contact from Dirichlet).
    """

    mesh: msh.Mesh
    kind: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.mesh
        kind = np.full(m.num_nodes, "i", dtype="<U1")
        for tag in (msh.NEUMANN, msh.CONTACT, msh.DIRICHLET):
            kind[m.edge_node_triples[m.boundary_edge_ids[m.boundary_tags == tag]]] = tag
        object.__setattr__(self, "kind", kind)


def barycentric_to_xy(mesh, bary):
    """Map barycentric sample points to physical coordinates, (nt, npts, 2)."""
    return np.asarray(bary, dtype=float) @ mesh.vertices[mesh.triangles]


def _coefficients(mesh, u):
    """Nodal values of u_h per element, (nt, 6, 2) in local node order."""
    return u.reshape(-1, 2)[mesh.element_nodes]


@dataclass(frozen=True)
class SparseSystem:
    """Assembled stiffness and load with the Dirichlet constraint as data.

    K is the full, exactly symmetric matrix (no rows eliminated) in CSR with
    sorted int32 indices.  ``lift`` holds the Dirichlet values at the
    Dirichlet dofs and 0 elsewhere, and ``free`` is False exactly there;
    both are read-only, since every solve step starts from copies of them.
    """

    K: sp.csr_matrix
    F: np.ndarray
    lift: np.ndarray
    free: np.ndarray
    material: MaterialLaw

    @property
    def ndof(self):
        return self.F.shape[0]


def _elasticity_tensor(material):
    """C[c, d, e, f] with sigma_cd = C[c, d, e, f] eps_ef."""
    eye = np.eye(2)
    return (material.lam * eye[:, :, None, None] * eye[None, None, :, :]
            + material.mu * (eye[:, None, :, None] * eye[None, :, None, :]
                             + eye[:, None, None, :] * eye[None, :, :, None]))


def _stiffness_table(material):
    """(16, 144) table C[c, d, e, f] R[x, y, a, b]: rows (x, y, d, f), columns
    (a, c, b, e), the row-major order of the (12, 12) element matrix."""
    C = _elasticity_tensor(material).transpose(1, 3, 0, 2)       # [d, f, c, e]
    R = _STIFF_REF.reshape(2, 2, 6, 6)                          # [x, y, a, b]
    table = R[:, :, None, None, :, None, :, None] * C[None, None, :, :, None, :, None, :]
    return table.reshape(16, 144)


def _upper_stiffness(mesh, material):
    """(nt, 78) entries i <= j (``_UPPER``) of the element stiffness matrices."""
    nt = mesh.num_triangles
    # |T| J^{-1}[x, d] J^{-1}[y, f] per element, columns in (x, y, d, f) order
    jj = mesh.inv_jac[:, :, None, :, None] * mesh.inv_jac[:, None, :, None, :]
    table = _stiffness_table(material).reshape(16, 12, 12)[:, _UPPER[0], _UPPER[1]]
    return (mesh.areas[:, None] * jj.reshape(nt, 16)) @ table


def _stiffness_matrix(mesh, material):
    """K in CSR with sorted int32 indices, exactly symmetric.

    One ``np.unique`` of the element node pairs (a, b), keyed a * n_nodes + b,
    gives the node-level pattern in row-major order and the pair of every
    element entry.  Each node pair k = (a, b) is a 2x2 dof block, summed from
    the element blocks by ``np.bincount`` in element order, so entries (i, j)
    and (j, i) add the same numbers in the same order.  The blocks are K in
    scipy's block-sparse row format, which lays out the CSR arrays.
    """
    nodes = mesh.element_nodes
    n_nodes = mesh.num_nodes
    pairs, pair_of = np.unique(nodes[:, :, None] * n_nodes + nodes[:, None, :],
                               return_inverse=True)
    row, col = np.divmod(pairs, n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n_nodes), out=indptr[1:])
    upper = _upper_stiffness(mesh, material)
    # entry (2a + c, 2b + e) of pair k at [k, c, e]
    blocks = np.empty((pairs.size, 2, 2))
    for c in range(2):
        for e in range(2):
            # Ke[:, (a, c), (b, e)] for all local nodes a, b: (nt, 6, 6)
            block = np.take(upper, _FROM_UPPER[c::2, e::2], axis=1)
            blocks[:, c, e] = np.bincount(pair_of.ravel(), weights=block.ravel(),
                                          minlength=pairs.size)
    shape = (2 * n_nodes, 2 * n_nodes)
    return sp.bsr_matrix((blocks, col.astype(np.int32), indptr), shape=shape).tocsr()


def assemble(dofmap, problem):
    """Build the elasticity stiffness matrix and load vector.

    ``problem`` provides the material and the vectorized callables
    f(points), g(points) and dirichlet(points), each -> (n, 2).  A mesh with
    no Dirichlet edge leaves the rigid motions free, and Dirichlet data that
    is not finite has no solution; both are errors before K is built.
    """
    mesh, material = dofmap.mesh, problem.material
    free_node = dofmap.kind != msh.DIRICHLET
    d_nodes = np.flatnonzero(~free_node)
    if d_nodes.size == 0:
        raise ValueError(f"problem {problem.name!r} has no Dirichlet edge, so nothing "
                         f"fixes the rigid motions ({mesh.num_triangles} triangles)")
    d_xy = mesh.node_coords[d_nodes]
    lift = np.zeros((mesh.num_nodes, 2))
    lift[d_nodes] = problem.dirichlet(d_xy)
    bad = np.flatnonzero(~np.isfinite(lift[d_nodes]).all(axis=1))
    if bad.size:
        raise ValueError(f"problem {problem.name!r}: the Dirichlet data is not finite at "
                         f"{bad.size} of {d_nodes.size} Dirichlet nodes, first at node "
                         f"{d_nodes[bad[0]]} {tuple(d_xy[bad[0]].tolist())}")
    free = np.repeat(free_node, 2)
    lift.flags.writeable = free.flags.writeable = False
    # data so large that K or F overflows is reported by the solver, which
    # checks that both are finite
    with np.errstate(over="ignore", invalid="ignore"):
        K = _stiffness_matrix(mesh, material)

        xy = barycentric_to_xy(mesh, TRI_QP)
        fv = problem.f(xy.reshape(-1, 2)).reshape(xy.shape)
        # (nt, 6, 2) element loads sum_q w_q area f_c(x_q) N_a(x_q) at dof 2 a + c
        fe = (_LOAD_REF @ fv) * mesh.areas[:, None, None]
        ids = mesh.boundary_edge_ids[mesh.boundary_tags == msh.NEUMANN]
        gv = problem.g(mesh.edge_points(ids, EDGE_QT).reshape(-1, 2))
        # (ne, 3, 2) Neumann edge loads at the first end, midpoint and second end
        ge = (_EDGE_LOAD_REF @ gv.reshape(ids.size, EDGE_QT.size, 2)) \
            * mesh.edge_lengths[ids, None, None]
        # element entries, then edge entries: first ends, midpoints, second ends
        nodes = np.concatenate([mesh.element_nodes.ravel(), mesh.edge_node_triples[ids].T.ravel()])
        loads = np.concatenate([fe.ravel(), ge.transpose(1, 0, 2).ravel()])
        F = np.bincount((2 * nodes[:, None] + np.arange(2)).ravel(), weights=loads,
                        minlength=2 * mesh.num_nodes)
    return SparseSystem(K, F, lift.ravel(), free, material)


# -- pointwise evaluation -----------------------------------------------------

def displacement_at(mesh, u, bary):
    """u_h at barycentric points of every triangle: (nt, npts, 2)."""
    return shape_values(bary) @ _coefficients(mesh, u)


def gradient_at(mesh, u, bary):
    """grad u_h (rows: component, cols: direction) at barycentric points of
    every triangle: (nt, npts, 2, 2)."""
    coeff = np.swapaxes(_coefficients(mesh, u), 1, 2)[:, None]   # (nt, 1, 2, 6)
    return coeff @ shape_grads_ref(bary) @ mesh.inv_jac[:, None]


def stress_from_grad(grad, material):
    """sigma = 2 mu eps + lam tr(eps) I from displacement gradients (..., 2, 2)."""
    eps = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    sig = 2.0 * material.mu * eps
    sig[..., [0, 1], [0, 1]] += material.lam * tr[..., None]
    return sig


def corner_stress(mesh, material, u):
    """sigma(u_h) at the three corners of every triangle: (nt, 3, 2, 2).

    The stress of a quadratic displacement is linear per element, so corner
    values determine it everywhere on the element.
    """
    grads = gradient_at(mesh, u, _CORNER_BARY)
    return stress_from_grad(grads, material)

