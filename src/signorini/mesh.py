"""Conforming triangle meshes: boundary tags, patches, bisection refinement.

A mesh is immutable; ``refine`` returns a new one.  Each triangle stores its
bisection peak as the first vertex, so the refinement edge is the edge
opposite to it.  Marked refinement uses newest-vertex bisection with closure,
which keeps the minimum angle bounded over arbitrarily many refinements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DIRICHLET = "D"
NEUMANN = "N"
CONTACT = "C"
TAGS = (DIRICHLET, NEUMANN, CONTACT)


# Entry 3 t + j of the edge table is the edge from corner j + 1 to corner
# j + 2 (mod 3) of triangle t.  Row 2 j + swap holds those two corners in the
# order of the edge's ends (min, max); swap is 1 where that order reverses them.
_EDGE_CORNERS = np.array([[1, 2], [2, 1], [2, 0], [0, 2], [0, 1], [1, 0]])


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a polygonal domain.

    vertices        (nv, 2) coordinates
    triangles       (nt, 3) vertex indices, positively oriented; the edge
                    opposite the first vertex is the refinement edge
    boundary_edges  (nb, 2) vertex pairs covering the whole boundary
    boundary_tags   (nb,)   one of "D", "N", "C" per boundary edge
    levels          (nt,)   bisection generation of each triangle
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    levels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        object.__setattr__(self, "boundary_edges", np.asarray(self.boundary_edges, dtype=np.int64))
        object.__setattr__(self, "boundary_tags", np.asarray(self.boundary_tags, dtype="<U1"))
        if self.levels is None:
            object.__setattr__(self, "levels", np.zeros(len(self.triangles), dtype=np.int64))
        else:
            object.__setattr__(self, "levels", np.asarray(self.levels, dtype=np.int64))
        self._validate()

    # -- derived connectivity -------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def _edge_key(self, pairs):
        """(k, 2) vertex pairs sorted per row, and their keys min * nv + max."""
        pairs = np.sort(pairs, axis=1)
        return pairs, pairs[:, 0] * self.num_vertices + pairs[:, 1]

    @cached_property
    def _edge_table(self):
        """Edges, triangle-edge ids, edge-triangle adjacency and edge corners
        from one stable sort of the triangle-edge keys: each run of equal
        keys is one edge, and its 1 or 2 entries are its triangles in
        ascending order."""
        ends = self.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
        pairs, key = self._edge_key(ends)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = sorted_key[1:] != sorted_key[:-1]
        starts = np.flatnonzero(first)
        count = np.diff(np.append(starts, key.size))
        if count.size and count.max() > 2:
            raise MeshError(f"edge {int(np.argmax(count))} shared by more than two triangles")
        tri_edges = np.empty(key.size, dtype=np.int64)
        tri_edges[order] = np.cumsum(first) - 1
        outer = count == 1
        entry = order[np.column_stack([starts, starts + ~outer])]  # a boundary edge repeats side 0
        edge_tris = entry // 3
        edge_corners = _EDGE_CORNERS[2 * (entry % 3) + (ends[entry, 0] > ends[entry, 1])]
        edge_tris[outer, 1] = edge_corners[outer, 1] = -1
        return pairs[order[starts]], tri_edges.reshape(-1, 3), edge_tris, edge_corners

    @property
    def edges(self):
        """(ne, 2) unique edges, each stored as (min, max), sorted by (min, max)."""
        return self._edge_table[0]

    @property
    def tri_edges(self):
        """(nt, 3) edge index opposite each local vertex."""
        return self._edge_table[1]

    @property
    def edge_tris(self):
        """(ne, 2) adjacent triangles per edge, lower id first, -1 where the
        edge is boundary."""
        return self._edge_table[2]

    @property
    def edge_corners(self):
        """(ne, 2 sides, 2 ends) local corner of ``edges[e, end]`` in triangle
        ``edge_tris[e, side]``, -1 on the missing side of a boundary edge.
        The corner opposite the edge is 3 minus the sum of its two corners."""
        return self._edge_table[3]

    @cached_property
    def boundary_edge_ids(self):
        """(nb,) index into ``edges`` of each tagged boundary edge."""
        pairs, key = self._edge_key(self.boundary_edges)
        ids = np.searchsorted(self._edge_key(self.edges)[1], key)
        ids = np.minimum(ids, len(self.edges) - 1)
        missing = ~(self.edges[ids] == pairs).all(axis=1)
        if missing.any():
            raise MeshError(f"boundary edge {tuple(pairs[np.argmax(missing)])} not found in mesh")
        return ids

    @cached_property
    def element_nodes(self):
        """(nt, 6) P2 node ids in local order: the 3 vertices, then the
        midpoints of the edges opposite them (node nv + e for edge e)."""
        return np.hstack([self.triangles, self.num_vertices + self.tri_edges])

    @cached_property
    def areas(self):
        p = self.vertices[self.triangles]
        a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    @cached_property
    def inv_jac(self):
        """(nt, 2, 2) inverse of each element Jacobian, whose columns are the
        edge vectors from the first vertex to the second and the third."""
        p = self.vertices[self.triangles]
        a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = 2.0 * self.areas
        inv = np.empty((self.num_triangles, 2, 2))
        inv[:, 0, 0] = b[:, 1] / det
        inv[:, 0, 1] = -b[:, 0] / det
        inv[:, 1, 0] = -a[:, 1] / det
        inv[:, 1, 1] = a[:, 0] / det
        return inv

    @cached_property
    def diameters(self):
        p = self.vertices[self.triangles]
        l0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        l1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        l2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        return np.maximum(np.maximum(l0, l1), l2)

    def edge_length(self, e):
        v = self.edges[e]
        return np.linalg.norm(self.vertices[v[..., 1]] - self.vertices[v[..., 0]], axis=-1)

    def edge_points(self, ids, s):
        """(len(ids), npts, 2) points a (1 - s) + b s of the edges ``ids`` = (a, b),
        at parameters ``s`` of shape (npts,) or (len(ids), npts)."""
        ends = self.vertices[self.edges[ids]]                    # (k, 2 ends, 2)
        s = np.asarray(s, dtype=float)[..., None]
        return ends[:, :1] * (1 - s) + ends[:, 1:] * s

    def outward_normals(self, ids):
        """(k, 2) unit normals of the edges ``ids`` pointing out of their
        first triangle: the edge tangent in that triangle's counter-clockwise
        order, turned clockwise."""
        t = self.edge_tris[ids, 0]
        opposite = 3 - self.edge_corners[ids, 0].sum(axis=1)
        ends = self.triangles[t[:, None], (opposite[:, None] + [1, 2]) % 3]
        tang = self.vertices[ends[:, 1]] - self.vertices[ends[:, 0]]
        n = np.column_stack([tang[:, 1], -tang[:, 0]])
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    # -- checks ---------------------------------------------------------------

    def _validate(self):
        if self.triangles.size and self.areas.min() <= 0.0:
            bad = int(np.argmin(self.areas))
            raise MeshError(f"triangle {bad} has non-positive area {self.areas[bad]}")
        derived = np.flatnonzero(self.edge_tris[:, 1] < 0)
        if not np.array_equal(np.unique(self.boundary_edge_ids), derived):
            raise MeshError("tagged boundary edges do not match topological boundary")
        if not np.isin(self.boundary_tags, TAGS).all():
            raise MeshError(f"unknown boundary tag in {np.unique(self.boundary_tags)}")
        # closures of the Dirichlet and contact boundaries must not intersect
        d_verts = self.boundary_edges[self.boundary_tags == DIRICHLET]
        c_verts = self.boundary_edges[self.boundary_tags == CONTACT]
        if np.intersect1d(d_verts, c_verts).size:
            raise MeshError("Dirichlet and contact boundary closures intersect")


# -- structured generation ----------------------------------------------------

def tag_bottom_contact(x, y):
    """Contact on y=0, Dirichlet on y=1, Neumann on the two sides."""
    if y < 1e-12:
        return CONTACT
    if y > 1.0 - 1e-12:
        return DIRICHLET
    return NEUMANN


def tag_right_contact(x, y):
    """Contact on x=1, Dirichlet on x=0, Neumann on top and bottom."""
    if x > 1.0 - 1e-12:
        return CONTACT
    if x < 1e-12:
        return DIRICHLET
    return NEUMANN


def generate_unit_square(n, tagging):
    """Structured mesh of (0,1)^2 with 2*n^2 right isoceles triangles.

    Every cell is split along its main diagonal; the right-angle vertex is
    the bisection peak, so the refinement edge is the hypotenuse and newest
    vertex bisection reproduces the 45-degree minimum angle exactly.
    ``tagging`` maps a boundary-edge midpoint (x, y) to a tag character.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v10, v11, v00))   # lower-right, peak at the right angle
            tris.append((v01, v00, v11))   # upper-left
    b_edges, b_tags = [], []
    for i in range(n):
        b_edges.append((vid(i, 0), vid(i + 1, 0)))
        b_edges.append((vid(i, n), vid(i + 1, n)))
    for j in range(n):
        b_edges.append((vid(0, j), vid(0, j + 1)))
        b_edges.append((vid(n, j), vid(n, j + 1)))
    for (a, b) in b_edges:
        mx, my = vertices[[a, b]].mean(axis=0)
        b_tags.append(tagging(mx, my))
    return Mesh(vertices, np.array(tris), np.array(b_edges), np.array(b_tags))


# -- refinement ---------------------------------------------------------------

def refine(mesh, marked):
    """Bisect every marked triangle; closure restores conformity.

    Children inherit boundary tags from their ancestor edges and carry
    level = parent level + number of bisections.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_triangles:
        raise IndexError("marked set contains an invalid triangle index")

    tri_edges = mesh.tri_edges
    split = np.zeros(mesh.edges.shape[0], dtype=bool)
    split[tri_edges[marked, 0]] = True
    while True:
        # any triangle with a split edge must also split its refinement edge
        need = split[tri_edges].any(axis=1) & ~split[tri_edges[:, 0]]
        if not need.any():
            break
        split[tri_edges[need, 0]] = True

    nv = mesh.num_vertices
    split_ids = np.flatnonzero(split)
    mid_of = np.full(mesh.edges.shape[0], -1, dtype=np.int64)
    mid_of[split_ids] = nv + np.arange(split_ids.size)
    midpoints = mesh.vertices[mesh.edges[split_ids]].mean(axis=1)
    new_vertices = np.vstack([mesh.vertices, midpoints])

    # Children replace their parent in place, in the order of one bisection
    # of the refinement edge e0: child (m0, c, a) with refinement edge e1,
    # then (m0, a, b) with e2; a child whose refinement edge is split is
    # bisected once more into (m, r, p), (m, p, q).  That order sets the
    # numbering of the next mesh, and with it the fill of its LU factors.
    a, b, c = mesh.triangles.T
    s0, s1, s2 = split[tri_edges].T
    m0, m1, m2 = mid_of[tri_edges].T
    count = np.where(s0, 2 + s1 + s2, 1)
    first = np.cumsum(count) - count
    new_tris = np.empty((count.sum(), 3), dtype=np.int64)
    new_levels = np.empty(count.sum(), dtype=np.int64)
    keep = ~s0
    new_tris[first[keep]] = mesh.triangles[keep]
    new_levels[first[keep]] = mesh.levels[keep]
    for start, s_child, (p, q, r), m in ((first, s1, (m0, c, a), m1),
                                         (first + 1 + s1, s2, (m0, a, b), m2)):
        once, twice = s0 & ~s_child, s0 & s_child
        new_tris[start[once]] = np.column_stack([p, q, r])[once]
        new_levels[start[once]] = mesh.levels[once] + 1
        new_tris[start[twice]] = np.column_stack([m, r, p])[twice]
        new_tris[start[twice] + 1] = np.column_stack([m, p, q])[twice]
        new_levels[start[twice]] = new_levels[start[twice] + 1] = mesh.levels[twice] + 2

    # a split boundary edge (u, v) becomes (u, m), (m, v) with the same tag
    b_split = split[mesh.boundary_edge_ids]
    b_count = 1 + b_split
    b_first = np.cumsum(b_count) - b_count
    b_mid = mid_of[mesh.boundary_edge_ids]
    b_edges = np.empty((b_count.sum(), 2), dtype=np.int64)
    b_edges[b_first] = mesh.boundary_edges
    b_edges[b_first[b_split], 1] = b_mid[b_split]
    b_edges[b_first[b_split] + 1] = np.column_stack([b_mid, mesh.boundary_edges[:, 1]])[b_split]
    return Mesh(new_vertices, new_tris, b_edges, np.repeat(mesh.boundary_tags, b_count),
                new_levels)


# -- patches ------------------------------------------------------------------

@dataclass(frozen=True)
class PatchTable:
    """Patches of the quadratic nodes (vertices, then edge midpoints).

    The patch of node p is the set of triangles whose six P2 nodes include
    p.  A tagged boundary edge lies on the patch of every node of its
    triangle.  An interior edge is interior to the patches of its two ends
    and its midpoint only, since two triangles share one edge at most.
    Patch maxima are scatter-maxima over these incidences.

    tri_nodes   (nt, 6) nodes whose patch holds each triangle
    edge_nodes  (ne, 6) nodes whose patch holds each edge, padded by repeats
    diameter    (n_nodes,) largest distance between two patch corners
    """

    tri_nodes: np.ndarray
    edge_nodes: np.ndarray
    diameter: np.ndarray

    def tri_max(self, values):
        """Per node, the max of nonnegative per-triangle values over its patch."""
        return self._scatter_max(self.tri_nodes, values)

    def edge_max(self, values, ids):
        """Per node, the max of nonnegative ``values`` of the edges ``ids``
        (aligned with them) lying on its patch, 0 where there are none."""
        return self._scatter_max(self.edge_nodes[ids], values)

    def _scatter_max(self, incidence, values):
        out = np.zeros(self.diameter.size)
        np.maximum.at(out, incidence, values[:, None])
        return out


def build_patches(mesh):
    """Patch incidences and diameters for all quadratic nodes of ``mesh``.

    The corners of a vertex patch are the vertex and its edge neighbours;
    those of a midpoint patch are the edge ends and the vertex opposite the
    edge in each adjacent triangle.  Rows are padded with a repeated corner.
    """
    nv, ne = mesh.num_vertices, mesh.edges.shape[0]
    edge_tris = mesh.edge_tris
    inner = edge_tris[:, 1] >= 0
    edge_nodes = mesh.element_nodes[edge_tris[:, 0]]
    ends_mid = np.column_stack([mesh.edges, nv + np.arange(ne)])
    edge_nodes[inner] = np.tile(ends_mid[inner], 2)

    src = mesh.edges.ravel()
    dst = mesh.edges[:, ::-1].ravel()
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=nv)
    rank = np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts)
    v_corners = np.repeat(np.arange(nv)[:, None], counts.max() + 1, axis=1)
    v_corners[src[order], 1 + rank] = dst[order]

    missing = edge_tris < 0
    adj = np.where(missing, edge_tris[:, :1], edge_tris)
    opposite = 3 - mesh.edge_corners.sum(axis=2)
    opposite = np.where(missing, opposite[:, :1], opposite)
    e_corners = np.hstack([mesh.edges, mesh.triangles[adj, opposite]])

    diam = []
    for corners in (v_corners, e_corners):
        pts = mesh.vertices[corners]
        d2 = ((pts[:, :, None, :] - pts[:, None, :, :]) ** 2).sum(axis=3)
        diam.append(np.sqrt(d2.max(axis=(1, 2))))
    return PatchTable(mesh.element_nodes, edge_nodes, np.concatenate(diam))


# -- VTK output ---------------------------------------------------------------

def write_vtk(mesh, path, point_data, cell_data):
    """Legacy ASCII VTK unstructured grid (cell type 5).

    ``point_data``/``cell_data`` map names to arrays; vectors are written as
    3-component VECTORS, scalars as SCALARS.  Point arrays are per vertex.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    blocks = ["# vtk DataFile Version 3.0\nsignorini mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n",
              f"POINTS {nv} double\n", _rows("{:.17g} {:.17g} 0.0\n", mesh.vertices),
              f"CELLS {nt} {4 * nt}\n", _rows("3 {} {} {}\n", mesh.triangles),
              f"CELL_TYPES {nt}\n", "5\n" * nt]
    blocks.append(f"POINT_DATA {nv}\n")
    for name, arr in point_data.items():
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 2:
            blocks += [f"VECTORS {name} double\n", _rows("{:.17g} {:.17g} 0.0\n", arr)]
        else:
            blocks += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                       _rows("{:.17g}\n", arr)]
    blocks.append(f"CELL_DATA {nt}\n")
    for name, arr in cell_data.items():
        blocks += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                   _rows("{:.17g}\n", np.asarray(arr, dtype=float))]
    with open(path, "w") as out:
        out.write("".join(blocks))


def _rows(fmt, arr):
    """One text block with ``fmt`` applied to each row of ``arr``."""
    return (fmt * len(arr)).format(*np.ravel(arr).tolist())
