"""Conforming triangle meshes: boundary tags, patch diameters, bisection refinement.

A mesh is immutable; ``refine`` returns a new one.  Each triangle stores its
bisection peak as the first vertex, so the refinement edge is the edge
opposite to it.  Marked refinement uses newest-vertex bisection with closure,
which keeps the minimum angle bounded over arbitrarily many refinements.
The boundary is the edges with one triangle, tagged by the problem's rule.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DIRICHLET = "D"
NEUMANN = "N"
CONTACT = "C"
TAGS = (DIRICHLET, NEUMANN, CONTACT)


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a polygonal domain.

    vertices   (nv, 2) coordinates
    triangles  (nt, 3) vertex indices, positively oriented; the edge
               opposite the first vertex is the refinement edge
    tagging    rule mapping the (nb, 2) midpoints of the edges with one
               triangle to (nb,) tags "D", "N" or "C"; it runs on construction
    levels     (nt,) bisection generation of each triangle
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tagging: Callable
    levels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        levels = np.zeros(len(self.triangles)) if self.levels is None else self.levels
        object.__setattr__(self, "levels", np.asarray(levels, dtype=np.int64))
        for name, arr, cols in (("vertices", self.vertices, 2), ("triangles", self.triangles, 3)):
            if arr.ndim != 2 or arr.shape[1] != cols:
                raise MeshError(f"{name} has shape {arr.shape}, expected (n, {cols})")
        bad = (self.triangles < 0) | (self.triangles >= self.num_vertices)
        if bad.any():
            raise MeshError(f"triangles holds vertex id {self.triangles[bad][0]}, outside "
                            f"0..{self.num_vertices - 1}")
        if self.levels.shape != (self.num_triangles,):
            raise MeshError(f"levels has shape {self.levels.shape}, but the mesh has "
                            f"{self.num_triangles} triangles")
        if self.triangles.size and self.areas.min() <= 0.0:
            bad = int(np.argmin(self.areas))
            raise MeshError(f"triangle {bad} has non-positive area {self.areas[bad]}")
        # closures of the Dirichlet and contact boundaries must not intersect
        d_verts = self.boundary_edges[self.boundary_tags == DIRICHLET]
        c_verts = self.boundary_edges[self.boundary_tags == CONTACT]
        if np.intersect1d(d_verts, c_verts).size:
            raise MeshError("Dirichlet and contact boundary closures intersect")

    # -- derived connectivity -------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_nodes(self):
        return self.num_vertices + self.edges.shape[0]

    @cached_property
    def _edge_table(self):
        """Edges, triangle-edge ids and edge-triangle adjacency from one
        stable sort of the triangle-edge keys.  Entry 3 t + j is the edge
        opposite corner j of triangle t; each run of equal keys is one edge,
        and its 1 or 2 entries are its triangles in ascending order."""
        pairs = np.sort(self.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
        key = pairs[:, 0] * self.num_vertices + pairs[:, 1]
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
        edge_tris = order[np.column_stack([starts, starts + ~outer])] // 3
        edge_tris[outer, 1] = -1
        return pairs[order[starts]], tri_edges.reshape(-1, 3), edge_tris

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

    @cached_property
    def edge_corners(self):
        """(ne, 2 sides, 2 ends) local corner of ``edges[e, end]`` in triangle
        ``edge_tris[e, side]``, found among that triangle's corners; -1 on the
        missing side of a boundary edge.  The corner opposite the edge is 3
        minus the sum of its two corners."""
        found = (self.triangles[self.edge_tris][:, :, None, :]
                 == self.edges[:, None, :, None]).argmax(-1)
        return np.where(self.edge_tris[:, :, None] < 0, -1, found)

    @cached_property
    def boundary_edge_ids(self):
        """(nb,) ascending ids in ``edges`` of the edges with one triangle."""
        return np.flatnonzero(self.edge_tris[:, 1] < 0)

    @property
    def boundary_edges(self):
        """(nb, 2) vertex pairs (min, max) of the boundary edges."""
        return self.edges[self.boundary_edge_ids]

    @cached_property
    def boundary_tags(self):
        """(nb,) tag of each boundary edge: the rule ``tagging`` at its midpoint."""
        mids = self.node_coords[self.num_vertices + self.boundary_edge_ids]
        tags = np.asarray(self.tagging(mids))
        if tags.shape != self.boundary_edge_ids.shape:
            raise MeshError(f"boundary_tags has shape {tags.shape} from the tagging rule, "
                            f"but the mesh has {self.boundary_edge_ids.size} boundary edges")
        if not np.isin(tags, TAGS).all():
            raise MeshError(f"unknown boundary tag from the tagging rule in {np.unique(tags)}")
        return tags.astype("<U1")

    @cached_property
    def node_coords(self):
        """(num_nodes, 2) P2 node coordinates: vertices, then edge e's midpoint as nv + e."""
        return np.vstack([self.vertices, self.vertices[self.edges].mean(axis=1)])

    @cached_property
    def element_nodes(self):
        """(nt, 6) P2 node ids in local order: the 3 vertices, then the
        midpoints of the edges opposite them (node nv + e for edge e)."""
        return np.hstack([self.triangles, self.num_vertices + self.tri_edges])

    @cached_property
    def edge_node_triples(self):
        """(ne, 3) P2 nodes of each edge: first end, midpoint nv + e, second end."""
        return np.insert(self.edges, 1, self.num_vertices + np.arange(len(self.edges)), axis=1)

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
        inv = np.stack([b[:, 1], -b[:, 0], -a[:, 1], a[:, 0]], axis=1).reshape(-1, 2, 2)
        return inv / (2.0 * self.areas)[:, None, None]

    @cached_property
    def edge_lengths(self):
        """(ne,) length of each edge."""
        ends = self.vertices[self.edges]
        return np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)

    @cached_property
    def diameters(self):
        """(nt,) longest edge of each triangle."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

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


# -- structured generation ----------------------------------------------------

def tag_bottom_contact(pts):
    """Contact on y=0, Dirichlet on y=1, Neumann on the two sides."""
    y = pts[:, 1]
    return np.select([y < 1e-12, y > 1.0 - 1e-12], [CONTACT, DIRICHLET], NEUMANN)


def tag_right_contact(pts):
    """Contact on x=1, Dirichlet on x=0, Neumann on top and bottom."""
    x = pts[:, 0]
    return np.select([x > 1.0 - 1e-12, x < 1e-12], [CONTACT, DIRICHLET], NEUMANN)


def generate_unit_square(n, tagging):
    """Structured mesh of (0,1)^2 with 2*n^2 right isoceles triangles.

    Every cell is split along its main diagonal; the right-angle vertex is
    the bisection peak, so the refinement edge is the hypotenuse and newest
    vertex bisection reproduces the 45-degree minimum angle exactly.
    Vertices run row by row from y=0; each cell, row by row, gives its
    lower-right then its upper-left triangle.  ``tagging`` is the boundary
    rule (see ``Mesh``) of this mesh and of every mesh refined from it.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)      # ids[j, i] at (x_i, y_j)
    v00, v10, v01, v11 = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    # lower-right (v10, v11, v00) with its peak at the right angle, upper-left (v01, v00, v11)
    tris = np.stack([v10, v11, v00, v01, v00, v11], axis=-1).reshape(-1, 3)
    return Mesh(vertices, tris, tagging)


# -- refinement ---------------------------------------------------------------

def refine(mesh, marked):
    """Bisect every marked triangle; closure restores conformity.

    ``marked`` holds integer triangle indices; a boolean mask is an error.
    Children carry level = parent level + number of bisections.  The child
    tags its boundary with ``mesh.tagging``, so a rule that changes inside a
    side is followed at every level instead of inherited from coarse edges.
    """
    marked = np.asarray(marked)
    if marked.size == 0:
        return mesh
    if marked.dtype.kind not in "iu":
        raise TypeError(f"marked must hold triangle indices, got dtype {marked.dtype}")
    marked = np.unique(marked.astype(np.int64))
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

    split_ids = np.flatnonzero(split)
    mid_of = np.full(mesh.edges.shape[0], -1, dtype=np.int64)
    mid_of[split_ids] = mesh.num_vertices + np.arange(split_ids.size)
    new_vertices = np.vstack([mesh.vertices, mesh.node_coords[mesh.num_vertices + split_ids]])

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

    return Mesh(new_vertices, new_tris, mesh.tagging, new_levels)


# -- patches ------------------------------------------------------------------

def build_patches(mesh):
    """(num_nodes,) diameter h_p of the patch of each quadratic node of
    ``mesh``: the largest distance between two corners of the triangles
    whose six P2 nodes include p.

    The corners of a vertex patch are the vertex and its edge neighbours;
    those of a midpoint patch are the corners of the edge's triangles, where
    the missing side of a boundary edge repeats side 0.  Rows are padded with
    a repeated corner, which adds only a zero or a repeated distance.
    """
    nv = mesh.num_vertices
    src = mesh.edges.ravel()
    dst = mesh.edges[:, ::-1].ravel()
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=nv)
    rank = np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts)
    v_corners = np.repeat(np.arange(nv)[:, None], counts.max() + 1, axis=1)
    v_corners[src[order], 1 + rank] = dst[order]

    adj = np.where(mesh.edge_tris < 0, mesh.edge_tris[:, :1], mesh.edge_tris)
    e_corners = mesh.triangles[adj].reshape(-1, 6)

    diam = []
    for corners in (v_corners, e_corners):
        i, j = np.triu_indices(corners.shape[1], 1)
        x, y = mesh.vertices[corners, 0], mesh.vertices[corners, 1]
        d2 = (x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2
        diam.append(np.sqrt(d2.max(axis=1)))
    return np.concatenate(diam)


# -- VTK output ---------------------------------------------------------------

def write_vtk(mesh, path, point_data, cell_data):
    """Legacy ASCII VTK unstructured grid (cell type 5).

    ``point_data``/``cell_data`` map names to arrays; vectors are written as
    3-component VECTORS, scalars as SCALARS.  Point arrays are per vertex.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    blocks = ["# vtk DataFile Version 3.0\nsignorini mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n",
              f"POINTS {nv} double\n", format_rows("{:.17g} {:.17g} 0.0\n", mesh.vertices),
              f"CELLS {nt} {4 * nt}\n", format_rows("3 {} {} {}\n", mesh.triangles),
              f"CELL_TYPES {nt}\n", "5\n" * nt, f"POINT_DATA {nv}\n"]
    for name, arr in point_data.items():
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 2:
            blocks += [f"VECTORS {name} double\n", format_rows("{:.17g} {:.17g} 0.0\n", arr)]
        else:
            blocks += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                       format_rows("{:.17g}\n", arr)]
    blocks.append(f"CELL_DATA {nt}\n")
    for name, arr in cell_data.items():
        blocks += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                   format_rows("{:.17g}\n", np.asarray(arr, dtype=float))]
    with open(path, "w") as out:
        out.write("".join(blocks))


def format_rows(fmt, arr):
    """One text block with ``fmt`` applied to each row of ``arr``."""
    return (fmt * len(arr)).format(*np.ravel(arr).tolist())
