import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import signorini.estimator as est
import signorini.fem as fem
import signorini.mesh as msh

from test_estimator import report_for, zero_problem


def bottom_mesh(n):
    return msh.generate_unit_square(n, msh.tag_bottom_contact)


def min_angle(mesh):
    """Smallest interior angle over all triangles, in radians."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cosv = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.arccos(np.clip(cosv, -1.0, 1.0)))
    return float(np.min(angles))


def uniform_refine(mesh, times):
    for _ in range(times):
        mesh = msh.refine(mesh, np.arange(mesh.num_triangles))
    return mesh


def test_unit_square_n1_counts_and_tags():
    m = bottom_mesh(1)
    assert m.num_triangles == 2
    tags = sorted(m.boundary_tags)
    assert tags == ["C", "D", "N", "N"]
    (c_edge,) = m.boundary_edges[m.boundary_tags == "C"]
    assert np.allclose(m.vertices[c_edge][:, 1], 0.0)
    (d_edge,) = m.boundary_edges[m.boundary_tags == "D"]
    assert np.allclose(m.vertices[d_edge][:, 1], 1.0)


def test_unit_square_n2_boundary_lengths():
    m = bottom_mesh(2)
    assert m.num_triangles == 8
    assert len(m.boundary_edges) == 8
    lengths = m.edge_lengths[m.boundary_edge_ids]
    assert np.allclose(lengths, 0.5)
    # two edges per side
    mids = m.vertices[m.boundary_edges].mean(axis=1)
    for side in (mids[:, 1] == 0, mids[:, 1] == 1, mids[:, 0] == 0, mids[:, 0] == 1):
        assert side.sum() == 2


def test_unit_square_wedge_tagging_contact_on_right():
    m = msh.generate_unit_square(2, msh.tag_right_contact)
    con = m.boundary_edges[m.boundary_tags == "C"]
    assert con.size and np.allclose(m.vertices[con][:, :, 0], 1.0)
    d = m.boundary_edges[m.boundary_tags == "D"]
    assert np.allclose(m.vertices[d][:, :, 0], 0.0)


def edge_tags(mesh):
    """{(min, max) vertex pair: tag} of the boundary edges of ``mesh``."""
    return {tuple(e): t for e, t in zip(mesh.boundary_edges.tolist(), mesh.boundary_tags)}


def _loop_unit_square(n, tagging):
    # the per-cell, per-edge loop generator used to run; the rule is called
    # on one boundary-edge midpoint at a time.  Returns the vertices, the
    # triangles and {(min, max) vertex pair: tag} of the boundary edges
    vertices = np.array([(x, y) for y in np.linspace(0.0, 1.0, n + 1)
                         for x in np.linspace(0.0, 1.0, n + 1)])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v10, v11, v00))
            tris.append((v01, v00, v11))
    b_edges = []
    for i in range(n):
        b_edges.append((vid(i, 0), vid(i + 1, 0)))
        b_edges.append((vid(i, n), vid(i + 1, n)))
    for j in range(n):
        b_edges.append((vid(0, j), vid(0, j + 1)))
        b_edges.append((vid(n, j), vid(n, j + 1)))
    tags = {(a, b): tagging(vertices[[a, b]].mean(axis=0)[None])[0] for a, b in b_edges}
    return vertices, np.array(tris), tags


def tag_irregular(pts):
    """Contact on part of the bottom, Dirichlet on the upper left side."""
    x, y = pts.T
    return np.select([(y < 1e-12) & (x > 0.2) & (x < 0.7), (x < 1e-12) & (y > 0.5)],
                     [msh.CONTACT, msh.DIRICHLET], msh.NEUMANN)


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact,
                                     tag_irregular])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
def test_unit_square_matches_loop_generator(n, tagging):
    m = msh.generate_unit_square(n, tagging)
    vertices, tris, tags = _loop_unit_square(n, tagging)
    for a, b in ((m.vertices, vertices), (m.triangles, tris)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(m.levels, np.zeros(2 * n * n, dtype=np.int64))
    assert edge_tags(m) == tags


def test_generate_rejects_zero():
    with pytest.raises(ValueError):
        msh.generate_unit_square(0, msh.tag_bottom_contact)


def test_refine_all_n1():
    m = msh.refine(bottom_mesh(1), [0, 1])
    assert m.num_triangles >= 4
    assert np.isclose(m.areas.sum(), 1.0, atol=1e-12)


def test_refine_single_conforming():
    m = bottom_mesh(2)
    m2 = msh.refine(m, [3])
    # Mesh validation runs in the constructor; check area and level bookkeeping
    assert np.isclose(m2.areas.sum(), 1.0, atol=1e-12)
    assert m2.levels.max() <= 2
    assert m2.num_triangles > m.num_triangles


@pytest.mark.parametrize("marked", [[2], [-1], [0, 2]])
def test_refine_rejects_out_of_range_triangles(marked):
    with pytest.raises(IndexError, match="invalid triangle index"):
        msh.refine(bottom_mesh(1), marked)


def test_refine_rejects_a_boolean_mask():
    # read as indices, a mask marking triangle 5 would bisect triangles 0 and 1
    m = bottom_mesh(2)
    mask = np.zeros(m.num_triangles, dtype=bool)
    mask[5] = True
    with pytest.raises(TypeError, match="got dtype bool"):
        msh.refine(m, mask)


def test_refine_empty_returns_same_mesh():
    m = bottom_mesh(2)
    assert msh.refine(m, []) is m


def test_min_angle_stable_over_ten_uniform_refinements():
    m = bottom_mesh(1)
    base = min_angle(m)
    assert np.isclose(base, np.pi / 4, atol=1e-12)
    m10 = uniform_refine(m, 10)
    assert abs(min_angle(m10) - base) < 1e-12
    assert np.isclose(m10.areas.sum(), 1.0, atol=1e-12)


def test_inv_jac_matches_linalg_inverse():
    m = msh.generate_unit_square(2, msh.tag_right_contact)
    for k in range(4):
        m = msh.refine(m, np.arange(k, m.num_triangles, 3))
    p = m.vertices[m.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    ref = np.linalg.inv(jac)
    assert m.levels.max() >= 4
    assert np.abs(m.inv_jac - ref).max() <= 1e-14 * np.abs(ref).max()


def _loop_refine_children(mesh, marked):
    # the per-triangle, per-boundary-edge loop refine used to run, with the
    # same closure and boundary tags inherited from the parent edge; returns
    # triangles, levels and {(min, max) vertex pair: tag} of the boundary edges
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    tri_edges = mesh.tri_edges
    split = np.zeros(mesh.edges.shape[0], dtype=bool)
    split[tri_edges[marked, 0]] = True
    while True:
        need = split[tri_edges].any(axis=1) & ~split[tri_edges[:, 0]]
        if not need.any():
            break
        split[tri_edges[need, 0]] = True
    mid_of = np.full(mesh.edges.shape[0], -1, dtype=np.int64)
    mid_of[split] = mesh.num_vertices + np.arange(split.sum())
    new_tris, new_levels = [], []
    for t in range(mesh.num_triangles):
        a, b, c = mesh.triangles[t]
        e0, e1, e2 = tri_edges[t]
        lvl = mesh.levels[t]
        if not split[e0]:
            new_tris.append((a, b, c))
            new_levels.append(lvl)
            continue
        m0 = mid_of[e0]
        for child, echild in (((m0, c, a), e1), ((m0, a, b), e2)):
            if split[echild]:
                p, q, r = child
                m = mid_of[echild]
                new_tris.append((m, r, p))
                new_tris.append((m, p, q))
                new_levels.extend((lvl + 2, lvl + 2))
            else:
                new_tris.append(child)
                new_levels.append(lvl + 1)
    tags = {}
    for (u, v), tag, eid in zip(mesh.boundary_edges, mesh.boundary_tags, mesh.boundary_edge_ids):
        if split[eid]:
            m = mid_of[eid]
            tags[tuple(sorted((u, m)))] = tags[tuple(sorted((m, v)))] = tag
        else:
            tags[tuple(sorted((u, v)))] = tag
    return np.array(new_tris), np.array(new_levels), tags


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact])
def test_refine_keeps_loop_order(tagging):
    m = msh.generate_unit_square(3, tagging)
    rng = np.random.default_rng(11)
    for k in range(8):
        # mixed marking: a random fifth, every third, or a single triangle
        marked = (rng.choice(m.num_triangles, m.num_triangles // 5, replace=False),
                  np.arange(k % 3, m.num_triangles, 3),
                  [m.num_triangles - 1])[k % 3]
        tris, levels, tags = _loop_refine_children(m, marked)
        m = msh.refine(m, marked)
        assert np.array_equal(m.triangles, tris)
        assert np.array_equal(m.levels, levels)
        assert edge_tags(m) == tags
    assert m.levels.max() >= 6


def mixed_mesh(tagging):
    """Four rounds of bisection of every third triangle: mixed levels."""
    m = msh.generate_unit_square(3, tagging)
    for k in range(4):
        m = msh.refine(m, np.arange(k % 3, m.num_triangles, 3))
    assert m.levels.max() > m.levels.min()
    return m


def test_refined_tags_follow_a_rule_that_changes_inside_a_side():
    """After mixed bisection under ``tag_irregular``, each boundary edge has
    the rule's tag at its midpoint, not the tag of its coarse ancestor.  The
    boundary edges are found here as the edges of one triangle, and the rule
    is called on one midpoint at a time."""
    m = mixed_mesh(tag_irregular)
    count = {}
    for tri in m.triangles.tolist():
        for k in range(3):
            edge = tuple(sorted((tri[k], tri[(k + 1) % 3])))
            count[edge] = count.get(edge, 0) + 1
    rule = {e: tag_irregular(m.vertices[list(e)].mean(axis=0)[None])[0]
            for e, c in count.items() if c == 1}
    assert edge_tags(m) == rule
    # the one coarse contact edge is [1/3, 2/3]: its children have midpoints
    # 5/12 and 7/12, while the rule also tags edges of (1/6, 1/3) as contact
    con = m.vertices[m.boundary_edges[m.boundary_tags == msh.CONTACT], 0].mean(axis=1)
    assert 0.2 < con.min() < 1 / 3 and con.max() < 0.7


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact])
def test_outward_normals_of_boundary_edges(tagging):
    m = mixed_mesh(tagging)
    ids = m.boundary_edge_ids
    n = m.outward_normals(ids)
    a, b = m.vertices[m.edges[ids, 0]], m.vertices[m.edges[ids, 1]]
    tri = m.triangles[m.edge_tris[ids, 0]]
    opp = tri[(tri != m.edges[ids, 0, None]) & (tri != m.edges[ids, 1, None])]
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-15)
    assert np.abs(((b - a) * n).sum(axis=1)).max() < 1e-15
    assert (((m.vertices[opp] - a) * n).sum(axis=1) < 0).all()


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact])
def test_edge_corners_hold_the_edge_ends(tagging):
    m = mixed_mesh(tagging)
    for side in (0, 1):
        has = m.edge_tris[:, side] >= 0
        tris = m.edge_tris[has, side, None]
        assert np.array_equal(m.triangles[tris, m.edge_corners[has, side]], m.edges[has])
    assert np.array_equal(m.edge_corners[m.boundary_edge_ids, 1],
                          np.full((m.boundary_edge_ids.size, 2), -1))


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact])
def test_edge_points_give_ends_and_midpoints(tagging):
    m = mixed_mesh(tagging)
    ids = np.random.default_rng(3).permutation(m.edges.shape[0])[: m.edges.shape[0] // 2]
    s = np.array([0.0, 0.5, 1.0])
    pts = m.edge_points(ids, s)
    assert np.array_equal(pts[:, 0], m.vertices[m.edges[ids, 0]])
    assert np.array_equal(pts[:, 1], m.node_coords[m.num_vertices + ids])
    assert np.array_equal(pts[:, 2], m.vertices[m.edges[ids, 1]])
    assert np.array_equal(m.edge_points(ids, np.tile(s, (ids.size, 1))), pts)
    # the P2 node table lists the same three nodes, in the same order
    assert np.array_equal(m.node_coords[m.edge_node_triples[ids]], pts)


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact])
def test_node_table_is_the_one_midpoint_source(tagging):
    """Node nv + e of ``Mesh.node_coords`` is the midpoint of edge e bit for
    bit, and a mixed ``refine`` takes each new vertex from the parent's row
    of its split edge."""
    m = mixed_mesh(tagging)
    nv = m.num_vertices
    assert m.num_nodes == nv + m.edges.shape[0] == m.node_coords.shape[0]
    assert np.array_equal(m.node_coords[:nv], m.vertices)
    ends = m.vertices[m.edges]
    assert np.array_equal(m.node_coords[nv:], (ends[:, 0] + ends[:, 1]) / 2)
    marked = np.arange(1, m.num_triangles, 5)
    child = msh.refine(m, marked)
    assert np.array_equal(child.vertices[:nv], m.vertices)
    # midpoints of distinct edges are distinct, so a row names its edge
    edge_of = {tuple(p): e for e, p in enumerate(m.node_coords[nv:].tolist())}
    split = [edge_of[tuple(p)] for p in child.vertices[nv:].tolist()]
    assert split == sorted(set(split))
    assert set(m.tri_edges[marked, 0]) <= set(split) and len(split) > marked.size
    assert np.array_equal(child.vertices[nv:], m.node_coords[nv + np.array(split)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=0, max_size=12),
       st.integers(min_value=1, max_value=3))
def test_refinement_keeps_invariants_under_random_marks(marks, rounds):
    m = bottom_mesh(2)
    angle0 = min_angle(m)
    for _ in range(rounds):
        marked = sorted({k % m.num_triangles for k in marks})
        m = msh.refine(m, marked)   # constructor re-validates conformity
        marks = [3 * k + 1 for k in marks]
    assert np.isclose(m.areas.sum(), 1.0, atol=1e-12)
    assert min_angle(m) >= angle0 - 1e-12
    # boundary tags follow the rule: the bottom stays contact, the top Dirichlet
    mids = m.vertices[m.boundary_edges].mean(axis=1)
    assert all(tag == ("C" if my < 1e-9 else "D" if my > 1 - 1e-9 else "N")
               for (mx, my), tag in zip(mids, m.boundary_tags))
    # each edge's ends sit at its corners in both triangles, -1 on a missing side
    for side in (0, 1):
        has = m.edge_tris[:, side] >= 0
        assert np.array_equal(m.triangles[m.edge_tris[has, side, None],
                                          m.edge_corners[has, side]], m.edges[has])
        assert (m.edge_corners[~has, side] == -1).all()
    # a midpoint's patch diameter spans the corners of its edge's triangles
    diameter = msh.build_patches(m)
    for e, tris in enumerate(m.edge_tris):
        pts = m.vertices[m.triangles[tris[tris >= 0]]].reshape(-1, 2).tolist()
        brute = max(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)
                    for ax, ay in pts for bx, by in pts)
        assert diameter[m.num_vertices + e] == brute, e


def all_neumann(pts):
    return np.full(len(pts), msh.NEUMANN)


def test_mesh_rejects_flat_and_inverted_triangle():
    for corner in ((0.5, 0.0), (0.0, -1.0)):     # flat, then clockwise
        with pytest.raises(msh.MeshError, match="non-positive area"):
            msh.Mesh([(0.0, 0.0), (1.0, 0.0), corner], [(0, 1, 2)], all_neumann)


def test_dirichlet_contact_closure_overlap_rejected():
    # tag rule putting contact right next to Dirichlet on a shared vertex
    def bad(pts):
        x, y = pts.T
        return np.where(y < 1e-12, np.where(x < 0.5, "C", "D"), "N")
    with pytest.raises(msh.MeshError):
        msh.generate_unit_square(2, bad)


_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
_SQUARE_TRIS = [(0, 1, 2), (0, 2, 3)]
# three triangles on the edge (0, 1): above, below and above again
_FAN = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)]
_FAN_TRIS = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]

_BAD_MESHES = {
    "edge_in_three_triangles": (_FAN, _FAN_TRIS, all_neumann, "more than two triangles"),
    # the rule names a tag outside "D", "N", "C" on the top side
    "unknown_tag": (_SQUARE, _SQUARE_TRIS,
                    lambda pts: np.where(pts[:, 1] > 0.5, "X", msh.NEUMANN),
                    r"unknown boundary tag from the tagging rule in \['N' 'X'\]"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MESHES))
def test_mesh_rejects_bad_connectivity(case):
    vertices, tris, tagging, match = _BAD_MESHES[case]
    with pytest.raises(msh.MeshError, match=match):
        msh.Mesh(vertices, tris, tagging)


def test_diameters_are_longest_edges():
    m = mixed_mesh(msh.tag_right_contact)
    p = m.vertices[m.triangles]
    # side k joins corners k and k + 1, opposite corner k + 2
    sides = [np.linalg.norm(p[:, k] - p[:, (k + 1) % 3], axis=1) for k in range(3)]
    for k in range(3):
        assert np.array_equal(m.edge_lengths[m.tri_edges[:, (k + 2) % 3]], sides[k])
    assert np.array_equal(m.diameters, np.maximum.reduce(sides))


def _with(m, name, value):
    fields = {"vertices": m.vertices, "triangles": m.triangles, name: value}
    return msh.Mesh(**fields, tagging=m.tagging)


def _set_corner(m, value):
    tris = m.triangles.copy()
    tris[0, 0] = value
    return tris


_BAD_ARRAYS = {
    "vertex_id_too_large": ("triangles", lambda m: _set_corner(m, 99),
                            r"triangles holds vertex id 99, outside 0\.\.8"),
    "vertex_id_negative": ("triangles", lambda m: _set_corner(m, -1),
                           r"triangles holds vertex id -1, outside 0\.\.8"),
    "vertices_one_column": ("vertices", lambda m: m.vertices[:, :1],
                            r"vertices has shape \(9, 1\), expected \(n, 2\)"),
    "triangles_two_columns": ("triangles", lambda m: m.triangles[:, :2],
                              r"triangles has shape \(8, 2\), expected \(n, 3\)"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARRAYS))
def test_mesh_rejects_bad_shape_or_vertex_id(case):
    name, make, match = _BAD_ARRAYS[case]
    m = msh.generate_unit_square(2, msh.tag_bottom_contact)
    with pytest.raises(msh.MeshError, match=match):
        _with(m, name, make(m))


@pytest.mark.parametrize("field, what", [("levels", "8 triangles"),
                                         ("boundary_tags", "8 boundary edges")])
def test_mesh_rejects_per_item_array_of_wrong_length(field, what):
    """Levels one short, or a tagging rule that returns one tag too few."""
    m = msh.generate_unit_square(2, msh.tag_bottom_contact)

    def one_short(pts):
        return m.tagging(pts)[:-1]

    levels, tagging = (m.levels[:-1], m.tagging) if field == "levels" else (m.levels, one_short)
    with pytest.raises(msh.MeshError, match=rf"{field} has shape \(7,\).* {what}$"):
        msh.Mesh(m.vertices, m.triangles, tagging, levels)


# -- patches -------------------------------------------------------------------

def patch_size(m, p):
    """Number of triangles on the patch of node p."""
    return int((m.element_nodes == p).any(axis=1).sum())


def patch_edges(m, p, ids):
    """The edges among ``ids``, all interior or all contact edges, that
    ``estimate`` puts on the patch of node p.  One edge at a time, the
    estimator's residual of their kind is 1 on that edge and 0 on the
    others; the edge lies on the patch when p's term of that kind, eta_2 or
    eta_5, is positive."""
    interior = bool((m.edge_tris[ids, 1] >= 0).all())
    on_patch = []
    for e in ids:
        with pytest.MonkeyPatch.context() as mp:
            if interior:
                mp.setattr(est, "_interior_jumps", lambda mesh, end_sig, inner: (inner == e) * 1.0)
            else:
                mp.setattr(est, "_contact_tractions",
                           lambda end_sig, trace: ((trace.edge_ids == e) * 1.0,) * 2)
            report = report_for(zero_problem(), m, np.zeros(2 * m.num_nodes))
        if report.eta_p[1 if interior else 4, p] > 0:
            on_patch.append(int(e))
    return on_patch


def test_patch_interior_vertex_valence_six():
    m = bottom_mesh(4)
    dm = fem.DofMap(m)
    interior = [v for v in range(m.num_vertices) if dm.kind[v] == "i"]
    assert interior
    assert all(patch_size(m, v) == 6 for v in interior)


def test_patch_interior_edge_midpoint():
    m = bottom_mesh(2)
    inner = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    p = m.num_vertices + inner[0]
    assert patch_size(m, p) == 2
    assert patch_edges(m, p, inner) == [inner[0]]


def test_patch_contact_edge_midpoint():
    m = bottom_mesh(2)
    con = m.boundary_edge_ids[m.boundary_tags == "C"]
    p = m.num_vertices + con[0]
    assert patch_edges(m, p, con) == [con[0]]
    assert patch_size(m, p) == 1
    # edges of a one-triangle patch all lie on the patch boundary
    inner = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    assert patch_edges(m, p, inner) == []


def test_patch_diameter_positive_and_consistent():
    # mixed bisections: vertex patches of many valences, boundary edges with
    # one triangle, midpoint patches of one or two triangles
    m = msh.generate_unit_square(3, msh.tag_right_contact)
    for k in range(4):
        m = msh.refine(m, np.arange(k % 3, m.num_triangles, 3))
    assert len(set(np.bincount(m.triangles.ravel()).tolist())) > 3
    diameter = msh.build_patches(m)
    nv = m.num_vertices
    # every ordered pair of corners of the patch's triangles, one at a time
    for p in range(nv + m.edges.shape[0]):
        tris = (np.flatnonzero((m.triangles == p).any(axis=1)) if p < nv
                else m.edge_tris[p - nv][m.edge_tris[p - nv] >= 0])
        pts = m.vertices[np.unique(m.triangles[tris])].tolist()
        brute = max(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)
                    for ax, ay in pts for bx, by in pts)
        assert diameter[p] == brute > 0, p


# -- VTK output ------------------------------------------------------------------

def test_vtk_format(tmp_path):
    m = bottom_mesh(2)
    path = tmp_path / "mesh.vtk"
    disp = np.zeros((m.num_vertices, 2))
    msh.write_vtk(m, path, point_data={"displacement": disp},
                  cell_data={"indicator": np.arange(m.num_triangles, dtype=float)})
    text = path.read_text().splitlines()
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert text[4] == f"POINTS {m.num_vertices} double"
    k = text.index(f"CELLS {m.num_triangles} {4 * m.num_triangles}")
    cell_types = text.index(f"CELL_TYPES {m.num_triangles}")
    assert all(line.startswith("3 ") for line in text[k + 1:k + 1 + m.num_triangles])
    assert text[cell_types + 1] == "5"
    assert "VECTORS displacement double" in text
    assert "SCALARS indicator double 1" in text


def _write_vtk_line_by_line(mesh, path, point_data, cell_data):
    # the writer as it was before block formatting: one write per line
    with open(path, "w") as out:
        out.write("# vtk DataFile Version 3.0\n")
        out.write("signorini mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        out.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            out.write(f"{x:.17g} {y:.17g} 0.0\n")
        nt = mesh.num_triangles
        out.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            out.write(f"3 {a} {b} {c}\n")
        out.write(f"CELL_TYPES {nt}\n")
        out.write("\n".join(["5"] * nt) + "\n")
        out.write(f"POINT_DATA {mesh.num_vertices}\n")
        for name, arr in point_data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 2:
                out.write(f"VECTORS {name} double\n")
                for vx, vy in arr:
                    out.write(f"{vx:.17g} {vy:.17g} 0.0\n")
            else:
                out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in arr:
                    out.write(f"{v:.17g}\n")
        out.write(f"CELL_DATA {nt}\n")
        for name, arr in cell_data.items():
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in np.asarray(arr, dtype=float):
                out.write(f"{v:.17g}\n")


def test_vtk_bytes_match_line_writer(tmp_path):
    m = bottom_mesh(3)
    m = msh.refine(m, np.arange(0, m.num_triangles, 2))
    rng = np.random.default_rng(3)
    scale = 10.0 ** rng.integers(-20, 20, (m.num_vertices, 2))
    disp = rng.standard_normal((m.num_vertices, 2)) * scale
    disp[0] = [-0.0, 0.0]
    point_data = {"displacement": disp, "multiplier": rng.standard_normal(m.num_vertices)}
    cell_data = {"indicator": rng.random(m.num_triangles) * 1e-9,
                 "level": m.levels.astype(float)}
    msh.write_vtk(m, tmp_path / "block.vtk", point_data=point_data, cell_data=cell_data)
    _write_vtk_line_by_line(m, tmp_path / "lines.vtk", point_data, cell_data)
    assert (tmp_path / "block.vtk").read_bytes() == (tmp_path / "lines.vtk").read_bytes()
