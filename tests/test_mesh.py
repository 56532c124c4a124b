import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import signorini.fem as fem
import signorini.mesh as msh


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
    lengths = m.edge_length(m.boundary_edge_ids)
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
    # same closure; returns triangles, levels, boundary edges and tags
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
    b_edges, b_tags = [], []
    for (u, v), tag, eid in zip(mesh.boundary_edges, mesh.boundary_tags, mesh.boundary_edge_ids):
        if split[eid]:
            m = mid_of[eid]
            b_edges.extend([(u, m), (m, v)])
            b_tags.extend([tag, tag])
        else:
            b_edges.append((u, v))
            b_tags.append(tag)
    return np.array(new_tris), np.array(new_levels), np.array(b_edges), np.array(b_tags)


@pytest.mark.parametrize("tagging", [msh.tag_bottom_contact, msh.tag_right_contact])
def test_refine_keeps_loop_order(tagging):
    m = msh.generate_unit_square(3, tagging)
    rng = np.random.default_rng(11)
    for k in range(8):
        # mixed marking: a random fifth, every third, or a single triangle
        marked = (rng.choice(m.num_triangles, m.num_triangles // 5, replace=False),
                  np.arange(k % 3, m.num_triangles, 3),
                  [m.num_triangles - 1])[k % 3]
        tris, levels, b_edges, b_tags = _loop_refine_children(m, marked)
        m = msh.refine(m, marked)
        assert np.array_equal(m.triangles, tris)
        assert np.array_equal(m.levels, levels)
        assert np.array_equal(m.boundary_edges, b_edges)
        assert np.array_equal(m.boundary_tags, b_tags)
    assert m.levels.max() >= 6


def mixed_mesh(tagging):
    """Four rounds of bisection of every third triangle: mixed levels."""
    m = msh.generate_unit_square(3, tagging)
    for k in range(4):
        m = msh.refine(m, np.arange(k % 3, m.num_triangles, 3))
    assert m.levels.max() > m.levels.min()
    return m


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
    assert np.array_equal(pts[:, 1], fem.DofMap(m).coords[m.num_vertices + ids])
    assert np.array_equal(pts[:, 2], m.vertices[m.edges[ids, 1]])
    assert np.array_equal(m.edge_points(ids, np.tile(s, (ids.size, 1))), pts)


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
    # boundary tags are inherited: the bottom stays contact, the top Dirichlet
    mids = m.vertices[m.boundary_edges].mean(axis=1)
    assert all(tag == ("C" if my < 1e-9 else "D" if my > 1 - 1e-9 else "N")
               for (mx, my), tag in zip(mids, m.boundary_tags))


def test_mesh_rejects_flat_and_inverted_triangle():
    edges = [(0, 1), (1, 2), (2, 0)]
    for corner in ((0.5, 0.0), (0.0, -1.0)):     # flat, then clockwise
        with pytest.raises(msh.MeshError, match="non-positive area"):
            msh.Mesh([(0.0, 0.0), (1.0, 0.0), corner], [(0, 1, 2)], edges,
                     ["D", "N", "N"])


def test_dirichlet_contact_closure_overlap_rejected():
    # tag rule putting contact right next to Dirichlet on a shared vertex
    def bad(x, y):
        if y < 1e-12:
            return "C" if x < 0.5 else "D"
        return "N"
    with pytest.raises(msh.MeshError):
        msh.generate_unit_square(2, bad)


_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
_SQUARE_TRIS = [(0, 1, 2), (0, 2, 3)]
# three triangles on the edge (0, 1): above, below and above again
_FAN = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)]
_FAN_TRIS = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
_FAN_EDGES = [(1, 2), (2, 0), (0, 3), (3, 1), (1, 4), (4, 0)]

_BAD_MESHES = {
    "edge_in_three_triangles": (_FAN, _FAN_TRIS, _FAN_EDGES, "NNNNNN",
                                "more than two triangles"),
    "tagged_edge_not_in_mesh": (_SQUARE, _SQUARE_TRIS, [(0, 1), (1, 2), (2, 3), (1, 3)],
                                "DNCN", "boundary edge"),
    "boundary_edge_untagged": (_SQUARE, _SQUARE_TRIS, [(0, 1), (1, 2), (2, 3)],
                               "DNC", "topological boundary"),
    "unknown_tag": (_SQUARE, _SQUARE_TRIS, [(0, 1), (1, 2), (2, 3), (3, 0)],
                    "DNXN", "unknown boundary tag"),
    "interior_edge_tagged": (_SQUARE, _SQUARE_TRIS, [(0, 1), (1, 2), (2, 3), (0, 2)],
                             "DNCN", "topological boundary"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MESHES))
def test_mesh_rejects_bad_connectivity(case):
    vertices, tris, edges, tags, match = _BAD_MESHES[case]
    with pytest.raises(msh.MeshError, match=match):
        msh.Mesh(vertices, tris, edges, list(tags))


# -- patches -------------------------------------------------------------------

def patch_size(patches, p):
    """Number of triangles on the patch of node p."""
    return int((patches.tri_nodes == p).any(axis=1).sum())


def patch_edges(patches, p, ids):
    """The edges among ``ids`` that lie on the patch of node p."""
    return ids[(patches.edge_nodes[ids] == p).any(axis=1)].tolist()


def test_patch_interior_vertex_valence_six():
    m = bottom_mesh(4)
    dm = fem.DofMap(m)
    patches = msh.build_patches(m)
    interior = [v for v in range(m.num_vertices) if dm.kind[v] == "i"]
    assert interior
    assert all(patch_size(patches, v) == 6 for v in interior)


def test_patch_interior_edge_midpoint():
    m = bottom_mesh(2)
    patches = msh.build_patches(m)
    inner = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    p = m.num_vertices + inner[0]
    assert patch_size(patches, p) == 2
    assert patch_edges(patches, p, inner) == [inner[0]]


def test_patch_contact_edge_midpoint():
    m = bottom_mesh(2)
    patches = msh.build_patches(m)
    con = m.boundary_edge_ids[m.boundary_tags == "C"]
    p = m.num_vertices + con[0]
    assert patch_edges(patches, p, con) == [con[0]]
    assert patch_size(patches, p) == 1
    # edges of a one-triangle patch all lie on the patch boundary
    inner = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    assert patch_edges(patches, p, inner) == []


def test_patch_diameter_positive_and_consistent():
    m = bottom_mesh(3)
    dm = fem.DofMap(m)
    patches = msh.build_patches(m)
    assert (patches.diameter > 0).all()
    v = next(v for v in range(m.num_vertices) if dm.kind[v] == "i")
    pts = m.vertices[np.unique(m.triangles[(patches.tri_nodes == v).any(axis=1)])]
    brute = max(np.linalg.norm(a - b) for a in pts for b in pts)
    assert np.isclose(patches.diameter[v], brute, atol=1e-15)


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
