import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import signorini.fem as fem
import signorini.mesh as msh


def bottom_mesh(n):
    return msh.generate_unit_square(n, msh.tag_bottom_contact)


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


def test_refine_empty_returns_same_mesh():
    m = bottom_mesh(2)
    assert msh.refine(m, []) is m


def test_min_angle_stable_over_ten_uniform_refinements():
    m = bottom_mesh(1)
    base = m.min_angle()
    assert np.isclose(base, np.pi / 4, atol=1e-12)
    m10 = msh.uniform_refine(m, 10)
    assert abs(m10.min_angle() - base) < 1e-12
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


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=0, max_size=12),
       st.integers(min_value=1, max_value=3))
def test_refinement_keeps_invariants_under_random_marks(marks, rounds):
    m = bottom_mesh(2)
    angle0 = m.min_angle()
    for _ in range(rounds):
        marked = sorted({k % m.num_triangles for k in marks})
        m = msh.refine(m, marked)   # constructor re-validates conformity
        marks = [3 * k + 1 for k in marks]
    assert np.isclose(m.areas.sum(), 1.0, atol=1e-12)
    assert m.min_angle() >= angle0 - 1e-12
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


# -- patches -------------------------------------------------------------------

def patch_edges(patches, p, ids):
    """The edges among ``ids`` that lie on the patch of node p."""
    return ids[(patches.edge_nodes[ids] == p).any(axis=1)].tolist()


def test_patch_interior_vertex_valence_six():
    m = bottom_mesh(4)
    dm = fem.DofMap(m)
    patches = msh.build_patches(m)
    interior = [v for v in range(m.num_vertices) if dm.kind[v] == "i"]
    assert interior
    assert all(len(patches.tris(v)) == 6 for v in interior)


def test_patch_interior_edge_midpoint():
    m = bottom_mesh(2)
    patches = msh.build_patches(m)
    inner = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    p = m.num_vertices + inner[0]
    assert len(patches.tris(p)) == 2
    assert patch_edges(patches, p, inner) == [inner[0]]


def test_patch_contact_edge_midpoint():
    m = bottom_mesh(2)
    patches = msh.build_patches(m)
    con = m.boundary_edge_ids[m.boundary_tags == "C"]
    p = m.num_vertices + con[0]
    assert patch_edges(patches, p, con) == [con[0]]
    assert len(patches.tris(p)) == 1
    # edges of a one-triangle patch all lie on the patch boundary
    inner = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    assert patch_edges(patches, p, inner) == []


def test_patch_diameter_positive_and_consistent():
    m = bottom_mesh(3)
    dm = fem.DofMap(m)
    patches = msh.build_patches(m)
    assert (patches.diameter > 0).all()
    v = next(v for v in range(m.num_vertices) if dm.kind[v] == "i")
    pts = m.vertices[np.unique(m.triangles[patches.tris(v)])]
    brute = max(np.linalg.norm(a - b) for a in pts for b in pts)
    assert np.isclose(patches.diameter[v], brute, atol=1e-15)


# -- file formats ----------------------------------------------------------------

def test_native_roundtrip(tmp_path):
    m = msh.refine(bottom_mesh(2), [0, 5])
    path = tmp_path / "mesh.txt"
    msh.write_native(m, path)
    back = msh.read_native(path)
    assert np.allclose(back.vertices, m.vertices)
    assert (back.triangles == m.triangles).all()
    assert (np.sort(back.boundary_edges, axis=1) == np.sort(m.boundary_edges, axis=1)).all()
    assert (back.boundary_tags == m.boundary_tags).all()


def test_native_header(tmp_path):
    m = bottom_mesh(1)
    path = tmp_path / "mesh.txt"
    msh.write_native(m, path)
    first = path.read_text().splitlines()[0]
    assert first == f"{m.num_vertices} {m.num_triangles} {len(m.boundary_edges)}"


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
