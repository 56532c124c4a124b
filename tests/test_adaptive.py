import json
import weakref

import numpy as np
import pytest

import signorini.adaptive as ad
import signorini.cli as cli
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

from test_acceptance import point_segment_distance


def test_single_level_no_refine():
    res = ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(levels=1, n0=2))
    assert len(res.records) == 1
    assert res.records[0].level == 0
    assert res.records[0].marked.size == 0


def test_each_level_frees_its_stiffness_system(monkeypatch):
    # a level's K must be gone before the next level assembles and factors
    systems = []
    assemble = fem.assemble

    def spy(*args, **kwargs):
        alive = [level for level, ref in enumerate(systems) if ref() is not None]
        assert not alive, f"SparseSystem of level(s) {alive} alive at level {len(systems)}"
        system = assemble(*args, **kwargs)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(fem, "assemble", spy)
    ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(levels=4, n0=2))
    assert len(systems) == 4


def test_ndof_strictly_increasing_and_marks_nonempty():
    res = ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(levels=5, n0=2))
    ndofs = [r.ndof for r in res.records]
    assert all(a < b for a, b in zip(ndofs, ndofs[1:]))
    assert all(r.marked.size > 0 for r in res.records[:-1])


def test_uniform_flag_marks_everything():
    res = ad.adapt(prb.bottom_contact_benchmark(),
                   ad.AdaptiveParams(levels=3, n0=2, uniform=True))
    # uniform bisection of all triangles doubles the count every level
    assert res.records[0].marked.size == 8
    assert res.records[1].marked.size == 16


def test_efficiency_index_reliable(solved71):
    res = ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(levels=4, n0=4))
    for r in res.records:
        assert r.eff_index >= 1.0


def test_residual_terms_decay():
    # smooth benchmark: the volume-residual and stress-jump terms shrink
    # monotonically under refinement, and the tangential contact traction
    # (zero in the limit, frictionless) decays as well
    res = ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(levels=6, n0=4))
    eta1 = [r.eta[0] for r in res.records]
    eta2 = [r.eta[1] for r in res.records]
    eta4 = [r.eta[3] for r in res.records]
    assert all(a > b for a, b in zip(eta1, eta1[1:]))
    assert all(a > b for a, b in zip(eta2, eta2[1:]))
    assert eta4[-1] < 0.05 * eta4[0]


def test_wedge_neumann_term_positive_at_level_zero():
    res = ad.adapt(prb.rigid_wedge_push(), ad.AdaptiveParams(levels=1, n0=4))
    assert res.records[0].eta[2] > 0.0


def test_csv_outputs_deterministic(tmp_path):
    p = prb.bottom_contact_benchmark()
    params = ad.AdaptiveParams(levels=4, n0=2)
    for name in ("a", "b"):
        ad.adapt(p, params, out_dir=tmp_path / name, write_trace=True)

    def strip_seconds(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    # identical configuration reproduces every numeric column bitwise; the
    # trailing wall-time column is excluded (timing is not reproducible)
    assert strip_seconds(tmp_path / "a" / "convergence.csv") == \
        strip_seconds(tmp_path / "b" / "convergence.csv")
    assert (tmp_path / "a" / "pdas_trace.csv").read_bytes() == \
        (tmp_path / "b" / "pdas_trace.csv").read_bytes()
    assert (tmp_path / "a" / "config.json").read_bytes() == \
        (tmp_path / "b" / "config.json").read_bytes()


def test_output_files_and_csv_header(tmp_path):
    out = tmp_path / "run"
    ad.adapt(prb.rigid_wedge_push(), ad.AdaptiveParams(levels=3, n0=2),
             out_dir=out, write_trace=True)
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == ("level,ndof,hmin,lh,eta1,eta2,eta3,eta4,eta5,eta6,eta7,"
                        "psi,eta_h,err_inf,eff_index,active_nodes,seconds")
    assert len(lines) == 4
    for lvl in range(3):
        assert (out / f"level_{lvl}.vtk").exists()
        assert (out / f"density_{lvl}.csv").exists()
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["problem"] == "ex72" and cfg["levels"] == 3
    trace_lines = (out / "pdas_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "level,iteration,active_size,residual_norm"
    assert len(trace_lines) > 3


def test_error_column_nan_without_exact(tmp_path):
    res = ad.adapt(prb.rigid_wedge_push(), ad.AdaptiveParams(levels=2, n0=2))
    assert np.isnan(res.records[0].err_inf)
    assert np.isnan(res.records[0].eff_index)


@pytest.mark.parametrize("name", ["ex71", "ex72"])
def test_first_mesh_keeps_contact_distances_and_corners(name):
    # criterion 9's near_fraction reads the contact edges and the
    # Dirichlet-Neumann corners of the run's first mesh: bisection must leave
    # both in place
    first = prb.get_problem(name).mesh(4)
    mesh = first
    for k in range(4):
        mesh = msh.refine(mesh, np.arange(k % 3, mesh.num_triangles, 3))
    pts = np.random.default_rng(5).uniform(-1.0, 2.0, size=(200, 2))

    def contact_distance(m):
        seg = m.vertices[m.boundary_edges[m.boundary_tags == msh.CONTACT]]
        return point_segment_distance(pts, seg[:, 0], seg[:, 1])

    def corners(m):
        return np.intersect1d(m.boundary_edges[m.boundary_tags == msh.DIRICHLET],
                              m.boundary_edges[m.boundary_tags == msh.NEUMANN])

    assert (mesh.boundary_tags == msh.CONTACT).sum() > (first.boundary_tags == msh.CONTACT).sum()
    assert np.allclose(contact_distance(mesh), contact_distance(first), rtol=1e-14, atol=1e-15)
    assert np.array_equal(corners(mesh), corners(first))
    assert np.array_equal(mesh.vertices[corners(mesh)], first.vertices[corners(first)])


def test_params_validation():
    with pytest.raises(ValueError):
        ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(levels=0))
    with pytest.raises(ValueError):
        ad.adapt(prb.bottom_contact_benchmark(), ad.AdaptiveParams(theta=1.5))


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli"
    rc = cli.main(["solve", "--problem", "ex71", "--levels", "3", "--n0", "2",
                   "--out", str(out)])
    assert rc == 0
    assert (out / "convergence.csv").exists()
    assert (out / "level_2.vtk").exists()
    assert not (out / "pdas_trace.csv").exists()
    printed = capsys.readouterr().out
    assert "ex71" in printed and "ndof" in printed


def test_cli_problem_file(tmp_path):
    cfg = {"tagging": "right_contact", "material": {"mu": 2.0, "lam": 1.0},
           "dirichlet": [0.05, 0.0], "chi": -0.01}
    path = tmp_path / "push.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main(["solve", "--problem", str(path), "--levels", "2", "--n0", "2",
                   "--out", str(out), "--uniform"])
    assert rc == 0
    assert json.loads((out / "config.json").read_text())["uniform"] is True


def cli_usage_error(tmp_path, capsys, *args):
    """Run the CLI on bad input; return its one-line error message."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", *args, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()
    return err.strip().splitlines()[-1]


def test_cli_unknown_problem_is_a_usage_error(tmp_path, capsys):
    line = cli_usage_error(tmp_path, capsys, "--problem", "ex73")
    assert line.startswith("signorini: error: ")
    assert "'ex73'" in line and "ex71" in line and "ex72" in line


def test_cli_malformed_problem_file_names_file_and_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tagging": "bottom_contact",
                                "material": {"E": "ten", "nu": 0.3}}))
    line = cli_usage_error(tmp_path, capsys, "--problem", str(path))
    assert line.startswith(f"signorini: error: problem file {path}: material.E ")


@pytest.mark.parametrize("content", [b'{"tagging": "bottom_contact",', b'\xff{"tagging": 1}'],
                         ids=["truncated", "not_utf8"])
def test_cli_problem_file_syntax_error_names_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    line = cli_usage_error(tmp_path, capsys, "--problem", str(path))
    assert line.startswith(f"signorini: error: problem file {path}:")


def test_cli_rejects_zero_levels(tmp_path, capsys):
    line = cli_usage_error(tmp_path, capsys, "--problem", "ex71", "--levels", "0")
    assert line == "signorini: error: need at least one level"


def test_cli_rejects_zero_subdivisions(tmp_path, capsys):
    line = cli_usage_error(tmp_path, capsys, "--problem", "ex71", "--n0", "0")
    assert line == "signorini: error: initial subdivision must be >= 1"


def test_cli_has_no_c0_option(tmp_path, capsys):
    # eta_h carries the fixed constant estimator.C0
    line = cli_usage_error(tmp_path, capsys, "--problem", "ex71", "--c0", "0.5")
    assert line == "signorini: error: unrecognized arguments: --c0 0.5"


@pytest.mark.parametrize("under, why", [(False, "File exists"), (True, "Not a directory")],
                         ids=["file", "path_under_file"])
def test_cli_out_naming_a_file_is_a_usage_error(tmp_path, capsys, under, why):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if under else taken
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--problem", "ex71", "--levels", "1", "--n0", "2",
                  "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == \
        f"signorini: error: cannot create output directory {out}: {why}"
    assert taken.read_text() == "kept\n"


def test_cli_overflowing_load_raises_solver_error_with_level(tmp_path):
    # finite data that passes every input check, but whose solve overflows
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"tagging": "bottom_contact", "chi": 0.0,
                                "f": [1e308, -1e308]}))
    with pytest.raises(vi.SolverError,
                       match=r"^level 0: non-finite solution in active-set iteration 0 "
                             r"\(50 dofs\)$"):
        cli.main(["solve", "--problem", str(path), "--levels", "3", "--n0", "2",
                  "--out", str(tmp_path / "out")])


def test_cli_overflowing_stiffness_raises_solver_error_before_factoring(tmp_path):
    # a Young's modulus so large that the element stiffness overflows
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"tagging": "bottom_contact",
                                "material": {"E": 1e308, "nu": 0.3}, "f": [0, -1]}))
    with pytest.raises(vi.SolverError,
                       match=r"^level 0: stiffness or load is not finite \(50 dofs\)$"):
        cli.main(["solve", "--problem", str(path), "--levels", "3", "--n0", "2",
                  "--out", str(tmp_path / "out")])


def test_zero_indicators_mark_the_largest_triangle(tmp_path):
    # no load and a gap that is never closed: u = 0 and every indicator is 0
    path = tmp_path / "unloaded.json"
    path.write_text(json.dumps({"tagging": "bottom_contact", "chi": 1.0}))
    problem = prb.get_problem(str(path))
    res = ad.adapt(problem, ad.AdaptiveParams(levels=3, n0=2))
    assert [r.ndof for r in res.records] == [40, 48, 56]
    assert all(r.eta_h == 0.0 for r in res.records)
    mesh = problem.mesh(2)
    for r in res.records[:-1]:
        assert r.marked.tolist() == [int(np.argmax(mesh.diameters))]
        mesh = msh.refine(mesh, r.marked)
    assert np.array_equal(mesh.triangles, res.mesh.triangles)
