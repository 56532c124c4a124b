import dataclasses
import json
import re

import numpy as np
import pytest

import signorini.adaptive as ad
import signorini.density as dens
import signorini.fem as fem
import signorini.problems as prb

from conftest import interpolate


def test_benchmark_exact_solution_boundary_values():
    p = prb.bottom_contact_benchmark()
    xs = np.linspace(0.0, 1.0, 11)
    # in contact along the whole bottom edge: u_n = -u2 = 0 = chi
    bottom = np.column_stack([xs, np.zeros(11)])
    assert np.abs(p.exact(bottom)[:, 1]).max() < 1e-15
    assert np.abs(p.chi(bottom)).max() == 0.0
    # homogeneous Dirichlet data on the top edge
    top = np.column_stack([xs, np.ones(11)])
    assert np.abs(p.exact(top)).max() < 1e-15


def test_benchmark_manufactured_data_self_check():
    assert prb.verify_manufactured(prb.bottom_contact_benchmark())


def test_manufactured_self_check_catches_perturbed_data():
    p = prb.bottom_contact_benchmark()
    shifted_f = dataclasses.replace(p, f=lambda pts: p.f(pts) + 1e-6)
    with pytest.raises(AssertionError, match="body force inconsistent"):
        prb.verify_manufactured(shifted_f)
    # perturbed on the left edge only: the check covers both Neumann edges
    shifted_g = dataclasses.replace(
        p, g=lambda pts: p.g(pts) + 1e-6 * (pts[:, :1] < 0.5))
    with pytest.raises(AssertionError, match=r"traction data inconsistent on x=0\.0"):
        prb.verify_manufactured(shifted_g)


def test_wedge_gap_values():
    p = prb.rigid_wedge_push()
    pts = np.array([[1.0, 0.5], [1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(p.chi(pts), [-0.2, 0.05, 0.05], atol=1e-15)
    assert np.isclose(p.material.mu, 500.0 / 2.6)
    assert np.isclose(p.material.lam, 150.0 / 0.52)
    assert p.exact is None


def test_registry_keys():
    assert prb.get_problem("ex71").name == "ex71"
    assert prb.get_problem("ex72").name == "ex72"


def test_unknown_problem_names_the_registry_keys():
    with pytest.raises(ValueError, match=r"'ex73'.*ex71, ex72"):
        prb.get_problem("ex73")


def test_problem_file_roundtrip(tmp_path):
    cfg = {"name": "pushdown", "tagging": "bottom_contact",
           "material": {"E": 10.0, "nu": 0.2},
           "f": [0.0, -1.0], "chi": 0.01}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    p = prb.get_problem(str(path))
    assert p.name == "pushdown"
    trace = dens.build_trace_mesh(fem.DofMap(p.mesh(2)), p)
    assert (trace.comp, trace.sign) == (1, -1.0)
    pts = np.zeros((3, 2))
    assert np.allclose(p.f(pts), [[0.0, -1.0]] * 3)
    assert p.g(pts).tobytes() == np.zeros((3, 2)).tobytes()
    assert np.allclose(p.chi(pts), 0.01)
    # it solves end to end
    res = ad.adapt(p, ad.AdaptiveParams(levels=2, n0=2))
    assert len(res.records) == 2


def test_problem_file_rejects_unknown_tagging(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tagging": "left_contact"}))
    with pytest.raises(ValueError):
        prb.from_file(str(path))


@pytest.mark.parametrize("key, entry", [
    ("material.nu", {"material": {"E": 10.0}}),
    ("material.E", {"material": {"E": "ten", "nu": 0.3}}),
    ("material", {"material": {"E": -1.0, "nu": 0.3}}),
    ("material", {"material": {"mu": 1.0, "lam": -2.0}}),
    ("f", {"f": [1.0]}),
    ("f", {"f": ["a", 0.0]}),
    ("g", {"g": [0.0, 1.0, 2.0]}),
    ("g", {"g": 3.0}),
    ("dirichlet", {"dirichlet": [0.0, None]}),
    ("chi", {"chi": [0.0]}),
    ("F", {"F": [0.0, -1.0]}),
    ("material.young", {"material": {"young": 10.0, "poisson": 0.3}}),
    ("material.mu", {"material": {"E": 10.0, "nu": 0.3, "mu": 1.0}}),
    ("material.E", {"material": {"nu": 0.3}}),
    ("chi", {"chi": float("nan")}),
    ("material.E", {"material": {"E": float("inf"), "nu": 0.3}}),
    ("f", {"f": [float("nan"), 0.0]}),
    ("name", {"name": ["a", 1], "chi": 0.01}),
    ("chi", {"chi": 10 ** 400}),
    ("material", {"material": [10.0, 0.3]}),
])
def test_problem_file_names_file_and_key(tmp_path, key, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tagging": "bottom_contact", **entry}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {key} ")):
        prb.from_file(str(path))


def test_problem_file_rejects_a_top_level_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"tagging": "bottom_contact"}]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: the top level must be a JSON object")):
        prb.from_file(str(path))


def test_measure_error_zero_field():
    p = prb.bottom_contact_benchmark()
    mesh = p.mesh(2)
    dofmap = fem.DofMap(mesh)
    zero_exact = lambda pts: np.zeros((len(pts), 2))
    assert prb.measure_error(mesh, np.zeros(dofmap.ndof), zero_exact) == 0.0
    with pytest.raises(ValueError):
        prb.measure_error(mesh, np.zeros(dofmap.ndof), None)


def test_measure_error_interpolant_cubic_decay():
    p = prb.bottom_contact_benchmark()
    errs = []
    for n in (2, 4, 8):
        mesh = p.mesh(n)
        dofmap = fem.DofMap(mesh)
        u = interpolate(dofmap, p.exact)
        errs.append(prb.measure_error(mesh, u, p.exact))
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 2.6, (errs, rates)


def test_mark_examples():
    ind = np.array([1.0, 0.6, 0.4])
    diam = np.array([1.0, 3.0, 2.0])
    assert sorted(ad.mark(ind, 0.5, diam)) == [0, 1]
    assert ad.mark(ind, 1.0, diam).tolist() == [0]
    assert sorted(ad.mark(ind, 1e-9, diam)) == [0, 1, 2]
    assert ad.mark(np.zeros(3), 0.5, diam).tolist() == [1]
    with pytest.raises(ValueError):
        ad.mark(ind, 0.0, diam)


def test_zero_load_in_a_file_assembles_as_an_absent_load(tmp_path):
    systems = []
    for extra in ({"f": [0.0, 0.0]}, {}):
        path = tmp_path / "slab.json"
        path.write_text(json.dumps({"tagging": "bottom_contact", "chi": 0.1,
                                    "g": [0.5, -1.0], **extra}))
        p = prb.get_problem(str(path))
        systems.append(fem.assemble(fem.DofMap(p.mesh(3)), p))
    with_zero, absent = systems
    assert with_zero.F.tobytes() == absent.F.tobytes()
    assert np.abs(absent.F).max() > 0.0
