import dataclasses
import functools
import json
import re

import numpy as np
import pytest
import sympy

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


# ex71's closed-form f and g must match the symbolic derivation to this
# error relative to 1 + max |value|; measured: 1.4e-14 absolute on f (max
# |f| 63) and 8.9e-16 on g (max |g| 5.4), about 2e-16 relative
SYMBOLIC_RTOL = 1e-13


@functools.lru_cache
def ex71_symbolic_fields():
    """ex71's exact u, f = -div sigma(u) and the tractions sigma(u) n on the
    Neumann sides x = 1 (n = (1, 0)) and x = 0 (n = (-1, 0)), derived by
    sympy from u and the material, as functions of (n, 2) points."""
    x, y = sympy.symbols("x y", real=True)
    u = sympy.Matrix([y ** 2 * (y - 1), sympy.exp(y) * (y - y ** 2) * (x - 2)])
    mat = prb.bottom_contact_benchmark().material
    grad = u.jacobian([x, y])
    eps = (grad + grad.T) / 2
    sigma = 2 * mat.mu * eps + mat.lam * eps.trace() * sympy.eye(2)
    f = -sympy.Matrix([sigma[i, 0].diff(x) + sigma[i, 1].diff(y) for i in range(2)])
    fields = {"u": u, "f": f, "g on x=1": sigma * sympy.Matrix([1, 0]),
              "g on x=0": sigma * sympy.Matrix([-1, 0])}

    def at_points(expr):
        func = sympy.lambdify((x, y), list(expr), "numpy")
        return lambda pts: np.column_stack(np.broadcast_arrays(*func(pts[:, 0], pts[:, 1])))

    return {name: at_points(expr) for name, expr in fields.items()}


def symbolic_errors(problem):
    """Max |closed form - symbolic| / (1 + max |symbolic|) of u and f at
    1,000 random points of the square, and of g at 1,000 random points of
    each Neumann side."""
    rng = np.random.default_rng(0)
    inside = rng.uniform(0.0, 1.0, (1000, 2))
    points = {"u": inside, "f": inside}
    for x0 in (1, 0):
        points[f"g on x={x0}"] = np.column_stack([np.full(1000, float(x0)),
                                                  rng.uniform(0.0, 1.0, 1000)])
    closed = {"u": problem.exact, "f": problem.f, "g on x=1": problem.g, "g on x=0": problem.g}
    errors = {}
    for name, field in ex71_symbolic_fields().items():
        want = field(points[name])
        errors[name] = np.abs(closed[name](points[name]) - want).max() / (1 + np.abs(want).max())
    return errors


def test_ex71_data_match_the_symbolic_derivation():
    errors = symbolic_errors(prb.bottom_contact_benchmark())
    assert max(errors.values()) <= SYMBOLIC_RTOL, errors


def test_symbolic_check_catches_perturbed_data():
    p = prb.bottom_contact_benchmark()
    shifted_f = symbolic_errors(dataclasses.replace(p, f=lambda pts: p.f(pts) + 1e-6))
    assert shifted_f["f"] > SYMBOLIC_RTOL
    # perturbed on the left edge only: the check covers both Neumann edges
    shifted_g = symbolic_errors(dataclasses.replace(
        p, g=lambda pts: p.g(pts) + 1e-6 * (pts[:, :1] < 0.5)))
    assert shifted_g["g on x=0"] > SYMBOLIC_RTOL >= shifted_g["g on x=1"]


def test_wedge_gap_values():
    p = prb.rigid_wedge_push()
    pts = np.array([[1.0, 0.5], [1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(p.chi(pts), [-0.2, 0.05, 0.05], atol=1e-15)
    assert np.isclose(p.material.mu, 500.0 / 2.6)
    assert np.isclose(p.material.lam, 150.0 / 0.52)
    assert p.exact is None


def test_problem_callables_take_point_arrays(tmp_path):
    """Every callable of a problem maps (n, 2) points to (n,) or (n, 2)
    values; the tagging rule reads boundary-edge midpoints."""
    path = tmp_path / "right.json"
    path.write_text(json.dumps({"tagging": "right_contact", "f": [1.0, 2.0], "chi": 0.5}))
    # bottom, top, left and right midpoints, then an interior point
    pts = np.array([[0.5, 0.0], [0.5, 1.0], [0.0, 0.5], [1.0, 0.5], [0.3, 0.4]])
    shapes = {"tagging": (5,), "f": (5, 2), "g": (5, 2), "chi": (5,), "dirichlet": (5, 2), "exact": (5, 2)}
    for key, tags in (("ex71", "CDNNN"), ("ex72", "NNDCN"), (str(path), "NNDCN")):
        problem = prb.get_problem(key)
        assert "".join(problem.tagging(pts)) == tags
        for name, shape in shapes.items():
            func = getattr(problem, name)
            if func is not None:
                assert np.shape(func(pts)) == shape, (key, name)


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
    trace = dens.build_trace_mesh(p.mesh(2), p)
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


@pytest.mark.parametrize("entry, message", [
    ({"f": None}, "f must be a list of two finite numbers, got None"),
    ({"chi": None}, "chi must be a finite number, got None"),
    ({"material": {"mu": None}}, "material.mu must be a finite number, got None"),
], ids=["f", "chi", "material.mu"])
def test_problem_file_null_is_a_wrong_type(tmp_path, entry, message):
    """A JSON null is neither an absent key, which takes the default, nor a
    missing one: it is a value of the wrong type."""
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"tagging": "bottom_contact", **entry}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        prb.from_file(str(path))


def test_problem_file_rejects_a_top_level_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"tagging": "bottom_contact"}]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: the top level must be a JSON object")):
        prb.from_file(str(path))


def test_measure_error_zero_field():
    p = prb.bottom_contact_benchmark()
    mesh = p.mesh(2)
    zero_exact = lambda pts: np.zeros((len(pts), 2))
    assert prb.measure_error(mesh, np.zeros(2 * mesh.num_nodes), zero_exact) == 0.0
    with pytest.raises(ValueError):
        prb.measure_error(mesh, np.zeros(2 * mesh.num_nodes), None)


def test_measure_error_interpolant_cubic_decay():
    p = prb.bottom_contact_benchmark()
    errs = []
    for n in (2, 4, 8):
        mesh = p.mesh(n)
        u = interpolate(mesh, p.exact)
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
