"""Problem registry: benchmark configurations and error measurement.

A ProblemSpec bundles the domain tagging rule, material and data fields.  All
its callables are vectorized: they take an (n, 2) array of points and return
(n, 2) vectors, (n,) scalars or, for the tagging rule, (n,) tag characters.

Two built-in benchmarks on the unit square:

  ex71  Bottom-edge contact against a flat obstacle (chi = 0) with a known
        smooth solution; f and g are manufactured from it (closed forms
        below, hard-coded after offline differentiation and guarded by a
        finite-difference self-check).
  ex72  Right edge pushed against a rigid wedge chi(y) = -0.2 + 0.5|y-0.5|
        by nonhomogeneous Dirichlet data (0.1, 0); E = 500, nu = 0.3,
        f = g = 0, no closed-form solution.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fem
from . import mesh as msh


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    tagging: Callable              # boundary-edge midpoints, (n,2) -> (n,) of "D", "N", "C"
    material: fem.MaterialLaw
    f: Callable                    # body force, (n,2) -> (n,2); ZERO when absent
    g: Callable                    # Neumann traction, (n,2) -> (n,2); ZERO when absent
    chi: Callable                  # gap function on the contact boundary, (n,2) -> (n,)
    dirichlet: Callable            # Dirichlet data, (n,2) -> (n,2); ZERO when absent
    exact: Optional[Callable] = None   # None: no exact solution to measure against

    def mesh(self, n):
        return msh.generate_unit_square(n, self.tagging)


def ZERO(pts):
    """The zero vector field: an absent load or homogeneous Dirichlet data."""
    return np.zeros((len(pts), 2))


# -- ex71: manufactured bottom-contact benchmark --------------------------------
#
# Exact displacement (both Lame constants equal 1):
#   u1 = y^2 (y - 1)
#   u2 = e^y (1 - y) y (x - 2)
# On the bottom edge u2 = 0, so the solution touches the flat obstacle along
# the whole contact boundary; the top edge has u = 0.  With P = e^y (y - y^2):
#   P'  = e^y (1 - y - y^2)
#   P'' = -e^y y (3 + y)
#   f = -div sigma(u) = ( -(2 P' + 6y - 2), -3 (x - 2) P'' )
#   g on x=1: ( -P',  3y^2 - 2y + P );  g on x=0: ( 2 P', -(3y^2 - 2y + P) )

def _P(y):
    return np.exp(y) * (y - y * y)


def _Pp(y):
    return np.exp(y) * (1.0 - y - y * y)


def _Ppp(y):
    return -np.exp(y) * y * (3.0 + y)


def _ex71_exact(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([y * y * (y - 1.0), (x - 2.0) * _P(y)])


def _ex71_f(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([
        -(2.0 * _Pp(y) + 6.0 * y - 2.0),
        -3.0 * (x - 2.0) * _Ppp(y),
    ])


def _ex71_g(pts):
    x, y = pts[:, 0], pts[:, 1]
    shear = 3.0 * y * y - 2.0 * y + _P(y)
    on_right = x > 0.5
    gx = np.where(on_right, -_Pp(y), 2.0 * _Pp(y))
    gy = np.where(on_right, shear, -shear)
    return np.column_stack([gx, gy])


def bottom_contact_benchmark():
    """Unit square, contact at y=0 with chi = 0, known smooth solution."""
    return ProblemSpec(
        name="ex71",
        tagging=msh.tag_bottom_contact,
        material=fem.MaterialLaw(mu=1.0, lam=1.0),
        f=_ex71_f,
        g=_ex71_g,
        chi=lambda pts: np.zeros(len(pts)),
        dirichlet=ZERO,
        exact=_ex71_exact,
    )


# -- ex72: rigid wedge push ------------------------------------------------------

def _wedge_chi(pts):
    return -0.2 + 0.5 * np.abs(pts[:, 1] - 0.5)


def rigid_wedge_push():
    """Unit square pushed along +x against a wedge obstacle on x=1."""
    return ProblemSpec(
        name="ex72",
        tagging=msh.tag_right_contact,
        material=fem.MaterialLaw.from_young_poisson(500.0, 0.3),
        f=ZERO,
        g=ZERO,
        chi=_wedge_chi,
        dirichlet=lambda pts: np.column_stack([np.full(len(pts), 0.1), np.zeros(len(pts))]),
        exact=None,
    )


PROBLEMS = {
    "ex71": bottom_contact_benchmark,
    "ex72": rigid_wedge_push,
}


def get_problem(key):
    """Resolve a registry name or a JSON problem-file path."""
    if key in PROBLEMS:
        return PROBLEMS[key]()
    if not os.path.isfile(key):
        raise ValueError(f"unknown problem {key!r}: neither one of "
                         f"{', '.join(PROBLEMS)} nor a problem file")
    return from_file(key)


_TAGGINGS = {
    "bottom_contact": msh.tag_bottom_contact,
    "right_contact": msh.tag_right_contact,
}


_FILE_KEYS = ("name", "tagging", "material", "f", "g", "chi", "dirichlet")


def from_file(path):
    """Declarative problem with constant f, g, chi and Dirichlet data.

    JSON schema: {"name": .., "tagging": "bottom_contact"|"right_contact",
                  "material": {"E":..,"nu":..} or {"mu":..,"lam":..},
                  "f": [fx, fy], "g": [gx, gy], "chi": c,
                  "dirichlet": [dx, dy]}  (data keys optional, default zero)
    An unknown key, at the top level or in the material, is an error, and so
    is a material that mixes the two pairs.
    """
    def bad(key, why):
        return ValueError(f"problem file {path}: {key} {why}")

    with open(path) as src:
        try:
            cfg = json.load(src, parse_int=float)   # an integer too large for a float reads as inf
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise bad("JSON", f"syntax error: {exc}") from exc

    def is_number(val):
        return isinstance(val, float) and np.isfinite(val)

    def number(section, name, default=None):
        key = name.rsplit(".", 1)[-1]
        if key not in section and default is None:
            raise bad(name, "is missing")
        val = section.get(key, default)     # a JSON null stays None: a wrong type
        if not is_number(val):
            raise bad(name, f"must be a finite number, got {val!r}")
        return val

    if not isinstance(cfg, dict):
        raise bad("the top level", "must be a JSON object")
    for key in cfg:
        if key not in _FILE_KEYS:
            raise bad(key, f"is not a problem-file key; expected one of {list(_FILE_KEYS)}")
    name = cfg.get("name", "custom")
    if not isinstance(name, str):
        raise bad("name", f"must be a string, got {name!r}")
    try:
        tagging = _TAGGINGS[cfg["tagging"]]
    except (KeyError, TypeError) as exc:
        raise bad("tagging", f"must be one of {sorted(_TAGGINGS)}") from exc
    mat_cfg = cfg.get("material", {})
    if not isinstance(mat_cfg, dict):
        raise bad("material", "must be a JSON object")
    young = "E" in mat_cfg or "nu" in mat_cfg
    for key in mat_cfg:
        if key not in ("E", "nu", "mu", "lam"):
            raise bad(f"material.{key}", "is not a material key; expected E and nu, "
                      "or mu and lam")
        if young and key in ("mu", "lam"):
            raise bad(f"material.{key}", "cannot be given together with E and nu")
    if young:
        law = fem.MaterialLaw.from_young_poisson
        args = number(mat_cfg, "material.E"), number(mat_cfg, "material.nu")
    else:
        law = fem.MaterialLaw
        args = number(mat_cfg, "material.mu", 1.0), number(mat_cfg, "material.lam", 1.0)
    try:
        material = law(*args)
    except ValueError as exc:
        raise bad("material", f"is invalid: {exc}") from exc

    def const_vec(key):
        if key not in cfg:
            return ZERO
        val = cfg[key]
        if not (isinstance(val, list) and len(val) == 2 and all(map(is_number, val))):
            raise bad(key, f"must be a list of two finite numbers, got {val!r}")
        vx, vy = val
        return lambda pts: np.column_stack([np.full(len(pts), vx), np.full(len(pts), vy)])

    chi_val = number(cfg, "chi", 0.0)
    return ProblemSpec(
        name=name,
        tagging=tagging,
        material=material,
        f=const_vec("f"),
        g=const_vec("g"),
        chi=lambda pts: np.full(len(pts), chi_val),
        dirichlet=const_vec("dirichlet"),
    )


# -- manufactured-data self-check -------------------------------------------------

def _grad_fd(u, pts, step, h):
    """Five-point first derivative of a vector field along ``step``."""
    return (-u(pts + 2 * step) + 8 * u(pts + step)
            - 8 * u(pts - step) + u(pts - 2 * step)) / (12 * h)


def _stress_fd(problem, pts, h):
    """sigma(exact u) by five-point finite differences, (n, 2, 2)."""
    u = problem.exact
    grad = np.empty((len(pts), 2, 2))
    for j, step in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
        grad[:, :, j] = _grad_fd(u, pts, step, h)
    return fem.stress_from_grad(grad, problem.material)


def _hessians_fd(u, pts, h):
    """Per-component Hessians of a vector field, O(h^4): (n, 2, 2, 2)."""
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    H = np.empty((len(pts), 2, 2, 2))
    for j, step in enumerate((ex, ey)):
        H[:, :, j, j] = (-u(pts + 2 * step) + 16 * u(pts + step) - 30 * u(pts)
                         + 16 * u(pts - step) - u(pts - 2 * step)) / (12 * h * h)
    mixed = (-_grad_fd(u, pts + 2 * ey, ex, h) + 8 * _grad_fd(u, pts + ey, ex, h)
             - 8 * _grad_fd(u, pts - ey, ex, h) + _grad_fd(u, pts - 2 * ey, ex, h)) / (12 * h)
    H[:, :, 0, 1] = H[:, :, 1, 0] = mixed
    return H


def verify_manufactured(problem):
    """Check f = -div sigma(u) and g = sigma(u) n at 100 seeded random points.

    Raises AssertionError when the closed forms disagree with finite
    differences of the exact solution beyond 1e-10 relative to the data
    magnitude.
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution to verify against")
    n, tol = 100, 1e-10
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    H = _hessians_fd(problem.exact, pts, 4e-3)
    mu, lam = problem.material.mu, problem.material.lam
    lap = H[:, :, 0, 0] + H[:, :, 1, 1]
    grad_div = H[:, 0, 0, :] + H[:, 1, 1, :]
    f_fd = -(mu * lap + (mu + lam) * grad_div)
    f_val = problem.f(pts)
    err_f = np.abs(f_fd - f_val).max()
    if err_f > tol * (1.0 + np.abs(f_val).max()):
        raise AssertionError(f"body force inconsistent with exact solution: {err_f:.3e}")

    ys = rng.uniform(0.05, 0.95, size=n)
    for x0, nvec in ((1.0, np.array([1.0, 0.0])), (0.0, np.array([-1.0, 0.0]))):
        bpts = np.column_stack([np.full(n, x0), ys])
        tau = _stress_fd(problem, bpts, 1e-3) @ nvec
        g_val = problem.g(bpts)
        err_g = np.abs(tau - g_val).max()
        if err_g > tol * (1.0 + np.abs(g_val).max()):
            raise AssertionError(f"traction data inconsistent on x={x0}: {err_g:.3e}")
    return True


# -- error measurement --------------------------------------------------------

# dense per-triangle sample: fem.TRI_SAMPLE (the 6 nodes and the quadrature
# points) and the 15 strictly interior lattice points (i+j+k = 7, all positive)
_LATTICE = np.array([[i, j, 7 - i - j] for i in range(1, 6)
                     for j in range(1, 7 - i)], dtype=float) / 7.0
ERROR_SAMPLE = np.vstack([fem.TRI_SAMPLE, _LATTICE])


def measure_error(mesh, u, exact):
    """Componentwise max of |u - u_h| over a dense per-triangle sample set."""
    if exact is None:
        raise ValueError("no exact solution available for error measurement")
    uh = fem.displacement_at(mesh, u, ERROR_SAMPLE)
    xy = fem.barycentric_to_xy(mesh, ERROR_SAMPLE)
    ue = exact(xy.reshape(-1, 2)).reshape(uh.shape)
    return float(np.abs(uh - ue).max())
