"""ex71 carried to the other three contact frames by symmetries of the square.

The transpose, the rotation by 180 degrees and the anti-transpose map the
triangles of ``generate_unit_square`` onto themselves, each with its
bisection peak, and carry ex71's contact side y = 0 to x = 0, y = 1 and
x = 1.  Mapping the tagging, the data and the exact solution by
x' = R x + t and v' = R v gives a problem whose adaptive run is the image of
ex71's: the same ndof and active-node counts at every level, and eta_h and
the max-norm error equal up to round-off.  Between them the four runs use
every contact frame n = sign * e_comp, so one wrong ``comp`` or ``sign`` in
``density``, ``vi`` or ``estimator`` shows as a differing image.
"""

import dataclasses

import numpy as np
import pytest

import signorini.adaptive as ad
import signorini.density as dens
import signorini.problems as prb

# (R, t) of the map x' = R x + t
SYMMETRIES = {
    "transpose": (np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)),
    "rotation": (-np.eye(2), np.ones(2)),
    "anti-transpose": (np.array([[0.0, -1.0], [-1.0, 0.0]]), np.ones(2)),
}
# a short adaptive run of each problem, with the theta and n0 of its
# acceptance run
PROBLEMS = {"ex71": ad.AdaptiveParams(levels=8, theta=0.35, n0=6),
            "ex72": ad.AdaptiveParams(levels=8, theta=0.5, n0=4)}


def mapped(problem, name, R, t):
    """``problem`` carried by x' = R x + t: a vector field v becomes
    v'(x') = R v(x) and a scalar or a tag s becomes s'(x') = s(x), at
    x = R^T (x' - t).  R holds 0 and +-1 only, so both maps are exact."""
    def back(pts):
        return (pts - t) @ R                      # rows x^T = (x' - t)^T R

    def vector(field):
        return lambda pts: field(back(pts)) @ R.T

    def scalar(field):
        return lambda pts: field(back(pts))

    return dataclasses.replace(
        problem, name=f"{problem.name}-{name}", tagging=scalar(problem.tagging),
        f=vector(problem.f), g=vector(problem.g), chi=scalar(problem.chi),
        dirichlet=vector(problem.dirichlet),
        exact=None if problem.exact is None else vector(problem.exact))


@pytest.fixture(scope="module")
def runs():
    """The records of each problem's own run, computed once."""
    return {key: ad.adapt(prb.get_problem(key), params).records
            for key, params in PROBLEMS.items()}


@pytest.mark.parametrize("key", PROBLEMS)
def test_the_images_use_every_contact_frame(key):
    problem = prb.get_problem(key)
    problems = [problem] + [mapped(problem, name, *rt) for name, rt in SYMMETRIES.items()]
    frames = [(trace.comp, trace.sign) for trace in
              (dens.build_trace_mesh(p.mesh(2), p) for p in problems)]
    assert sorted(frames) == [(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0)]


@pytest.mark.parametrize("name", SYMMETRIES)
@pytest.mark.parametrize("key", PROBLEMS)
def test_an_image_repeats_the_adaptive_run(key, name, runs):
    """ex71 checks every frame with an exact solution and a zero gap, ex72
    with a nonzero gap, which a wrong sign on the gap would move."""
    image = mapped(prb.get_problem(key), name, *SYMMETRIES[name])
    got, want = ad.adapt(image, PROBLEMS[key]).records, runs[key]
    assert [r.ndof for r in got] == [r.ndof for r in want]
    assert [r.active_nodes for r in got] == [r.active_nodes for r in want]
    for field in ("eta_h", "err_inf"):   # err_inf is nan throughout for ex72
        np.testing.assert_allclose([getattr(r, field) for r in got],
                                   [getattr(r, field) for r in want],
                                   rtol=1e-9, atol=0.0, err_msg=field)
