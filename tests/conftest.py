import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import settings

import signorini.density as dens
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def interpolate(mesh, func):
    """Nodal interpolant of a vectorized field func(points) -> (n, 2) on the
    mesh's P2 nodes, as dofs interleaved (2p, 2p + 1)."""
    return np.array(func(mesh.node_coords), dtype=float).ravel()


def edge_end_stress(mesh, sig):
    """The estimator's table of sigma(u_h) at both ends of every edge, from
    both sides: (ne, side, end, 2, 2) from corner stresses ``sig``."""
    return sig[mesh.edge_tris[:, :, None], mesh.edge_corners]


def tag_all_dirichlet(pts):
    return np.full(len(pts), msh.DIRICHLET)


def prescribed(dofmap, problem):
    """The Dirichlet dofs, sorted, and their values, from the node kinds and
    ``problem.dirichlet`` alone, not from the assembled system."""
    nodes = np.flatnonzero(dofmap.kind == msh.DIRICHLET)
    values = np.asarray(problem.dirichlet(dofmap.mesh.node_coords[nodes]), dtype=float)
    return (2 * nodes[:, None] + np.arange(2)).ravel(), values.ravel()


def linear_solve(system, fixed):
    """Pure boundary-value solve, independent of ``vi``: the prescribed
    ``fixed = (dofs, values)`` move to the right-hand side and ``spsolve``
    takes the free block."""
    dofs, values = fixed
    free = np.ones(system.ndof, dtype=bool)
    free[dofs] = False
    u = np.zeros(system.ndof)
    u[dofs] = values
    rhs = system.F[free] - system.K[free] @ u
    u[free] = spla.spsolve(system.K[free][:, free], rhs)
    return u


class SolvedState:
    """One assembled and solved contact problem, shared read-only by tests."""

    def __init__(self, problem, n):
        self.problem = problem
        self.mesh = problem.mesh(n)
        self.dofmap = fem.DofMap(self.mesh)
        self.patches = msh.build_patches(self.mesh)
        self.system = fem.assemble(self.dofmap, problem)
        self.trace = dens.build_trace_mesh(self.mesh, problem)
        self.solution = vi.solve_vi(self.system, self.trace)
        self.residual = self.solution.residual
        self.density = dens.compute_density(self.residual, self.trace)


@pytest.fixture(scope="session")
def solved71():
    return SolvedState(prb.bottom_contact_benchmark(), n=4)


@pytest.fixture(scope="session")
def solved72():
    return SolvedState(prb.rigid_wedge_push(), n=4)


# data scales of the wedge push that the scale tests compare with scale 1
WEDGE_SCALES = (1e-6, 1e-10, 1e-14)


@pytest.fixture(scope="session")
def scaled_wedges():
    """ex72 on n = 8 solved with its gap chi and Dirichlet data scaled by
    alpha, for alpha = 1 and each of WEDGE_SCALES.  With f = g = 0, in exact
    arithmetic the discrete solution, its residual and every estimator term
    scale by alpha, and the active set does not move."""
    p = prb.rigid_wedge_push()
    return {alpha: SolvedState(dataclasses.replace(
                p, chi=lambda q, a=alpha: a * p.chi(q),
                dirichlet=lambda q, a=alpha: a * p.dirichlet(q)), n=8)
            for alpha in (1.0, *WEDGE_SCALES)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
