import numpy as np
import pytest
from hypothesis import settings

import signorini.density as dens
import signorini.fem as fem
import signorini.mesh as msh
import signorini.problems as prb
import signorini.vi as vi

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


class SolvedState:
    """One assembled and solved contact problem, shared read-only by tests."""

    def __init__(self, problem, n):
        self.problem = problem
        self.mesh = problem.mesh(n)
        self.dofmap = fem.DofMap(self.mesh)
        self.patches = msh.build_patches(self.mesh)
        self.system = fem.assemble(self.mesh, self.dofmap, problem.material, problem)
        self.constraints = vi.contact_constraints(self.dofmap, problem)
        self.solution = vi.solve_vi(self.system, self.constraints)
        self.trace = dens.build_trace_mesh(self.mesh)
        self.residual = vi.residual_functional(self.system, self.solution.u)
        self.density = dens.compute_density(self.residual, self.solution.u,
                                            self.trace, self.constraints)


@pytest.fixture(scope="session")
def solved71():
    return SolvedState(prb.bottom_contact_benchmark(), n=4)


@pytest.fixture(scope="session")
def solved72():
    return SolvedState(prb.rigid_wedge_push(), n=4)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
