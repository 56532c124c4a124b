"""Primal-dual active-set solver for the discrete unilateral contact problem.

The discrete inequality constrains the normal displacement at every contact
node p:  u_n(p) <= gap(p), with an axis-aligned normal n = sign * e_comp.
Given an active set A, the equality-constrained elastic problem is solved
with u_n(p) = gap(p) enforced for p in A; the nodal multiplier is recovered
from the constrained-row residual,

    m_p = L(phi_p n) - a(u_h, phi_p n) = sign * (F - K u)[2p + comp],

and the next active set is {p : m_p + c (u_n(p) - gap(p)) > 0}.  The
iteration stops when the active set repeats, which is the exact
complementarity point of the quadratic program.

Each iteration factors the free block K[free][:, free] with SuperLU.  K is
assembled exactly symmetric with sorted indices (see ``fem``), so the CSR
arrays of the free block are also its CSC arrays and go to ``splu`` without
a conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class ContactConstraints:
    """Nodal non-penetration constraints sign*u[2p+comp] <= gap."""

    nodes: np.ndarray      # contact node ids (sorted)
    comp: int              # constrained displacement component (0 or 1)
    sign: float            # +1 or -1, so that u_n = sign * u[2p+comp]
    gap: np.ndarray        # interpolated gap value per node

    @property
    def dofs(self):
        return 2 * self.nodes + self.comp

    @property
    def tangential_dofs(self):
        return 2 * self.nodes + (1 - self.comp)

    @property
    def size(self):
        return self.nodes.size


def contact_constraints(dofmap, problem):
    """Constraints at the contact nodes of ``dofmap`` for a given problem."""
    nodes = dofmap.contact_nodes
    gap = problem.chi(dofmap.coords[nodes]) if nodes.size else np.zeros(0)
    return ContactConstraints(nodes, problem.normal_comp, problem.normal_sign,
                              np.asarray(gap, dtype=float))


@dataclass
class VISolution:
    u: np.ndarray
    active: np.ndarray          # bool per constrained node
    multipliers: np.ndarray     # m_p per constrained node, >= 0 at convergence
    iterations: int
    trace: list                 # (iteration, |A|, free residual) per iteration
    residual: np.ndarray        # F - K u of the final iterate

    @property
    def active_nodes(self):
        return np.flatnonzero(self.active)


def _solve_constrained(system, fixed_dofs, fixed_values):
    """Solve K u = F with the given dofs prescribed (symmetric elimination)."""
    ndof = system.ndof
    u = np.zeros(ndof)
    u[fixed_dofs] = fixed_values
    free = np.ones(ndof, dtype=bool)
    free[fixed_dofs] = False
    free_idx = np.flatnonzero(free)
    rhs = (system.F - system.K @ u)[free_idx]
    Kff = system.K[free_idx][:, free_idx]
    try:
        # Kff is symmetric, so its CSR arrays read as CSC give Kff itself
        lu = spla.splu(sp.csc_matrix((Kff.data, Kff.indices, Kff.indptr), shape=Kff.shape))
        u[free_idx] = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"singular constrained system ({exc})") from exc
    return u, free_idx


def solve_linear(system):
    """Unconstrained (pure boundary-value) solve."""
    u, _ = _solve_constrained(system, system.dirichlet_dofs, system.dirichlet_values)
    return u


def residual_functional(system, u):
    """Algebraic residual r_a = L(phi_a) - a(u_h, phi_a) = (F - K u)_a."""
    return system.F - system.K @ u


def solve_vi(system, constraints, c=None, max_iter=100):
    """Primal-dual active-set iteration, starting from the empty active set.

    ``c`` is the complementarity weight; any positive value yields the same
    fixed point.  Defaults to the stress scale 2 mu + lam of the material.
    """
    if c is None:
        c = system.material.stress_scale
    if c <= 0:
        raise ValueError(f"active-set parameter c must be positive, got {c}")
    con_dofs = constraints.dofs
    sign = constraints.sign
    gap = constraints.gap
    finite_gap = np.isfinite(gap)

    active = np.zeros(constraints.size, dtype=bool)
    trace = []
    for it in range(max_iter):
        fixed_dofs = np.concatenate([system.dirichlet_dofs, con_dofs[active]])
        fixed_vals = np.concatenate([system.dirichlet_values, sign * gap[active]])
        u, free_idx = _solve_constrained(system, fixed_dofs, fixed_vals)
        r = residual_functional(system, u)
        m = sign * r[con_dofs]
        un = sign * u[con_dofs]
        free_res = np.abs(r[free_idx]).max() if free_idx.size else 0.0
        trace.append((it, int(active.sum()), float(free_res)))
        with np.errstate(invalid="ignore"):
            nxt = finite_gap & (m + c * (un - gap) > 0)
        if np.array_equal(nxt, active):
            return VISolution(u, active, m, it + 1, trace, r)
        active = nxt
    raise SolverError(
        f"active set did not settle in {max_iter} iterations; "
        f"history={[row[1] for row in trace]}")
