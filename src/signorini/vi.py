"""Primal-dual active-set solver for the discrete unilateral contact problem.

The discrete inequality constrains the normal displacement at every contact
node p:  u_n(p) <= gap(p), with an axis-aligned normal n = sign * e_comp.
The solver reads the normal dofs 2p + comp, the sign and the nodal gap from
the level's contact record (``density.ContactTraceMesh``).
Given an active set A, the equality-constrained elastic problem is solved
with u_n(p) = gap(p) enforced for p in A; the nodal multiplier is recovered
from the constrained-row residual,

    m_p = L(phi_p n) - a(u_h, phi_p n) = sign * (F - K u)[2p + comp],

and the next active set is {p : m_p + c (u_n(p) - gap(p)) > 0} with the
weight c = 2 mu + lam, the material's stress scale; any positive c has the
same fixed point.  The iteration stops when the active set repeats, which is
the exact complementarity point of the quadratic program.

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

# active-set iterations before the solve gives up
MAX_ITER = 100


class SolverError(RuntimeError):
    pass


@dataclass
class VISolution:
    u: np.ndarray
    active: np.ndarray          # bool per constrained node
    history: list               # (iteration, |A|, free residual) per iteration
    residual: np.ndarray        # F - K u of the final iterate

    @property
    def iterations(self):
        return len(self.history)


def solve_vi(system, trace):
    """Primal-dual active-set iteration, starting from the empty active set.

    ``trace`` is the contact record; only its normal dofs ``dofs``, its
    ``sign`` and its nodal ``gap`` are read.  A node with an infinite gap
    never becomes active.  The complementarity weight c is the material's
    stress scale 2 mu + lam.  A stiffness or load that is not finite is an
    error before anything is factored.
    """
    if not (np.isfinite(system.K.data).all() and np.isfinite(system.F).all()):
        raise SolverError(f"stiffness or load is not finite ({system.ndof} dofs)")
    c = system.material.stress_scale
    con_dofs = trace.dofs
    sign = trace.sign
    gap = trace.gap
    finite_gap = np.isfinite(gap)

    active = np.zeros(gap.size, dtype=bool)
    history = []
    for it in range(MAX_ITER):
        u = np.zeros(system.ndof)
        u[system.dirichlet_dofs] = system.dirichlet_values
        u[con_dofs[active]] = sign * gap[active]
        free = system.free_mask()
        free[con_dofs[active]] = False
        free_idx = np.flatnonzero(free)
        rhs = (system.F - system.K @ u)[free_idx]
        Kff = system.K[free_idx][:, free_idx]
        try:
            # Kff is symmetric, so its CSR arrays read as CSC give Kff itself
            lu = spla.splu(sp.csc_matrix((Kff.data, Kff.indices, Kff.indptr), shape=Kff.shape))
            u[free_idx] = lu.solve(rhs)
        except RuntimeError as exc:
            raise SolverError(f"singular constrained system ({exc})") from exc
        del Kff, lu     # freed before the next iteration factors its own block
        if not np.isfinite(u).all():
            raise SolverError(f"non-finite solution in active-set iteration {it} "
                              f"({system.ndof} dofs)")
        r = system.F - system.K @ u
        m = sign * r[con_dofs]
        un = sign * u[con_dofs]
        free_res = np.abs(r[free_idx]).max() if free_idx.size else 0.0
        history.append((it, int(active.sum()), float(free_res)))
        with np.errstate(invalid="ignore"):
            nxt = finite_gap & (m + c * (un - gap) > 0)
        if np.array_equal(nxt, active):
            return VISolution(u, active, history, r)
        active = nxt
    raise SolverError(
        f"active set did not settle in {MAX_ITER} iterations; "
        f"history={[row[1] for row in history]}")
