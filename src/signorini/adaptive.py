"""SOLVE -> ESTIMATE -> MARK -> REFINE loop with per-level reporting.

Each level assembles and solves the contact problem, evaluates the pointwise
estimator, records a trace row (written as ``convergence.csv`` when an output
directory is given, together with a legacy VTK dump per level and a
``config.json`` echo of the effective parameters), then refines the triangles
selected by maximum marking:  mark T whenever its indicator is at least
theta times the largest indicator.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import density as dens
from . import estimator as est
from . import fem
from . import mesh as msh
from . import problems as prb
from . import vi

CSV_HEADER = ("level,ndof,hmin,lh,eta1,eta2,eta3,eta4,eta5,eta6,eta7,"
              "psi,eta_h,err_inf,eff_index,active_nodes,seconds")


@dataclass
class AdaptiveParams:
    levels: int = 12
    theta: float = 0.5
    n0: int = 4
    uniform: bool = False

    def validate(self):
        if self.levels < 1:
            raise ValueError("need at least one level")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"marking fraction must be in (0, 1], got {self.theta}")
        if self.n0 < 1:
            raise ValueError("initial subdivision must be >= 1")


@dataclass
class LevelChecks:
    """Scalar diagnostics backing the sign/residual/complementarity suites."""

    lam_n_min: float
    lam_n_max: float
    lam_t_max: float
    resid_free_max: float
    resid_scale: float
    resid_normal_min: float
    resid_tangential_max: float
    comp_max: float
    comp_scale: float
    feas_violation: float


@dataclass
class LevelRecord:
    level: int
    ndof: int
    h_min: float
    l_h: float
    eta: tuple            # eta_1 .. eta_5
    eta6: float
    eta7: float
    psi: float
    eta_h: float
    err_inf: float        # nan when no exact solution
    eff_index: float
    active_nodes: int
    seconds: float
    checks: LevelChecks
    # triangles marked for refinement; none on the last level
    marked: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def csv_row(self):
        nums = [self.h_min, self.l_h, *self.eta, self.eta6, self.eta7,
                self.psi, self.eta_h, self.err_inf, self.eff_index]
        body = ",".join(f"{x:.17g}" for x in nums)
        return (f"{self.level},{self.ndof},{body},{self.active_nodes},"
                f"{self.seconds:.3f}")


@dataclass
class AdaptiveResult:
    problem: prb.ProblemSpec
    records: list
    mesh: msh.Mesh
    dofmap: fem.DofMap
    solution: vi.VISolution
    report: est.EstimatorReport
    trace_mesh: dens.ContactTraceMesh


def mark(indicators, theta, diameters):
    """Maximum marking: triangles with indicator >= theta * max indicator.

    When every indicator vanishes, the triangle of largest ``diameters`` is
    marked so that the loop always makes progress.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"marking fraction must be in (0, 1], got {theta}")
    indicators = np.asarray(indicators, dtype=float)
    top = indicators.max() if indicators.size else 0.0
    if top <= 0.0:
        return np.array([int(np.argmax(diameters))])
    return np.flatnonzero(indicators >= theta * top)


def _level_checks(system, sol, density):
    trace = density.trace
    r = sol.residual
    free = system.free_mask()
    con_mask = np.zeros(system.ndof, dtype=bool)
    con_mask[trace.dofs] = True
    con_mask[trace.tangential_dofs] = True
    plain = free & ~con_mask
    resid_scale = max(np.abs(system.F).max(), np.abs(system.F - r).max(), 1e-300)
    un = trace.sign * sol.u[trace.dofs]
    comp = density.normal * (trace.gap - un)
    comp_scale = (1.0 + np.abs(density.normal).max()) * \
        (1.0 + np.abs(trace.gap).max() + np.abs(un).max())
    return LevelChecks(
        lam_n_min=float(density.normal.min()),
        lam_n_max=float(np.abs(density.normal).max()),
        lam_t_max=float(np.abs(density.tangential).max()),
        resid_free_max=float(np.abs(r[plain]).max()),
        resid_scale=float(resid_scale),
        resid_normal_min=float((trace.sign * r[trace.dofs]).min()),
        resid_tangential_max=float(np.abs(r[trace.tangential_dofs]).max()),
        comp_max=float(comp.max()),
        comp_scale=float(comp_scale),
        feas_violation=float((un - trace.gap).max()),
    )


def run_level(problem, mesh):
    """Assemble, solve, and estimate on one mesh; no refinement.

    The stiffness system is not returned, so it is freed when the level
    ends and not held while the next level assembles and factors.
    """
    dofmap = fem.DofMap(mesh)
    patches = msh.build_patches(mesh)
    system = fem.assemble(dofmap, problem)
    trace_mesh = dens.build_trace_mesh(dofmap, problem)
    sol = vi.solve_vi(system, trace_mesh)
    density = dens.compute_density(sol.residual, sol.u, trace_mesh)
    report = est.estimate(dofmap, patches, problem, sol.u, density)
    checks = _level_checks(system, sol, density)
    return dofmap, sol, density, report, checks


def adapt(problem, params, out_dir=None, write_trace=False):
    """Run the adaptive loop; returns the per-level trace and final state."""
    params.validate()
    out = Path(out_dir) if out_dir is not None else None
    csv_lines = [CSV_HEADER]
    pdas_lines = ["level,iteration,active_size,residual_norm"]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"problem": problem.name, **asdict(params)}
        (out / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")

    mesh = problem.mesh(params.n0)
    records = []
    for level in range(params.levels):
        if level:
            mesh = msh.refine(mesh, records[-1].marked)
        tic = time.perf_counter()
        try:
            dofmap, sol, density, report, checks = run_level(problem, mesh)
        except vi.SolverError as exc:
            raise vi.SolverError(f"level {level}: {exc}") from exc
        err = prb.measure_error(mesh, sol.u, problem.exact) \
            if problem.exact is not None else float("nan")
        seconds = time.perf_counter() - tic
        ndof = dofmap.ndof - dofmap.dirichlet_dofs.size
        rec = LevelRecord(
            level=level, ndof=ndof, h_min=report.h_min, l_h=report.l_h,
            eta=tuple(report.eta), eta6=report.eta6, eta7=report.eta7,
            psi=report.psi, eta_h=report.eta_h, err_inf=err,
            eff_index=report.eta_h / err if err == err and err > 0 else float("nan"),
            active_nodes=int(sol.active.sum()), seconds=seconds, checks=checks)
        if records and rec.ndof <= records[-1].ndof:
            raise RuntimeError("degrees of freedom did not increase between levels")
        records.append(rec)
        for row in sol.history:
            pdas_lines.append(f"{level},{row[0]},{row[1]},{row[2]:.17g}")

        if level < params.levels - 1:
            rec.marked = (np.arange(mesh.num_triangles) if params.uniform
                          else mark(report.indicator, params.theta, mesh.diameters))

        csv_lines.append(rec.csv_row())
        if out is not None:
            _write_level_outputs(out, level, mesh, dofmap, sol, report, density,
                                 write_trace)
            (out / "convergence.csv").write_text("\n".join(csv_lines) + "\n")
            if write_trace:
                (out / "pdas_trace.csv").write_text("\n".join(pdas_lines) + "\n")

    return AdaptiveResult(problem, records, mesh, dofmap, sol, report, density.trace)


def _write_level_outputs(out, level, mesh, dofmap, sol, report, density, write_trace):
    nv = mesh.num_vertices
    disp = np.column_stack([sol.u[0:2 * nv:2], sol.u[1:2 * nv:2]])
    multiplier = np.zeros(nv)
    trace = density.trace
    vert_mask = trace.nodes < nv
    multiplier[trace.nodes[vert_mask]] = (density.normal * trace.weight)[vert_mask]
    msh.write_vtk(mesh, out / f"level_{level}.vtk",
                  point_data={"displacement": disp, "multiplier": multiplier},
                  cell_data={"indicator": report.indicator,
                             "level": mesh.levels.astype(float)})
    if write_trace:
        dens.write_density_csv(out / f"density_{level}.csv", dofmap, density)
