"""SOLVE -> ESTIMATE -> MARK -> REFINE loop with per-level reporting.

``levels`` yields each level: it solves the contact problem, evaluates the
pointwise estimator, records a trace row and marks by maximum marking (T is
marked when its indicator is at least theta times the largest one).  A
yielded level is the caller's until the next is requested, which refines the
marked triangles.  ``adapt`` writes the rows to ``convergence.csv``, a legacy
VTK dump per level with the estimator terms per vertex and a ``config.json``
echo of the parameters into an output directory, if one is given.
"""

from __future__ import annotations

import json
import re
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
# the files a run writes into its output directory
_RUN_FILE = re.compile(r"config\.json|convergence\.csv|pdas_trace\.csv|"
                      r"level_\d+\.vtk|density_\d+\.csv")


@dataclass(frozen=True)
class AdaptiveParams:
    levels: int = 12
    theta: float = 0.5
    n0: int = 4
    uniform: bool = False

    def __post_init__(self):
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


@dataclass(frozen=True)
class Level:
    """One level of the loop, the caller's until the next is requested."""

    mesh: msh.Mesh
    solution: vi.VISolution
    density: dens.DensityField
    report: est.EstimatorReport
    record: LevelRecord


@dataclass(frozen=True)
class AdaptiveResult(Level):
    """A run's last level and the records of all its levels."""

    records: list


def mark(indicators, theta, diameters):
    """Maximum marking: triangles with indicator >= theta * max indicator.

    When every indicator vanishes, the triangle of largest ``diameters`` is
    marked so that the loop always makes progress.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"marking fraction must be in (0, 1], got {theta}")
    indicators = np.asarray(indicators, dtype=float)
    top = indicators.max(initial=0.0)
    if top <= 0.0:
        return np.array([int(np.argmax(diameters))])
    return np.flatnonzero(indicators >= theta * top)


def _level_checks(system, sol, density):
    trace = density.trace
    r = sol.residual
    plain = system.free.copy()
    plain[trace.dofs] = plain[trace.tangential_dofs] = False
    resid_scale = max(np.abs(system.F).max(), np.abs(system.F - r).max(), 1e-300)
    un = trace.normal_part(sol.u)
    comp = density.normal * (trace.gap - un)
    comp_scale = (1.0 + np.abs(density.normal).max()) * \
        (1.0 + np.abs(trace.gap).max() + np.abs(un).max())
    return LevelChecks(
        lam_n_min=float(density.normal.min()),
        lam_n_max=float(np.abs(density.normal).max()),
        lam_t_max=float(np.abs(density.tangential).max()),
        resid_free_max=float(np.abs(r[plain]).max()),
        resid_scale=float(resid_scale),
        resid_normal_min=float(density.multiplier.min()),
        resid_tangential_max=float(np.abs(r[trace.tangential_dofs]).max()),
        comp_max=float(comp.max()),
        comp_scale=float(comp_scale),
        feas_violation=float((un - trace.gap).max()),
    )


def check_out_dir(out_dir):
    """Refuse a directory that already holds a file a run writes, so that
    the files of two runs never mix; nothing is deleted."""
    out = Path(out_dir)
    taken = sorted(p.name for p in out.glob("*") if _RUN_FILE.fullmatch(p.name))
    if taken:
        raise FileExistsError(f"output directory {out} already holds {taken[0]} "
                              "from an earlier run; give a new or empty directory")


def levels(problem, params):
    """Run the adaptive loop, yielding one ``Level`` per level.  A yielded
    level is the caller's until the next is requested: then the loop keeps
    its marked triangles only, so a caller that drops the level too holds
    nothing of it while the next level assembles and factors."""
    mesh = problem.mesh(params.n0)
    for level in range(params.levels):
        if level:
            mesh = msh.refine(mesh, rec.marked)
        tic = time.perf_counter()
        dofmap = fem.DofMap(mesh)
        system = fem.assemble(dofmap, problem)
        ndof = int(np.count_nonzero(system.free))
        if level and ndof <= rec.ndof:
            raise RuntimeError(f"level {level}: {ndof} degrees of freedom, no more than "
                               f"the {rec.ndof} of level {level - 1}")
        trace_mesh = dens.build_trace_mesh(mesh, problem)
        try:
            sol = vi.solve_vi(system, trace_mesh)
        except vi.SolverError as exc:
            raise vi.SolverError(f"level {level}: {exc}") from exc
        density = dens.compute_density(sol.residual, trace_mesh)
        report = est.estimate(dofmap, problem, sol, density)
        checks = _level_checks(system, sol, density)
        del system   # not held across the yield
        bad = np.flatnonzero(~np.isfinite(report.indicator))
        if bad.size or not np.isfinite(report.eta_h):
            first = f", the first is triangle {bad[0]}" if bad.size else ""
            raise ValueError(f"level {level}: non-finite estimate (eta_h = {report.eta_h}): "
                             f"{bad.size} triangles have a non-finite indicator{first}")
        err = prb.measure_error(mesh, sol.u, problem.exact) \
            if problem.exact is not None else float("nan")
        rec = LevelRecord(
            level=level, ndof=ndof, h_min=report.h_min, l_h=report.l_h,
            eta=tuple(report.eta), eta6=report.eta6, eta7=report.eta7,
            psi=report.psi, eta_h=report.eta_h, err_inf=err,
            eff_index=report.eta_h / err if err == err and err > 0 else float("nan"),
            active_nodes=int(sol.active.sum()), seconds=time.perf_counter() - tic, checks=checks)
        if level < params.levels - 1:
            rec.marked = (np.arange(mesh.num_triangles) if params.uniform
                          else mark(report.indicator, params.theta, mesh.diameters))
        yield Level(mesh, sol, density, report, rec)
        del dofmap, trace_mesh, sol, density, report   # rec alone crosses a level


def adapt(problem, params, out_dir=None, write_trace=False):
    """Run the adaptive loop and write its outputs; returns an AdaptiveResult."""
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        check_out_dir(out)
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"problem": problem.name, **asdict(params)}
        (out / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")

    records = []
    for lvl in levels(problem, params):
        records.append(lvl.record)
        if out is not None:
            _write_level_outputs(out, lvl, write_trace)
        if len(records) < params.levels:
            del lvl   # not held while the next level factors
    return AdaptiveResult(**vars(lvl), records=records)


def _write_level_outputs(out, lvl, write_trace):
    """Write the level's VTK file and append its row to convergence.csv, and
    with ``write_trace`` its density dump and PDAS rows; level 0 starts the
    CSV files."""
    mesh, sol, report, density, rec = lvl.mesh, lvl.solution, lvl.report, lvl.density, lvl.record
    nv = mesh.num_vertices
    multiplier = np.zeros(nv)
    vert = density.trace.nodes < nv
    multiplier[density.trace.nodes[vert]] = density.multiplier[vert]
    terms = {f"eta_{k + 1}": eta for k, eta in enumerate(report.eta_p[:, :nv])}
    msh.write_vtk(mesh, out / f"level_{rec.level}.vtk",
                  point_data={"displacement": sol.u.reshape(-1, 2)[:nv],
                              "multiplier": multiplier, **terms,
                              "consistency": report.consistency_p[:nv]},
                  cell_data={"indicator": report.indicator,
                             "level": mesh.levels.astype(float)})
    first = rec.level == 0
    with open(out / "convergence.csv", "a") as f:
        f.write(f"{CSV_HEADER}\n" * first + f"{rec.csv_row()}\n")
    if write_trace:
        dens.write_density_csv(out / f"density_{rec.level}.csv", mesh, density, sol.active)
        with open(out / "pdas_trace.csv", "a") as f:
            f.write("level,iteration,active_size,residual_norm\n" * first + "".join(
                f"{rec.level},{it},{size},{norm:.17g}\n" for it, size, norm in sol.history))
