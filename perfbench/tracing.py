"""In-memory spans around calls into the signorini modules.

The traced run replaces public functions of each module (and scipy's
``splu`` as ``signorini.vi`` sees it) with wrappers that record one span per
call: id, name, start, end and the id of the enclosing span.  Nothing inside
the package changes; the spans stay in memory until the worker reports them.
"""

from __future__ import annotations

import time
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans = []        # [id, name, start, end, parent id or None]
        self._open = []

    def wrap(self, owner, attr, name, on_result=None):
        """Record a span for each call of ``owner.attr``; ``on_result`` sees
        the return value after the span has closed."""
        original = getattr(owner, attr)

        @wraps(original)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), None,
                    self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                span[3] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def busy(self):
        """Total duration per span name."""
        out = {}
        for _, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_time(self):
        """Duration minus the time covered by child spans, per span name."""
        child = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return out


def instrument(tracer, counts):
    """Wrap the layer boundaries the benchmark reports; fill ``counts``."""
    import signorini.adaptive as ad
    import signorini.cli as cli
    import signorini.density as dens
    import signorini.estimator as est
    import signorini.fem as fem
    import signorini.mesh as msh
    import signorini.problems as prb
    import signorini.vi as vi

    def on_factor(lu):
        counts["vi.factorizations"] += 1
        counts["vi.lu_nnz_max"] = max(counts["vi.lu_nnz_max"], lu.nnz)

    def on_solve(sol):
        counts["vi.pdas_iterations"] += sol.iterations

    def on_assemble(system):
        counts["fem.stiffness_nnz_final"] = system.K.nnz

    counts.update({"vi.factorizations": 0, "vi.lu_nnz_max": 0,
                   "vi.pdas_iterations": 0, "fem.stiffness_nnz_final": 0})
    tracer.wrap(msh, "build_patches", "mesh.build_patches")
    tracer.wrap(msh, "refine", "mesh.refine")
    tracer.wrap(msh, "write_vtk", "mesh.write_vtk")
    tracer.wrap(fem.DofMap, "__init__", "fem.DofMap")
    tracer.wrap(fem, "assemble", "fem.assemble", on_assemble)
    tracer.wrap(vi, "solve_vi", "vi.solve_vi", on_solve)
    # vi calls spla.splu; SuperLU.nnz is read instead of .L/.U, which copy
    tracer.wrap(vi.spla, "splu", "scipy.splu", on_factor)
    tracer.wrap(dens, "build_trace_mesh", "density.build_trace_mesh")
    tracer.wrap(dens, "compute_density", "density.compute_density")
    tracer.wrap(dens, "write_density_csv", "density.write_density_csv")
    tracer.wrap(est, "estimate", "estimator.estimate")
    tracer.wrap(prb, "get_problem", "problems.get_problem")
    tracer.wrap(prb, "verify_manufactured", "problems.verify_manufactured")
    tracer.wrap(prb, "measure_error", "problems.measure_error")
    tracer.wrap(ad, "mark", "adaptive.mark")
    tracer.wrap(ad, "adapt", "adaptive.adapt")
    tracer.wrap(cli, "main", "cli.main")


# per-layer metric -> span name whose busy time it reports
BUSY = {
    "mesh.patches_s": "mesh.build_patches",
    "mesh.refine_s": "mesh.refine",
    "mesh.write_vtk_s": "mesh.write_vtk",
    "fem.dofmap_s": "fem.DofMap",
    "fem.assemble_s": "fem.assemble",
    "vi.solve_vi_s": "vi.solve_vi",
    "vi.factor_s": "scipy.splu",
    "density.trace_mesh_s": "density.build_trace_mesh",
    "density.compute_s": "density.compute_density",
    "density.write_csv_s": "density.write_density_csv",
    "estimator.estimate_s": "estimator.estimate",
    "problems.get_problem_s": "problems.get_problem",
    "problems.verify_manufactured_s": "problems.verify_manufactured",
    "problems.measure_error_s": "problems.measure_error",
    "adaptive.mark_s": "adaptive.mark",
}
MODULES = ("mesh", "fem", "vi", "scipy", "density", "estimator", "problems",
           "adaptive", "cli")


def layer_metrics(tracer, counts, n_levels):
    """Per-layer busy and self times (s) and counts of one traced run."""
    busy = tracer.busy()
    own = tracer.self_time()
    out = {metric: busy.get(name, 0.0) for metric, name in BUSY.items()}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(t for name, t in own.items()
                                      if name.split(".")[0] == module)
    # the run minus every wrapped child, mark included
    out["adaptive.self_s"] = own.get("adaptive.adapt", 0.0)
    out.update(counts)
    factorizations = counts["vi.factorizations"]
    out["vi.useful_factor_ratio"] = n_levels / factorizations if factorizations else 0.0
    return out
