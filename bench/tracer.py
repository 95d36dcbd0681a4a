"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces every entry point of the layer modules with a
wrapper that records one span per call: its name, start, end and the span
that was open when it started.  Entry points are the module-level functions a
layer defines that are public or imported by another module, plus the methods
of `GreenContext`, the balayage layer's API object.  A function is replaced
in its own module and in every module that bound it by name, so calls are
traced wherever callers import them; nothing in the package source changes.

`layer_metrics()` turns the spans into the per-layer metrics of
BENCHMARK.json.  The time of a metric is the wall time its spans cover (a span
nested in another span of the same metric is not counted twice), and a
layer's self time is the sum over its spans of the span minus its children.
The parts of set-up are disjoint: layout time leaves out the trims that the
layout functions run, which count under trim time only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

LAYERS = ("model", "kernel", "_pg", "balayage", "gauss_solver", "verify",
          "scenarios")

MIB = float(1 << 20)

# metric -> span names whose covered wall time it reports
TIME_METRICS = {
    "model.trim_s": ("model.trim_cell_radii",
                     "model._nearest_neighbor_distances"),
    "model.layout_s": ("model.ball_volume_nodes", "model.ball_complement_nodes",
                       "model.disk_nodes", "model.half_space_nodes",
                       "model.sphere_surface_nodes", "model.graded_plane_nodes",
                       "model._concat_nodesets"),
    "model.resultant_s": ("model.resultant", "model.semimetric_distance"),
    "kernel.assemble_s": ("kernel.assemble_matrix",),
    "kernel.equilibrium_s": ("kernel.equilibrium_measure",),
    "kernel.gauss_functional_s": ("kernel.gauss_functional",),
    "kernel.potential_s": ("kernel.potential", "kernel.vector_potential"),
    "pg.s": ("pg.minimize_quadratic",),
    "balayage.factor_s": ("balayage.GreenContext.__init__",),
    "balayage.sweep_s": ("balayage.GreenContext.sweep_columns",),
    "balayage.green_matrix_s": ("balayage.GreenContext.green_matrix",),
    "balayage.project_s": ("balayage.balayage_project",),
    "gauss_solver.joint_assembly_s": ("gauss_solver.joint_kernel_matrix",),
    "gauss_solver.solve_riesz_s": ("gauss_solver.solve_riesz",),
    "gauss_solver.solve_green_s": ("gauss_solver.solve_green_reduced",),
    "gauss_solver.lift_s": ("gauss_solver.lift_green_to_riesz",),
    "verify.kkt_s": ("verify.kkt_report",),
    "verify.zone_s": ("verify.scalar_zone_checks",),
    "verify.support_s": ("verify.support_report",),
    "verify.equivalence_s": ("verify.equivalence_check",),
    "scenarios.build_s": ("scenarios.example_one", "scenarios.example_two",
                          "scenarios.ball_in_ball"),
}


def _plate_counts(args, kwargs, built):
    plates = built.spec.condenser.plates
    return {"pos": sum(len(p.nodes) for p in plates[:-1]),
            "neg": len(plates[-1].nodes)}


def _sweep_columns(args, kwargs, result):
    return {"columns": int(result[0].shape[1]), "clipped": int(result[2])}


def _potential_pairs(args, kwargs, result):
    return {"pairs": len(result) * len(args[0].weights)}


# span name -> function(args, kwargs, result) returning the span's counters
OBSERVERS = {
    "scenarios.example_one": _plate_counts,
    "scenarios.example_two": _plate_counts,
    "scenarios.ball_in_ball": _plate_counts,
    "kernel.assemble_matrix": lambda a, k, r: {"m": r.size},
    "kernel.potential": _potential_pairs,
    "pg.minimize_quadratic": lambda a, k, r: {
        "n": int(a[0].shape[0]), "iters": r.iterations,
        "matvecs": r.matvecs, "kkt": r.kkt_residual},
    "balayage.GreenContext.__init__": lambda a, k, r: {"nodes": len(a[1])},
    "balayage.GreenContext.sweep_columns": _sweep_columns,
    "balayage.GreenContext.green_matrix": lambda a, k, r: {"asym": r[1]},
    "gauss_solver.solve_riesz": lambda a, k, r: {
        "iters": r.iterations,
        "n": sum(len(c.nodes) for c in r.solution.components)},
    "gauss_solver.solve_green_reduced": lambda a, k, r: {"iters": r.iterations},
    "gauss_solver.lift_green_to_riesz": lambda a, k, r: {
        "defect": r.lift_mass_defect},
    "verify.scalar_zone_checks": lambda a, k, r: {"probes": r.probes_used},
}

# per-layer metrics that form one pipeline run, for the "largest stage" line
STAGES = ("scenarios.build_s", "gauss_solver.solve_riesz_s",
          "gauss_solver.solve_green_s", "gauss_solver.lift_s", "verify.kkt_s",
          "verify.zone_s", "verify.support_s", "verify.equivalence_s")

# disjoint per-layer metrics that make up set-up, for the "largest part of
# set-up" line
SETUP_PARTS = ("model.trim_s", "model.layout_s", "kernel.equilibrium_s",
               "balayage.factor_s", "scenarios.self_s")

# spans that also record the peak of traced (tracemalloc) memory
MEMORY_SPANS = ("gauss_solver.solve_riesz",)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; `install()` wraps, `uninstall()` restores."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        memory = name in MEMORY_SPANS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, parent)
            tracer.spans.append(span)
            tracer._open.append(span)
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if memory:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if observe is not None:
                span.info.update(observe(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        modules = {layer: sys.modules[f"condenser.{layer}"] for layer in LAYERS}
        package = [m for key, m in sys.modules.items()
                   if key == "condenser" or key.startswith("condenser.")]
        bound_elsewhere = {id(obj) for m in package for key, obj in vars(m).items()
                           if inspect.isfunction(obj)
                           and obj.__module__ != m.__name__}
        wrappers = {}
        for layer, mod in modules.items():
            label = layer.lstrip("_")
            for key, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not key.startswith("_") or id(obj) in bound_elsewhere):
                    wrappers[id(obj)] = self._wrap(f"{label}.{key}", obj)
        for m in package:
            for key, obj in list(vars(m).items()):
                if id(obj) in wrappers:
                    self._undo.append((m, key, obj))
                    setattr(m, key, wrappers[id(obj)])
        green_context = modules["balayage"].GreenContext
        for key, obj in list(vars(green_context).items()):
            if inspect.isfunction(obj) and (not key.startswith("_")
                                            or key == "__init__"):
                self._undo.append((green_context, key, obj))
                setattr(green_context, key, self._wrap(
                    f"balayage.GreenContext.{key}", obj))

    def uninstall(self):
        for owner, key, obj in reversed(self._undo):
            setattr(owner, key, obj)
        self._undo.clear()

    def self_times(self) -> dict:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        out: dict = {}
        for s in self.spans:
            calls, incl, own = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, incl + s.duration,
                           own + s.duration - s.child_s)
        return out

    def covered(self, names) -> float:
        """Wall time covered by the spans of `names`, nested ones once."""
        names = set(names)
        total = 0.0
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and p.name not in names:
                p = p.parent
            if p is None:
                total += s.duration
        return total

    def under(self, span, name) -> bool:
        """Whether a span named `name` encloses `span`."""
        p = span.parent
        while p is not None and p.name != name:
            p = p.parent
        return p is not None


def _spans(tracer, name):
    return [s for s in tracer.spans if s.name == name]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> value (trace.overhead_s is added by run.py)."""
    out = {name: tracer.covered(spans) for name, spans in TIME_METRICS.items()}
    # ball_complement_nodes and half_space_nodes trim their own cells: take
    # the trims out of layout time, so set-up's parts do not overlap
    trims = TIME_METRICS["model.trim_s"]
    out["model.layout_s"] = tracer.covered(
        TIME_METRICS["model.layout_s"] + trims) - tracer.covered(trims)

    built = _spans(tracer, "scenarios.example_one") + \
        _spans(tracer, "scenarios.example_two") + \
        _spans(tracer, "scenarios.ball_in_ball")
    out["model.nodes_positive"] = built[-1].info["pos"]
    out["model.nodes_negative"] = built[-1].info["neg"]

    assembled = _spans(tracer, "kernel.assemble_matrix")
    out["kernel.assemble_calls"] = len(assembled)
    out["kernel.assembled_mb"] = sum(8.0 * s.info["m"] ** 2
                                     for s in assembled) / MIB
    out["kernel.equilibrium_calls"] = len(_spans(tracer,
                                                 "kernel.equilibrium_measure"))
    out["kernel.potential_pairs"] = sum(s.info["pairs"] for s in
                                        _spans(tracer, "kernel.potential"))

    pg = _spans(tracer, "pg.minimize_quadratic")
    out["pg.solves"] = len(pg)
    out["pg.outer_iters"] = sum(s.info["iters"] for s in pg)
    out["pg.matvecs"] = sum(s.info["matvecs"] for s in pg)
    out["pg.matvec_gb"] = sum(8.0 * s.info["n"] ** 2 * s.info["matvecs"]
                              for s in pg) / 1e9
    out["pg.kkt_residual_max"] = max(s.info["kkt"] for s in pg)

    factors = _spans(tracer, "balayage.GreenContext.__init__")
    out["balayage.exterior_nodes"] = factors[-1].info["nodes"]
    sweeps = _spans(tracer, "balayage.GreenContext.sweep_columns")
    columns = sum(s.info["columns"] for s in sweeps)
    clipped = sum(s.info["clipped"] for s in sweeps)
    out["balayage.sweep_columns"] = columns
    out["balayage.clipped_columns"] = clipped
    out["balayage.clipped_frac"] = clipped / columns if columns else 0.0
    out["balayage.green_asymmetry"] = max(
        s.info["asym"] for s in _spans(tracer,
                                       "balayage.GreenContext.green_matrix"))

    riesz = _spans(tracer, "gauss_solver.solve_riesz")[-1]
    out["gauss_solver.riesz_iters"] = riesz.info["iters"]
    out["gauss_solver.riesz_matvecs"] = sum(
        s.info["matvecs"] for s in pg
        if tracer.under(s, "gauss_solver.solve_riesz"))
    out["gauss_solver.green_iters"] = _spans(
        tracer, "gauss_solver.solve_green_reduced")[-1].info["iters"]
    out["gauss_solver.lift_mass_defect"] = _spans(
        tracer, "gauss_solver.lift_green_to_riesz")[-1].info["defect"]
    peak = riesz.info["peak_bytes"]
    out["gauss_solver.riesz_peak_mb"] = peak / MIB
    out["gauss_solver.riesz_dense_copies"] = peak / (8.0 * riesz.info["n"] ** 2)

    out["verify.zone_probes_used"] = _spans(
        tracer, "verify.scalar_zone_checks")[-1].info["probes"]

    selfs = tracer.self_times()
    for layer in LAYERS:
        label = layer.lstrip("_")
        out[f"{label}.self_s"] = sum(own for name, (_, _, own) in selfs.items()
                                     if name.split(".", 1)[0] == label)
    return out
