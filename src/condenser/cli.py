"""Command-line front end: subcommands, solve and verification pipelines,
and report/CSV emission.  Scenarios come from ``scenarios.build_scenario``:
a config file, or a built-in example's config for ``example``.

Exit codes: 0 success, else the ``exit_code`` of the ``CondenserError``
raised (2 parse, 3 infeasible, 4 non-converged, 5 other) or 5 for any other
exception.  On any failure no output is written and a single
machine-readable line ``ERROR <code> <message>`` goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

import numpy as np
import yaml

from . import scenarios
from .balayage import GreenContext, balayage_project
from .errors import CondenserError, NonConvergedError, ParseError
from .gauss_solver import (ProblemSpec, SolveResult, lift_green_to_riesz,
                           solve_green_reduced, solve_riesz)
from .kernel import equilibrium_measure
from .model import PlateSpec, disk_nodes, plate_nodes, sphere_surface_nodes
from .scenarios import (Scenario, build_scenario, kernel_from,
                        optional_mapping, positive_size, require,
                        tolerances_from)
from .tolerances import Tolerances
from .verify import (kkt_report, scalar_zone_checks, support_report,
                     equivalence_check, unsolvability_sweep, loglog_slope,
                     zone_checks_apply)

REPORT_SCHEMA = 4


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file {path!r} not found") from None
    except yaml.YAMLError as exc:
        raise ParseError(f"config is not valid YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParseError("config root must be a mapping")
    return cfg


def _with_flags(cfg: dict, args) -> dict:
    """The config with the global flags merged in: --resolution and
    --truncation replace the top-level values, --tol-kkt and --max-iters
    override the tolerance block; flags not given leave the config as is."""
    cfg = {**cfg, **{key: val for key, val in (
        ("resolution", args.resolution), ("truncation", args.truncation))
        if val is not None}}
    tol = {key: val for key, val in (("kkt", args.tol_kkt),
                                     ("max_iters", args.max_iters))
           if val is not None}
    if tol:
        cfg["tolerances"] = {**optional_mapping(cfg, "tolerances"), **tol}
    return cfg


# ---------------------------------------------------------------------------
# report / CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(float(x)) for x in np.asarray(v).ravel()) + "]"
    return str(v)


class ReportBuilder:
    def __init__(self, name: str):
        self.lines = [f"schema_version = {REPORT_SCHEMA}",
                      f"scenario = {name}"]

    def add(self, key: str, value):
        self.lines.append(f"{key} = {_fmt(value)}")

    def section(self, title: str):
        self.lines.append("")
        self.lines.append(f"[{title}]")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line per row, cells through
    ``_fmt``."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    wr.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _atoms_csv(measures, caps) -> str:
    """atoms.csv of one measure per plate, in plate order, and each plate's
    cap weights (None: uncapped)."""
    dim = measures[0].nodes.dim
    header = ["plate"] + [f"x{i + 1}" for i in range(dim)] + ["weight", "cap"]
    rows = []
    for i, (mu, cap) in enumerate(zip(measures, caps)):
        cap = np.full(len(mu.weights), np.inf) if cap is None else cap
        rows += ([i, *map(float, x), float(w), float(c)]
                 for x, w, c in zip(mu.nodes.positions, mu.weights, cap))
    return _csv(header, rows)


def _solve_files(rep: ReportBuilder, spec: ProblemSpec, atoms: SolveResult,
                 trace: SolveResult) -> dict:
    """The report, the atoms of ``atoms`` and the iterates of ``trace``."""
    return {"report.txt": rep.text(),
            "atoms.csv": _atoms_csv(atoms.solution.components,
                                    spec.constraint),
            "trace.csv": _csv(["iter", "objective", "step", "kkt_residual"],
                              ([int(row[0]), *map(float, row[1:])]
                               for row in trace.trace))}


def _emit(out_dir: str, files: dict):
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(content)


def _solver_section(rep: ReportBuilder, result: SolveResult,
                    prefix: str = "solver"):
    rep.section(prefix)
    for name in ("energy", "converged", "iterations", "kkt_residual",
                 "constants"):
        rep.add(f"{prefix}.{name}", getattr(result, name))
    rep.add(f"{prefix}.finish",
            "exact" if result.exact_finish else "projected_gradient")
    for i, comp in enumerate(result.solution.components):
        rep.add(f"{prefix}.plate{i}.mass", comp.total_mass)
    if result.lift_mass_defect is not None:
        rep.add(f"{prefix}.lift_mass_defect", result.lift_mass_defect)
    if result.balayage_residual is not None:
        rep.add(f"{prefix}.balayage_residual", result.balayage_residual)


def _config_section(rep: ReportBuilder, spec: ProblemSpec, meta: dict):
    rep.section("config")
    rep.add("config.kernel.n", spec.kernel.n)
    rep.add("config.kernel.alpha", spec.kernel.alpha)
    rep.add("config.totals", spec.totals)
    for key, val in sorted(meta.items()):
        rep.add(f"config.{key}", val)
    for i, p in enumerate(spec.condenser.plates):
        rep.add(f"config.plate{i}.geometry", p.spec.tag)
        rep.add(f"config.plate{i}.sign", p.sign)
        rep.add(f"config.plate{i}.nodes", len(p.nodes))
        if p.spec.truncation is not None:
            rep.add(f"config.plate{i}.truncation", p.spec.truncation)
    rep.section("tolerances")
    for name in Tolerances.__dataclass_fields__:
        rep.add(f"tolerances.{name}", getattr(spec.tolerances, name))


def _verify_sections(rep: ReportBuilder, result, spec, green, lift,
                     green_result):
    krep = kkt_report(result, spec)
    rep.section("kkt")
    for name in ("constants", "lower_violation", "upper_violation",
                 "plate_p_stationarity", "plate_p_level", "plate_p_excluded",
                 "tol_kkt", "tol_potential"):
        rep.add(f"kkt.{name}", getattr(krep, name))
    rep.add("kkt.pass", krep.overall_pass)
    if zone_checks_apply(spec):
        zrep = scalar_zone_checks(result, spec, green)
        rep.section("zone")
        for name in ("c1", "identity_residual", "level_residual",
                     "bound_residual", "support_failures", "probes_used",
                     "probes_excluded"):
            rep.add(f"zone.{name}", getattr(zrep, name))
        rep.add("zone.tolerance", zrep.tol)
        for name, ok in zrep.checks.items():
            rep.add(f"zone.check.{name}", ok)
        rep.add("zone.pass", zrep.overall_pass)
    srep = support_report(result, spec)
    rep.section("support")
    if srep.boundary_fraction is not None:
        rep.add("support.boundary_fraction", srep.boundary_fraction)
    if srep.layer_masses is not None:
        rep.add("support.layer_masses", srep.layer_masses)
        rep.add("support.empty_layers", len(srep.empty_layers))
    rep.add("support.pass", srep.passed)
    eq = equivalence_check(result, lift, spec, green_result=green_result)
    rep.section("equivalence")
    for key, val in eq.items():
        rep.add(f"equivalence.{key}", val)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _converged(result: SolveResult) -> SolveResult:
    if not result.converged:
        raise NonConvergedError(
            f"solver stalled at KKT residual {result.kkt_residual:.3e}")
    return result


def cmd_solve(args) -> dict:
    sc = build_scenario(_with_flags(load_config(args.config), args))
    spec = sc.spec
    result = _converged(solve_riesz(spec))
    rep = ReportBuilder(sc.name)
    _config_section(rep, spec, sc.meta)
    _solver_section(rep, result)
    kkt = kkt_report(result, spec)
    rep.section("kkt")
    rep.add("kkt.pass", kkt.overall_pass)
    rep.add("kkt.max_violation", kkt.max_violation)
    return _solve_files(rep, spec, result, result)


def cmd_solve_green(args) -> dict:
    sc = build_scenario(_with_flags(load_config(args.config), args))
    spec, green = sc.spec, sc.green
    result = _converged(solve_green_reduced(spec, green))
    lift = lift_green_to_riesz(result, spec, green)
    rep = ReportBuilder(sc.name)
    _config_section(rep, spec, sc.meta)
    _solver_section(rep, result, prefix="green")
    _solver_section(rep, lift, prefix="lifted")
    return _solve_files(rep, spec, lift, result)


def cmd_balayage(args) -> dict:
    mu, exterior, kernel, truncation = scenarios.build_balayage(
        _with_flags(load_config(args.config), args))
    res = balayage_project(mu, GreenContext(exterior, kernel))
    rep = ReportBuilder("balayage")
    rep.section("balayage")
    for name in ("mass_ratio", "potential_residual", "projection_gap",
                 "orthogonality", "clipped_nodes"):
        rep.add(f"balayage.{name}", getattr(res, name))
    rep.add("balayage.truncation", truncation)
    rep.add("balayage.exterior_nodes", len(exterior))
    return {"report.txt": rep.text(),
            "atoms.csv": _atoms_csv([res.swept], [None])}


def cmd_capacity(args) -> dict:
    cfg = _with_flags(load_config(args.config), args)
    kernel = kernel_from(cfg)
    tol = tolerances_from(cfg)
    resolution = positive_size(cfg, "resolution", 0.1)
    gc = require(cfg, "conductor", dict)
    tag = require(gc, "geometry", str)
    if tag not in ("sphere", "ball", "disk"):
        raise ParseError(f"unsupported conductor geometry {tag!r}")
    try:
        # a sphere conductor is the boundary of the ball it describes
        spec = PlateSpec("disk" if tag == "disk" else "ball", +1,
                         center=tuple(gc.get("center", (0.0, 0.0, 0.0))),
                         radius=positive_size(gc, "radius", 1.0),
                         axis=int(gc.get("axis", 0)))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"conductor: {exc}") from None
    if tag == "sphere":
        count = max(12, int(round(
            4 * math.pi * spec.radius ** 2 / resolution ** 2)))
        nodes = sphere_surface_nodes(spec.center, spec.radius, count)
    else:
        nodes = plate_nodes(spec, resolution)
    total = positive_size(gc, "total", 1.0)
    lam, cap = equilibrium_measure(nodes, kernel, total, tolerances=tol)
    rep = ReportBuilder("capacity")
    rep.section("capacity")
    rep.add("capacity.geometry", tag)
    rep.add("capacity.nodes", len(nodes))
    rep.add("capacity.total_mass", total)
    rep.add("capacity.energy", total * total / cap)
    rep.add("capacity.value", cap)
    return {"report.txt": rep.text(),
            "atoms.csv": _atoms_csv([lam], [None])}


def cmd_verify(args) -> dict:
    """Solve, reduce, lift and check a config file or, for ``example``, a
    built-in config."""
    cfg = scenarios.EXAMPLES[args.example_name]() \
        if args.command == "example" else load_config(args.config)
    return _pipeline(build_scenario(_with_flags(cfg, args)))


def _pipeline(sc: Scenario) -> dict:
    spec, green = sc.spec, sc.green
    result = _converged(solve_riesz(spec))
    gres = solve_green_reduced(spec, green)
    lift = lift_green_to_riesz(gres, spec, green)
    rep = ReportBuilder(sc.name)
    _config_section(rep, spec, sc.meta)
    _solver_section(rep, result)
    _solver_section(rep, gres, prefix="green")
    _verify_sections(rep, result, spec, green, lift, gres)
    return _solve_files(rep, spec, result, result)


def cmd_sweep(args) -> dict:
    cfg = _with_flags(load_config(args.config), args)
    tol = tolerances_from(cfg)
    mode = cfg.get("mode", "uncapped")
    if mode not in ("uncapped", "capped"):
        raise ParseError(f"sweep mode {mode!r} is not uncapped or capped")
    stages = cfg.get("stages", [1, 2, 3, 4, 5, 6])
    if not (isinstance(stages, list) and stages and all(
            type(s) is int and s >= 1 for s in stages)):
        raise ParseError("sweep stages must be a non-empty list of ints >= 1")
    ctx = scenarios.sweep_plane_context(
        flat_radius=positive_size(cfg, "flat_radius", 8.0),
        cell=positive_size(cfg, "cell", 0.33),
        truncation=positive_size(cfg, "truncation", 30.0))
    zeta = None
    if mode == "capped":
        zn = disk_nodes((1.0, 0.0, 0.0), 0.5, 80, axis=0)
        zeta, _ = equilibrium_measure(zn, ctx.riesz, 0.5, tolerances=tol)
    rows = unsolvability_sweep(mode, stages, ctx, zeta=zeta, tolerances=tol)
    key = "energy" if mode == "uncapped" else "bound"
    vals = [row[key] for row in rows]
    rep = ReportBuilder("sweep")
    rep.section("sweep")
    rep.add("sweep.mode", mode)
    rep.add("sweep.stages", stages)
    rep.add(f"sweep.{key}", vals)
    rep.add("sweep.strictly_decreasing",
            all(vals[i + 1] < vals[i] for i in range(len(vals) - 1)))
    rep.add("sweep.loglog_slope", loglog_slope(stages, vals))
    keys = sorted(rows[0])
    return {"report.txt": rep.text(),
            "stages.csv": _csv(keys, ([row[k] for k in keys] for row in rows))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condenser",
        description="Constrained minimum-energy problems on discretized "
                    "condensers: solve, verify, and probe")
    parser.add_argument("--tol-kkt", type=float, default=None)
    parser.add_argument("--truncation", type=float, default=None)
    parser.add_argument("--resolution", type=float, default=None)
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--out-dir", type=str, default="out")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "solve-green", "balayage", "capacity", "verify",
                 "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
    spx = sub.add_parser("example")
    spx.add_argument("example_name", choices=sorted(scenarios.EXAMPLES))
    args = parser.parse_args(argv)

    handlers = {
        "solve": cmd_solve,
        "solve-green": cmd_solve_green,
        "balayage": cmd_balayage,
        "capacity": cmd_capacity,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "example": cmd_verify,
    }
    try:
        files = handlers[args.command](args)
    except CondenserError as exc:
        print(f"ERROR {exc.code} {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ERROR Internal {exc}", file=sys.stderr)
        return 5
    _emit(args.out_dir, files)
    print(f"wrote {', '.join(sorted(files))} to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
