"""Checks of solver outputs against the structural characterizations:
first-order (KKT) conditions, scalar-case zone identities, support layout,
Riesz/Green equivalence, and the short-circuit / unsolvability trends."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from ._pg import node_classes, plate_constant_and_kkt
from .balayage import GreenContext
from .errors import WrongScenarioError
from .gauss_solver import ProblemSpec, SolveResult
from .kernel import equilibrium_measure, mutual_energy, potential
from .model import (DiscreteMeasure, VectorMeasure, disk_nodes, resultant,
                    semimetric_distance)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

ZONE_PROBES = 300         # zone-check probes inside D and across space, each
# probes closer than this multiple of a node's cell radius are excluded from
# off-node potential checks (reported, never silent)
PROBE_EXCLUSION = 2.0
# per-node mass floor, relative to the uniform share, for support presence
SUPP_FLOOR_REL = 1e-6
# zero-weight negative-plate nodes drawn for the zero-potential law
ZERO_SAMPLE = 128


def weighted_potentials(solution: VectorMeasure, spec: ProblemSpec) -> list:
    """W^{lambda,i} = s_i kappa(., R lambda) + f_i at every node of every
    component, recomputed from the measure itself (independent of solver
    internals).  W is +inf where the field is, which is never a KKT
    violation: such nodes are frozen at zero weight."""
    r = resultant(solution)
    return [s * potential(r, c.nodes.positions, spec.kernel) + f
            for s, c, f in zip(solution.signs, solution.components,
                               spec.field)]


@dataclass
class KKTReport:
    constants: np.ndarray          # c_j per positive plate
    lower_violation: np.ndarray    # max(c_j - W) over below-cap nodes, normalized
    upper_violation: np.ndarray    # max(W - c_j) over carried nodes, normalized
    plate_p_stationarity: float    # same two-sided residual on the negative plate
    plate_p_level: float           # max |W^{lambda,p}|, normalized (zero-potential law)
    plate_p_excluded: int          # nodes inside the boundary exclusion zone
    tol_kkt: float
    tol_potential: float
    kkt_pass: bool
    plate_p_pass: bool

    @property
    def overall_pass(self) -> bool:
        return self.kkt_pass and self.plate_p_pass

    @property
    def max_violation(self) -> float:
        vals = [self.plate_p_stationarity]
        if self.lower_violation.size:
            vals.append(float(self.lower_violation.max()))
        if self.upper_violation.size:
            vals.append(float(self.upper_violation.max()))
        return max(vals)


def kkt_report(result: SolveResult, spec: ProblemSpec) -> KKTReport:
    """First-order conditions at the solution, read at the nodes.

    Positive plates: W >= c_j below the cap, W <= c_j on carried nodes.
    Negative plate: the same stationarity around its own constant, plus the
    potential level |W| itself, which in the continuum vanishes nearly
    everywhere on the negative plate.  The level check is
    discretization-limited, so it carries the potential tolerance while the
    stationarity residuals carry the KKT tolerance.  The level is read at
    every carried node and at ``ZERO_SAMPLE`` zero-weight nodes, drawn the
    same way on every call.
    """
    tol = spec.tolerances
    sol = result.solution
    W = weighted_potentials(sol, spec)
    p = spec.p_index

    stats = [plate_constant_and_kkt(W[j], sol.components[j].weights,
                                    spec.constraint[j], spec.totals[j])
             for j in range(p + 1)]
    consts, lower, upper = (np.array(col[:p]) for col in zip(*stats))
    plate_p_stat = max(stats[p][1:])
    # zero-potential law on the negative plate, outside the boundary zone
    plate = spec.condenser.plates[p]
    pick, _ = node_classes(sol.components[p].weights, spec.constraint[p],
                           spec.totals[p])
    zeros = np.flatnonzero(~pick)
    if zeros.size:
        rng = np.random.default_rng(0)
        take = rng.choice(zeros, size=min(ZERO_SAMPLE, zeros.size),
                          replace=False)
        pick[take] = True
    excluded = 0
    zone = None if plate.spec is None else plate.spec.boundary_zone(plate.nodes)
    if zone is not None:
        excluded = int(np.sum(pick & zone))
        pick = pick & ~zone
    norm = max(1.0, float(np.abs(consts).max()))
    plate_p_level = float(np.abs(W[p][pick]).max()) / norm \
        if np.any(pick) else 0.0

    kkt_pass = max(plate_p_stat, lower.max(), upper.max()) <= tol.kkt
    plate_p_pass = plate_p_level <= tol.potential
    return KKTReport(constants=consts, lower_violation=lower,
                     upper_violation=upper, plate_p_stationarity=plate_p_stat,
                     plate_p_level=plate_p_level, plate_p_excluded=excluded,
                     tol_kkt=tol.kkt, tol_potential=tol.potential,
                     kkt_pass=kkt_pass, plate_p_pass=plate_p_pass)


@dataclass
class ZoneReport:
    c1: float
    identity_residual: float       # kappa(.,lambda) vs g(.,lambda+) at D probes
    level_residual: float          # kappa(.,lambda) vs c1 at cap-slack nodes
    bound_residual: float          # (kappa(.,lambda) - c1)+ over the probe grid
    support_failures: int          # xi-carried nodes with no lambda+ mass (alpha<2)
    probes_used: int
    probes_excluded: int
    tol: float
    checks: dict

    @property
    def overall_pass(self) -> bool:
        return all(self.checks.values())


def zone_checks_apply(spec: ProblemSpec) -> bool:
    """Whether the scalar zone checks apply: one positive plate, unit
    masses and a field that is identically zero."""
    return len(spec.condenser.plates) == 2 and spec.totals[0] == 1.0 \
        and not any(np.any(f) for f in spec.field)


def scalar_zone_checks(result: SolveResult, spec: ProblemSpec,
                       green: GreenContext, seed: int = 3) -> ZoneReport:
    """Scalar-case structure checks (one positive plate, unit masses, no
    field): the Riesz potential of the signed solution equals the Green
    potential of its positive part inside the domain, sits at the constant
    c1 where the cap is slack, stays below c1 everywhere, and (for alpha < 2
    with a solid complement) the solution charges every cap-carried node.
    ``seed`` draws the probe points.
    """
    if not zone_checks_apply(spec):
        raise WrongScenarioError(
            "zone checks need one positive plate, unit masses and no field")
    tol = spec.tolerances
    sol = result.solution
    if all(c.total_mass == 0.0 for c in sol.components):
        return ZoneReport(c1=0.0, identity_residual=math.inf,
                          level_residual=math.inf, bound_residual=math.inf,
                          support_failures=len(sol.components[0].weights),
                          probes_used=0, probes_excluded=0,
                          tol=tol.potential,
                          checks={"identity": False, "level": False,
                                  "bound": False, "support": False})
    lam = resultant(sol)
    plate1 = spec.condenser.plates[0]
    plate_p = spec.condenser.plates[1]
    caps = spec.constraint[0]
    w1 = sol.components[0].weights
    # without a field, W^1 = kappa(., lambda) and W^p = -kappa(., lambda)
    pot_nodes, neg_pot_p = weighted_potentials(sol, spec)
    c1, _, _ = plate_constant_and_kkt(pot_nodes, w1, caps, spec.totals[0])
    norm = max(1.0, abs(c1))

    # (ii) potential at the constant on cap-slack nodes
    _, below = node_classes(w1, caps, spec.totals[0])
    level_res = float(np.abs(pot_nodes[below] - c1).max()) / norm \
        if np.any(below) else 0.0

    # probe points inside D and across the truncated space
    rng = np.random.default_rng(seed)
    all_pos = np.vstack([p.nodes.positions for p in spec.condenser.plates])
    all_rad = np.concatenate([p.nodes.cell_radii for p in spec.condenser.plates])
    interior, excluded_i = _domain_probes(plate_p, ZONE_PROBES, rng, all_pos,
                                          all_rad)
    # (i) Riesz potential of lambda vs Green potential of lambda+ inside D
    if interior.shape[0]:
        pot_in = potential(lam, interior, spec.kernel)
        gpot = green.green_potential(sol.components[0], interior)
        ident_res = float(np.abs(pot_in - gpot).max()) / norm
    else:
        ident_res = math.inf

    # (iii) global upper bound at nodes and at far probes
    far, excluded_f = _far_probes(ZONE_PROBES, rng, all_pos, all_rad)
    over = max(float((pn - c1).max()) for pn in (pot_nodes, -neg_pot_p))
    if far.shape[0]:
        over = max(over, float((potential(lam, far, spec.kernel) - c1).max()))
    bound_res = max(0.0, over) / norm

    # (iv) support identity and strict bound off the cap support (alpha < 2)
    supp_failures = 0
    off_margin = math.inf
    off_used = 0
    if spec.kernel.alpha < 2.0:
        floor = SUPP_FLOOR_REL * spec.totals[0] / len(plate1.nodes)
        carried_cap = caps > floor
        supp_failures = int(np.sum(carried_cap & (w1 <= floor)))
        off_nodes = np.flatnonzero(~carried_cap)
        if off_nodes.size:
            off_pot = pot_nodes[off_nodes]
            off_margin = float((c1 - off_pot).min()) / norm
            off_used = int(off_nodes.size)

    checks = {
        "identity": ident_res <= tol.potential,
        "level": level_res <= tol.potential,
        "bound": bound_res <= tol.potential,
        "support": (supp_failures == 0) and
                   (off_used == 0 or off_margin > tol.potential),
    }
    return ZoneReport(c1=c1, identity_residual=ident_res,
                      level_residual=level_res, bound_residual=bound_res,
                      support_failures=supp_failures,
                      probes_used=int(interior.shape[0] + far.shape[0]),
                      probes_excluded=excluded_i + excluded_f,
                      tol=tol.potential, checks=checks)


def _exclude_near_atoms(pts, all_pos, all_rad):
    """Mask of the probes farther from every atom than PROBE_EXCLUSION x
    the atom's cell radius."""
    keep = np.ones(pts.shape[0], dtype=bool)
    near = cKDTree(pts).query_ball_point(all_pos, PROBE_EXCLUSION * all_rad)
    keep[[i for hits in near for i in hits]] = False
    return keep


def _domain_probes(plate_p, n, rng, all_pos, all_rad):
    """Random probes inside D (the complement of the negative plate)."""
    spec = plate_p.spec
    tag = None if spec is None else spec.tag
    if tag == "ball_complement":
        u = rng.random(4 * n)
        dirs = rng.normal(size=(4 * n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.asarray(spec.center) + \
            dirs * (0.95 * spec.radius * u[:, None] ** (1.0 / 3.0))
    elif tag == "half_space":
        span = max(1.0, float(np.abs(all_pos).max()) / 4.0)
        pts = rng.uniform(-span, span, size=(4 * n, 3))
        pts[:, spec.axis] = spec.center[spec.axis] - \
            spec.side * (0.05 + rng.random(4 * n) * span)
    else:
        raise WrongScenarioError(
            f"no probe generator for domain geometry {tag!r}")
    keep = _exclude_near_atoms(pts, all_pos, all_rad)
    return pts[keep][:n], int(np.sum(~keep))


def _far_probes(n, rng, all_pos, all_rad):
    """Log-radially spread probes over the truncated ambient space."""
    scale = max(2.0, float(np.abs(all_pos).max()))
    u = rng.random(4 * n)
    radii = np.exp(np.log(0.05 * scale) + u * (np.log(scale) - np.log(0.05 * scale)))
    dirs = rng.normal(size=(4 * n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * radii[:, None]
    keep = _exclude_near_atoms(pts, all_pos, all_rad)
    return pts[keep][:n], int(np.sum(~keep))


@dataclass
class SupportReport:
    alpha: float
    boundary_fraction: Optional[float]   # alpha = 2: mass within one cell of dD
    layer_masses: Optional[np.ndarray]   # alpha < 2: mass per radial layer
    empty_layers: Optional[list]
    floor: float
    passed: bool


def support_report(result: SolveResult, spec: ProblemSpec) -> SupportReport:
    """Support layout of the negative component: boundary concentration for
    alpha = 2, presence in every radial layer for alpha < 2."""
    p = spec.p_index
    comp = result.solution.components[p]
    plate = spec.condenser.plates[p]
    total = comp.total_mass
    floor = SUPP_FLOOR_REL * spec.totals[p] / max(len(comp.nodes), 1)
    if spec.kernel.alpha == 2.0:
        zone = None if plate.spec is None else \
            plate.spec.boundary_zone(plate.nodes)
        if zone is None:
            frac = 1.0 if len(plate.nodes) == 1 else 0.0
        else:
            frac = float(comp.weights[zone].sum()) / total if total > 0 else 0.0
        return SupportReport(alpha=2.0, boundary_fraction=frac,
                             layer_masses=None, empty_layers=None,
                             floor=floor, passed=frac >= 0.99)
    layers = plate.nodes.layer_index
    uniq = np.unique(layers)
    masses = np.array([comp.weights[layers == L].sum() for L in uniq])
    peaks = np.array([comp.weights[layers == L].max() if np.any(layers == L)
                      else 0.0 for L in uniq])
    empty = [int(L) for L, pk in zip(uniq, peaks) if pk <= floor]
    return SupportReport(alpha=spec.kernel.alpha, boundary_fraction=None,
                         layer_masses=masses, empty_layers=empty, floor=floor,
                         passed=len(empty) == 0)


def equivalence_check(riesz_result: SolveResult, lifted_result: SolveResult,
                      spec: ProblemSpec, green_result: SolveResult) -> dict:
    """Energy agreement between the full Riesz solve and the (lifted) reduced
    Green solve, plus the energy-norm distance between the two solutions."""
    g_energy = green_result.energy
    gap = abs(riesz_result.energy - g_energy) / max(abs(g_energy), 1.0)
    lift_gap = abs(riesz_result.energy - lifted_result.energy) / \
        max(abs(lifted_result.energy), 1.0)
    dist = semimetric_distance(riesz_result.solution, lifted_result.solution,
                               spec.kernel)
    r = resultant(riesz_result.solution)
    scale = math.sqrt(max(mutual_energy(r, r, spec.kernel), 1e-300))
    return {
        "energy_gap_rel": gap,
        "lift_energy_gap_rel": lift_gap,
        "semimetric_distance": dist,
        "semimetric_rel": dist / scale,
        "balayage_residual": lifted_result.balayage_residual,
        "lift_mass_defect": lifted_result.lift_mass_defect,
    }


def unsolvability_sweep(mode: str, stages: Sequence[int], green: GreenContext,
                        *, nodes_per_stage: int = 220,
                        zeta: Optional[DiscreteMeasure] = None,
                        tolerances: Tolerances = DEFAULT_TOLERANCES) -> list:
    """Exhaustion sweeps behind the short-circuit results.

    mode="uncapped": stage compacts are nested disks of radius l at a fixed
    height above the grounded boundary; the minimized energy is the Green
    equilibrium energy 1/c_g, which decreases strictly toward zero as the
    disks exhaust an unbounded subset of the half-space.

    mode="capped": stage cap pieces are unit equilibrium measures on the
    same growing disks; the stage infimum is bounded by
    ||xi_l||_g^2 + 2 ||zeta||_g ||xi_l||_g, which decreases toward zero.
    """
    center = (1.0, 0.0, 0.0)  # stage disks: normal to x1, at height 1
    rows = []
    if mode == "uncapped":
        for ell in stages:
            nodes = disk_nodes(center, float(ell), nodes_per_stage, axis=0)
            gk = green.green_matrix(nodes)[0]
            lam, _ = equilibrium_measure(nodes, green.riesz, 1.0,
                                         tolerances=tolerances, matrix=gk)
            energy = float(lam.weights @ gk @ lam.weights)
            rows.append({"stage": int(ell), "energy": energy,
                         "green_capacity": 1.0 / energy})
    elif mode == "capped":
        if zeta is None:
            raise ValueError("capped sweep needs the field measure zeta")
        zeta_g = math.sqrt(max(green.green_mutual_energy(zeta, zeta), 0.0))
        for ell in stages:
            nodes = disk_nodes(center, float(ell), nodes_per_stage, axis=0)
            xi, _ = equilibrium_measure(nodes, green.riesz, 1.0,
                                        tolerances=tolerances)
            xi_g = math.sqrt(max(green.green_mutual_energy(xi, xi), 0.0))
            cross = green.green_mutual_energy(zeta, xi)
            stage_value = xi_g * xi_g + 2.0 * cross
            bound = xi_g * xi_g + 2.0 * zeta_g * xi_g
            rows.append({"stage": int(ell), "green_norm": xi_g,
                         "stage_value": stage_value, "bound": bound})
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    return rows


def loglog_slope(stages: Sequence[float], values: Sequence[float]) -> float:
    x = np.log(np.asarray(stages, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
