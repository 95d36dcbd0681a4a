"""Constrained Gauss-functional minimization for condensers: the full Riesz
problem on R^n, the reduced Green problem on the positive plates and the lift
between them, plus the domination check that a negative-plate cap sigma^p must
pass before any solve."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._pg import QPResult, minimize_quadratic
from .balayage import GreenContext, balayage_project
from .errors import AlignmentError, InfeasibleError, SigmaDominationError
from .kernel import KernelSpec, gauss_functional, _packed_matrix
from .model import Condenser, DiscreteMeasure, VectorMeasure
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem statement: condenser, prescribed masses, field, caps.

    The unique negative plate is the last one; its mass equals the sum of the
    positive masses (enforced here).  ``field`` is None (no field) or one
    array of node values per plate, each finite or +inf; a +inf node is
    frozen at zero weight.  ``constraint`` holds one entry per plate: its cap
    weights, finite and >= 0, or None (or all +inf) for an uncapped plate.
    Both are stored as one float array per plate, aligned with its nodes:
    the field is zero when absent and the caps are +inf where uncapped.  The
    caps on a plate's finite-field nodes must total more than its mass.
    """

    condenser: Condenser
    totals: tuple
    field: Optional[tuple]
    constraint: tuple
    kernel: KernelSpec
    tolerances: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self):
        plates = self.condenser.plates
        object.__setattr__(self, "totals", tuple(float(a) for a in self.totals))
        if len(self.totals) != len(plates):
            raise AlignmentError("one total per plate required")
        if not all(0.0 < a < np.inf for a in self.totals):
            raise ValueError("prescribed masses must be finite and > 0")
        signs = [p.sign for p in plates]
        if signs[-1] != -1 or any(s != +1 for s in signs[:-1]):
            raise ValueError("plate order must be positives first, the single "
                             "negative plate last")
        a_pos = sum(self.totals[:-1])
        if abs(self.totals[-1] - a_pos) > 1e-12 * max(1.0, a_pos):
            raise ValueError(
                f"negative-plate mass {self.totals[-1]} must equal the sum of "
                f"positive masses {a_pos}")
        field = _per_plate(plates, (None,) * len(plates) if self.field is None
                           else self.field, 0.0, "field value array")
        caps = _per_plate(plates, self.constraint, np.inf, "cap entry")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "constraint", caps)
        for i, (f, c) in enumerate(zip(field, caps)):
            if np.any(np.isnan(f) | np.isneginf(f)):
                raise ValueError(f"plate {i}: field values must be > -inf")
            if not (np.all(np.isposinf(c)) or
                    np.all(np.isfinite(c) & (c >= 0))):
                raise ValueError(f"plate {i}: cap weights must be finite "
                                 f"and >= 0")
            room = c[np.isfinite(f)].sum()
            if room <= self.totals[i]:
                raise InfeasibleError(
                    f"plate {i}: caps on finite-field nodes total "
                    f"{room:.6g}, not above the prescribed mass "
                    f"{self.totals[i]:.6g}")

    @property
    def p_index(self) -> int:
        return len(self.condenser.plates) - 1


def _per_plate(plates, entries, fill: float, what: str) -> tuple:
    """One float array per plate, aligned with its nodes; a None entry is
    ``fill`` at every node."""
    if len(entries) != len(plates):
        raise AlignmentError(f"one {what} per plate required")
    out = tuple(np.full(len(p.nodes), fill) if e is None
                else np.asarray(e, dtype=float)
                for p, e in zip(plates, entries))
    for i, (p, a) in enumerate(zip(plates, out)):
        if a.shape != (len(p.nodes),):
            raise AlignmentError(f"plate {i}: {what} misaligned with its "
                                 f"nodes")
    return out


@dataclass
class SolveResult:
    solution: VectorMeasure
    energy: float
    constants: np.ndarray
    trace: np.ndarray
    converged: bool
    kkt_residual: float
    iterations: int
    lift_mass_defect: Optional[float] = None
    balayage_residual: Optional[float] = None
    matvecs: int = 0               # products with the QP's matrix
    shared_nodes: int = 0          # node positions several plates hold


def joint_kernel_matrix(condenser: Condenser, kernel: KernelSpec):
    """Kernel matrix over the condenser's concatenated nodes, as one packed
    lower triangle (``_pg.PackedMatrix``)."""
    nodes = condenser.nodes
    return _packed_matrix(nodes.positions, nodes.cell_radii, kernel)


def _caps_and_field(spec: ProblemSpec):
    """Cap and linear field term of every plate, one array per plate in plate
    order.  Nodes where the field is +inf are frozen to zero weight (cap 0,
    field term 0)."""
    caps = [np.where(np.isposinf(f), 0.0, c)
            for f, c in zip(spec.field, spec.constraint)]
    return caps, [np.where(np.isposinf(f), 0.0, f) for f in spec.field]


def _solve_result(res: QPResult, solution: VectorMeasure,
                  constants: np.ndarray, spec: ProblemSpec) -> SolveResult:
    """SolveResult of a solution built from the solver output ``res``; its
    energy is the objective.  Only equally signed plates share nodes."""
    return SolveResult(solution=solution, energy=res.objective,
                       constants=constants, trace=res.trace,
                       converged=res.converged, kkt_residual=res.kkt_residual,
                       iterations=res.iterations, matvecs=res.matvecs,
                       shared_nodes=int(np.count_nonzero(np.bincount(
                           spec.condenser.positions) > 1)))


def solve_riesz(spec: ProblemSpec) -> SolveResult:
    """Minimize the Gauss functional over capped vector measures with the
    prescribed per-plate masses (full Riesz formulation on R^n); the
    objective carries the field on every plate and is the reported energy."""
    cond = spec.condenser
    K = joint_kernel_matrix(cond, spec.kernel)
    # fold the plate signs into K in place: the positive plates come first,
    # so only the negative plate's rows left of column n change sign
    # (exact: negation)
    n = cond.slices[-1].start
    for i in range(n, K.shape[0]):
        cross = K.row(i)[:n]
        np.negative(cross, out=cross)
    caps, b = _caps_and_field(spec)
    res = minimize_quadratic(K, np.concatenate(b), cond.slices, spec.totals,
                             np.concatenate(caps), spec.tolerances,
                             positions=cond.positions)
    solution = VectorMeasure.from_weights(
        cond, [res.w[sl] for sl in cond.slices])
    return _solve_result(res, solution, res.constants[:-1], spec)


def solve_green_reduced(spec: ProblemSpec, green: GreenContext) -> SolveResult:
    """Minimize the reduced Green-kernel functional over the positive plates
    only, on their rows of the condenser's joint node list (its first n,
    the positive plates coming first); same convergence contract as the
    full solve."""
    cond, p = spec.condenser, spec.p_index
    n = cond.slices[p].start
    G, _ = green.green_matrix(cond.nodes[:n])
    caps, b = _caps_and_field(spec)
    res = minimize_quadratic(G, np.concatenate(b[:p]), cond.slices[:p],
                             spec.totals[:p], np.concatenate(caps[:p]),
                             spec.tolerances, positions=cond.positions[:n])
    comps = [DiscreteMeasure(plate.nodes, res.w[sl])
             for plate, sl in zip(cond.plates[:p], cond.slices)]
    solution = VectorMeasure(tuple(comps), (1,) * p)
    return _solve_result(res, solution, res.constants, spec)


def _sweep_positive(spec: ProblemSpec, weights: Sequence[np.ndarray],
                    green: GreenContext):
    """Balayage onto the context's exterior of the total of the per-plate
    positive ``weights``, read on the positive plates' rows of the
    condenser's joint node list."""
    n = spec.condenser.slices[spec.p_index].start
    return balayage_project(DiscreteMeasure(spec.condenser.nodes[:n],
                                            np.concatenate(weights)), green)


def lift_green_to_riesz(green_result: SolveResult, spec: ProblemSpec,
                        green: GreenContext) -> SolveResult:
    """Extend a reduced Green solution to the full condenser by sweeping the
    total positive measure onto the negative plate's nodes.

    The swept mass is reported, not renormalized: its defect against a_p
    measures the truncation quality (mass conservation holds only for
    complements that are not thin at infinity).
    """
    plate_p = spec.condenser.plates[spec.p_index]
    if not np.array_equal(green.exterior.positions, plate_p.nodes.positions):
        raise AlignmentError(
            "green context exterior must be the negative plate's node set")
    comps = list(green_result.solution.components)
    bres = _sweep_positive(spec, [c.weights for c in comps], green)
    comps_full = comps + [DiscreteMeasure(plate_p.nodes, bres.swept.weights)]
    solution = VectorMeasure(tuple(comps_full), spec.condenser.signs)
    energy = gauss_functional(solution, spec.field, spec.kernel)
    defect = abs(bres.swept.total_mass - spec.totals[spec.p_index])
    return replace(green_result, solution=solution, energy=energy,
                   lift_mass_defect=defect,
                   balayage_residual=bres.potential_residual)


def swept_positive_caps(spec: ProblemSpec, green: GreenContext) -> np.ndarray:
    """Balayage of the total positive cap onto the negative plate's nodes,
    the measure a negative-plate cap must dominate.  Raises
    SigmaDominationError for an uncapped positive plate, whose sweep no cap
    dominates."""
    caps = spec.constraint[:spec.p_index]
    if any(np.any(np.isinf(cap)) for cap in caps):
        raise SigmaDominationError(
            "sigma^p cannot dominate the sweep of an uncapped positive plate")
    return _sweep_positive(spec, caps, green).swept.weights


def check_sigma_domination(spec: ProblemSpec, green: GreenContext) -> None:
    """Raise SigmaDominationError unless the negative plate is uncapped or
    its cap sigma^p dominates, node by node, ``swept_positive_caps``."""
    sigma_p = spec.constraint[spec.p_index]
    if np.all(np.isposinf(sigma_p)):
        return
    swept = swept_positive_caps(spec, green)
    slack = 1e-10 * max(float(swept.max()), 1.0)
    if np.any(sigma_p < swept - slack):
        worst = float((swept - sigma_p).max())
        raise SigmaDominationError(
            f"sigma^p fails to dominate the swept positive caps "
            f"(worst shortfall {worst:.3e})")
