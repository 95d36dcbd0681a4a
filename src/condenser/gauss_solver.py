"""Constrained Gauss-functional minimization for condensers: the full Riesz
problem on R^n, the reduced Green problem on the positive plates and the lift
between them, plus the domination check that a negative-plate cap sigma^p must
pass before any solve."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._pg import PGResult, minimize_quadratic
from .balayage import GreenContext, balayage_project
from .errors import AlignmentError, InfeasibleError, SigmaDominationError
from .kernel import (ExternalField, KernelSpec, gauss_functional, _riesz_block,
                     _require_distinct)
from .model import (Condenser, DiscreteMeasure, NodeSet, VectorMeasure,
                    merge_by_position, row_blocks)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem statement: condenser, prescribed masses, field, caps.

    The unique negative plate is the last one; its mass equals the sum of the
    positive masses (enforced here).  ``constraint`` holds one entry per
    plate: its cap weights, one per node, finite and >= 0 with a total above
    the plate's mass, or None for an uncapped plate (xi = inf).
    """

    condenser: Condenser
    totals: tuple
    field: ExternalField
    constraint: tuple
    kernel: KernelSpec
    tolerances: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self):
        object.__setattr__(self, "totals", tuple(float(a) for a in self.totals))
        object.__setattr__(self, "constraint", tuple(
            None if c is None else np.asarray(c, dtype=float)
            for c in self.constraint))
        plates = self.condenser.plates
        if len(self.totals) != len(plates):
            raise AlignmentError("one total per plate required")
        if any(a <= 0 for a in self.totals):
            raise ValueError("prescribed masses must be > 0")
        if len(self.constraint) != len(plates):
            raise AlignmentError("one cap entry per plate required")
        signs = [p.sign for p in plates]
        if signs[-1] != -1 or any(s != +1 for s in signs[:-1]):
            raise ValueError("plate order must be positives first, the single "
                             "negative plate last")
        a_pos = sum(self.totals[:-1])
        if abs(self.totals[-1] - a_pos) > 1e-12 * max(1.0, a_pos):
            raise ValueError(
                f"negative-plate mass {self.totals[-1]} must equal the sum of "
                f"positive masses {a_pos}")
        for i, (p, c) in enumerate(zip(plates, self.constraint)):
            if c is None:
                continue
            if c.shape != (len(p.nodes),):
                raise AlignmentError(f"cap for plate {i} misaligned")
            if np.any(c < 0) or not np.all(np.isfinite(c)):
                raise ValueError(f"plate {i}: cap weights must be finite "
                                 f"and >= 0")
            if c.sum() <= self.totals[i]:
                raise InfeasibleError(
                    f"plate {i}: cap total {c.sum():.6g} must strictly exceed "
                    f"the prescribed mass {self.totals[i]:.6g}")

    def cap_array(self, i: int) -> np.ndarray:
        """Cap weights of plate i, +inf at every node of an uncapped plate."""
        c = self.constraint[i]
        return np.full(len(self.condenser.plates[i].nodes), np.inf) \
            if c is None else c

    @property
    def i_plus(self) -> tuple:
        return tuple(range(len(self.condenser.plates) - 1))

    @property
    def p_index(self) -> int:
        return len(self.condenser.plates) - 1


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
    exact_finish: bool = False     # the QP's exact finish ended the solve


def _block_slices(sizes: Sequence[int]) -> list:
    """Slices of consecutive blocks of the given sizes."""
    ends = np.cumsum(sizes, dtype=int)
    return [slice(int(e - n), int(e)) for n, e in zip(sizes, ends)]


def joint_kernel_matrix(nodesets: Sequence[NodeSet], kernel: KernelSpec):
    """Dense kernel matrix over the concatenated node sets.

    Coinciding nodes across different sets (shared by equally signed plates)
    contribute their self-energy; duplicates inside one set are rejected.
    Each plate-pair block is written by row blocks (``row_blocks``), and
    mirrored below the diagonal.
    """
    slices = _block_slices([len(ns) for ns in nodesets])
    N = slices[-1].stop
    K = np.empty((N, N))
    for i, a in enumerate(nodesets):
        _require_distinct(a.positions, f"plate node set {i}")
        off = slices[i].start
        for j in range(i, len(nodesets)):
            b = nodesets[j]
            for rows in row_blocks(a.positions, b.positions):
                blk = _riesz_block(a.positions[rows], b.positions, kernel,
                                   rho_q=b.cell_radii)
                rk = slice(off + rows.start, off + rows.start + len(blk))
                K[rk, slices[j]] = blk
                if j > i:
                    K[slices[j], rk] = blk.T
    return K, slices


def _caps_and_field(spec: ProblemSpec):
    """Cap and linear field term of every plate, one array per plate in plate
    order.  Nodes where the field is +inf are frozen to zero weight (cap 0,
    field term 0), and each plate's caps must still exceed its mass after
    freezing."""
    plates = spec.condenser.plates
    fvals = spec.field.plate_values([p.nodes for p in plates],
                                    spec.condenser.signs, spec.kernel)
    caps, bvals = [], []
    for i, f in enumerate(fvals):
        c = spec.cap_array(i).copy()
        frozen = np.isposinf(f)
        c[frozen] = 0.0
        if c.sum() <= spec.totals[i]:
            raise InfeasibleError(
                f"plate {i}: caps after freezing infinite-field nodes sum "
                f"to {c.sum():.6g} <= mass {spec.totals[i]:.6g}")
        caps.append(c)
        bvals.append(np.where(frozen, 0.0, f))
    return caps, bvals


def _solve_result(res: PGResult, solution: VectorMeasure,
                  constants: np.ndarray) -> SolveResult:
    """SolveResult of a solution built from the solver output ``res``; its
    energy is the minimized objective."""
    return SolveResult(solution=solution, energy=res.objective,
                       constants=constants, trace=res.trace,
                       converged=res.converged, kkt_residual=res.kkt_residual,
                       iterations=res.iterations,
                       exact_finish=res.exact_finish)


def solve_riesz(spec: ProblemSpec) -> SolveResult:
    """Minimize the Gauss functional over capped vector measures with the
    prescribed per-plate masses (full Riesz formulation on R^n); the
    objective carries the field on every plate and is the reported energy."""
    plates = spec.condenser.plates
    K, slices = joint_kernel_matrix([p.nodes for p in plates], spec.kernel)
    s = np.concatenate([np.full(len(p.nodes), float(p.sign)) for p in plates])
    # fold the plate signs into K in place (exact: every factor is +-1)
    K *= s[:, None]
    K *= s[None, :]
    caps, b = _caps_and_field(spec)
    res = minimize_quadratic(K, np.concatenate(b), slices, spec.totals,
                             np.concatenate(caps), spec.tolerances)
    solution = VectorMeasure.from_weights(spec.condenser,
                                          [res.w[sl] for sl in slices])
    return _solve_result(res, solution, res.constants[:-1])


def solve_green_reduced(spec: ProblemSpec, green: GreenContext) -> SolveResult:
    """Minimize the reduced Green-kernel functional over the positive plates
    only; same convergence contract as the full solve."""
    plates = [spec.condenser.plates[i] for i in spec.i_plus]
    nodesets = [p.nodes for p in plates]
    merged, idx = _merge_positive(nodesets)
    G, _ = green.green_matrix(merged)
    slices = _block_slices([len(ns) for ns in nodesets])
    caps, b = _caps_and_field(spec)
    res = minimize_quadratic(G[np.ix_(idx, idx)],
                             np.concatenate(b[:spec.p_index]), slices,
                             spec.totals[:spec.p_index],
                             np.concatenate(caps[:spec.p_index]),
                             spec.tolerances)
    comps = [DiscreteMeasure(p.nodes, res.w[sl])
             for p, sl in zip(plates, slices)]
    solution = VectorMeasure(tuple(comps), tuple(1 for _ in plates))
    return _solve_result(res, solution, res.constants)


def _merge_positive(nodesets: Sequence[NodeSet]) -> tuple:
    """Union of positive-plate nodes with exact duplicates merged, and the
    merged index of every plate node, plates concatenated in order."""
    pos = np.vstack([ns.positions for ns in nodesets])
    first, inverse = merge_by_position(pos)
    merged = NodeSet(pos[first],
                     np.concatenate([ns.quad_weights for ns in nodesets])[first],
                     np.concatenate([ns.cell_radii for ns in nodesets])[first])
    return merged, inverse


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
    merged, idx = _merge_positive([c.nodes for c in comps])
    weights = np.bincount(idx, np.concatenate([c.weights for c in comps]),
                          len(merged))
    total_pos = DiscreteMeasure(merged, weights)
    bres = balayage_project(total_pos, green)
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
    plates = [spec.condenser.plates[i] for i in spec.i_plus]
    caps = [spec.cap_array(i) for i in spec.i_plus]
    if any(np.any(np.isinf(cap)) for cap in caps):
        raise SigmaDominationError(
            "sigma^p cannot dominate the sweep of an uncapped positive plate")
    merged, idx = _merge_positive([p.nodes for p in plates])
    weights = np.bincount(idx, np.concatenate(caps), len(merged))
    res = balayage_project(DiscreteMeasure(merged, weights), green)
    return res.swept.weights


def check_sigma_domination(spec: ProblemSpec, green: GreenContext) -> None:
    """Raise SigmaDominationError unless the negative plate is uncapped or
    its cap sigma^p dominates, node by node, ``swept_positive_caps``."""
    sigma_p = spec.constraint[spec.p_index]
    if sigma_p is None:
        return
    swept = swept_positive_caps(spec, green)
    slack = 1e-10 * max(float(swept.max()), 1.0)
    if np.any(sigma_p < swept - slack):
        worst = float((swept - sigma_p).max())
        raise SigmaDominationError(
            f"sigma^p fails to dominate the swept positive caps "
            f"(worst shortfall {worst:.3e})")
