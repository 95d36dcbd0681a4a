"""Probes that only the tests read: random mass transfers at a minimizer, the
grounded-energy identities of one sweep, swept mass against truncation, the
Case II field of a measure, dense arrays to and from packed matrices, and
the dense kernel matrix of a node set."""

import math
from typing import Callable, Sequence

import numpy as np

from condenser._pg import PackedMatrix, node_classes
from condenser.balayage import GreenContext, balayage_project
from condenser.gauss_solver import ProblemSpec, SolveResult
from condenser.kernel import _packed_matrix, _riesz_block, mutual_energy
from condenser.model import Condenser, DiscreteMeasure
from condenser.verify import weighted_potentials

TRANSFER_FRACTION = 1e-3  # mass of one mass-transfer trial / the plate's mass


def packed(A) -> PackedMatrix:
    """PackedMatrix of the lower triangle of a dense square array."""
    A = np.asarray(A, dtype=float)
    out = PackedMatrix(A.shape[0])
    out.ap[:] = A[np.tril_indices(A.shape[0])]
    return out


def unpacked(P: PackedMatrix) -> np.ndarray:
    """Dense symmetric array of a PackedMatrix."""
    D = np.zeros(P.shape)
    D[np.tril_indices(P.shape[0])] = P.ap
    return D + np.tril(D, -1).T


def kernel_matrix(nodes, kernel) -> np.ndarray:
    """Dense symmetric kernel matrix of a node set: the package's packed
    writer's triangle, unpacked.  The one dense reference of the tests."""
    return unpacked(_packed_matrix(nodes.positions, nodes.cell_radii, kernel))


def mass_transfer_probe(result: SolveResult, spec: ProblemSpec, count: int = 50,
                        seed: int = 0) -> dict:
    """Random feasible single-pair mass transfers on the positive plates;
    at a minimizer no transfer may decrease the functional beyond first-order
    tolerance (delta G >= -tol * transferred mass)."""
    rng = np.random.default_rng(seed)
    tol = spec.tolerances
    sol = result.solution
    W = weighted_potentials(sol, spec)
    p = spec.p_index
    worst = math.inf
    trials = []
    for _ in range(count):
        j = int(rng.integers(0, p)) if p > 1 else 0
        comp = sol.components[j]
        caps = spec.constraint[j]
        carried, below = node_classes(comp.weights, caps, spec.totals[j])
        donors, receivers = np.flatnonzero(carried), np.flatnonzero(below)
        if donors.size == 0 or receivers.size == 0:
            continue
        a = int(rng.choice(donors))
        b = int(rng.choice(receivers))
        if a == b:
            continue
        delta = min(comp.weights[a], caps[b] - comp.weights[b],
                    TRANSFER_FRACTION * spec.totals[j])
        if delta <= 0:
            continue
        pair = [a, b]
        k = _riesz_block(comp.nodes.positions[pair], comp.nodes.positions[pair],
                         spec.kernel, rho_q=comp.nodes.cell_radii[pair])
        dG = 2.0 * delta * (W[j][b] - W[j][a]) + \
            delta * delta * (k[0, 0] + k[1, 1] - 2.0 * k[0, 1])
        trials.append(dG / delta)
        worst = min(worst, dG / delta)
    scale = max(1.0, float(np.abs(result.constants).max())
                if result.constants.size else 1.0)
    return {
        "trials": len(trials),
        "worst_rate": worst if trials else 0.0,
        "tolerance": tol.kkt * scale,
        "passed": (worst >= -tol.kkt * scale) if trials else True,
    }


def green_energy_identity_check(mu: DiscreteMeasure, ctx: GreenContext) -> dict:
    """Evaluate ||mu||_g^2, ||mu - mu'||_alpha^2 and ||mu||_alpha^2 - ||mu'||_alpha^2
    independently and report their pairwise relative deviations."""
    res = balayage_project(mu, ctx)
    green_sq = float(mu.weights @ ctx.green_potential(mu, mu.nodes.positions))
    gap_sq = res.projection_gap ** 2
    e_mu = mutual_energy(mu, mu, ctx.riesz)
    e_sw = mutual_energy(res.swept, res.swept, ctx.riesz)
    diff_sq = e_mu - e_sw
    vals = np.array([green_sq, gap_sq, diff_sq])
    scale = max(float(np.abs(vals).max()), 1e-300)
    devs = {
        "green_vs_gap": abs(green_sq - gap_sq) / scale,
        "green_vs_diff": abs(green_sq - diff_sq) / scale,
        "gap_vs_diff": abs(gap_sq - diff_sq) / scale,
    }
    return {
        "green_energy": green_sq,
        "projection_gap_sq": gap_sq,
        "norm_difference": diff_sq,
        "deviations": devs,
        "max_deviation": max(devs.values()),
        "potential_residual": res.potential_residual,
    }


def mass_conservation_probe(context_factory: Callable[[float], GreenContext],
                            sources: DiscreteMeasure,
                            radii: Sequence[float]) -> list:
    """Sweep the sources onto the contexts of exteriors truncated at each
    radius and tabulate the mass ratios.  Non-thin complements drive the
    ratio toward one."""
    table = []
    for r in radii:
        ctx = context_factory(float(r))
        res = balayage_project(sources, ctx)
        table.append({
            "truncation": float(r),
            "mass_ratio": res.mass_ratio,
            "potential_residual": res.potential_residual,
            "exterior_nodes": len(ctx.exterior),
        })
    return table


def green_field(zeta: DiscreteMeasure, condenser: Condenser,
                ctx: GreenContext) -> tuple:
    """The paper's Case II field of zeta at the plate nodes, one array per
    plate: f_i = s_i g(., zeta) = s_i (kappa(., zeta) - kappa(., zeta'))."""
    return tuple(p.sign * ctx.green_potential(zeta, p.nodes.positions)
                 for p in condenser.plates)
