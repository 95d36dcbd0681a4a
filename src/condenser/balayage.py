"""Numerical balayage onto a domain complement as an energy-norm projection,
Green-kernel construction on top of it, and mass-conservation diagnostics.

The sweep of a measure is the minimizer of ||mu - theta||_alpha over
nonnegative measures theta on the exterior node set: a convex QP in the
energy inner product.  The potential-match identity then holds on the
exterior nodes up to the recorded residual instead of being imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import nnls

from . import kernel as kernelmod
from .errors import UnsupportedKernel
from .kernel import (KernelSpec, assemble_matrix, mutual_energy, potential,
                     riesz_eval)
from .model import DiscreteMeasure, NodeSet
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# unconstrained sweep columns more negative than this (relative to the column
# maximum) are re-solved with nonnegativity enforced
_NEG_REL_TOL = 1e-12


@dataclass
class BalayageResult:
    """Outcome of one projection sweep."""

    swept: DiscreteMeasure
    potential_residual: float   # max |kappa(.,mu') - kappa(.,mu)| / max kappa(.,mu) on D^c nodes
    mass_ratio: float
    projection_gap: float       # achieved ||mu - mu'||_alpha
    orthogonality: float        # kappa(mu - mu', mu'), ~0 by complementarity
    clipped_nodes: int          # exterior nodes pinned to zero by the cone


class GreenContext:
    """Balayage machinery for a domain D given a discretized complement.

    Holds the exterior kernel matrix and its Cholesky factor, memoizes swept
    point masses, and exposes the Green kernel (Riesz kernel minus the swept
    point-mass potential) as matrices, potentials and energies.
    """

    def __init__(self, exterior: NodeSet, kernel: KernelSpec,
                 tolerances: Tolerances = DEFAULT_TOLERANCES):
        if len(exterior) == 0:
            raise ValueError("exterior node set must be nonempty")
        self.exterior = exterior
        self.riesz = kernel
        self.tolerances = tolerances
        self._kee = assemble_matrix(exterior, kernel).entries
        self._chol = cho_factor(self._kee, lower=True)
        self._lower = np.tril(self._chol[0])
        self._pattern_cache: dict = {}
        self._point_sweeps: dict = {}

    # -- sweeping ----------------------------------------------------------
    def _cross_matrix(self, nodes: NodeSet) -> np.ndarray:
        """K(exterior, sources); coinciding pairs get the source self-energy,
        which makes sources already on the exterior exact fixed points."""
        return kernelmod._riesz_block(self.exterior.positions, nodes.positions,
                                      self.riesz, rho_q=nodes.cell_radii)

    def sweep_columns(self, nodes: NodeSet):
        """Swept unit point masses for every node: columns of Theta solve
        min ||eps_y - theta||_alpha over theta >= 0 on the exterior nodes."""
        B = self._cross_matrix(nodes)
        theta = cho_solve(self._chol, B)
        col_max = np.maximum(theta.max(axis=0), 1e-300)
        bad = np.flatnonzero(theta.min(axis=0) < -_NEG_REL_TOL * col_max)
        if bad.size:
            theta[:, bad] = self._cone_project_batch(B[:, bad])
        return B, theta, int(bad.size)

    def _cone_project_batch(self, B: np.ndarray) -> np.ndarray:
        """Cone projection of many columns at once.

        Columns share most of their active pattern, so each is solved as a
        consensus-pattern solve plus a small bordered update for its few
        extra active nodes; columns that still violate the KKT conditions
        fall back to per-column pivoting.
        """
        m, ncol = B.shape
        theta_unc = cho_solve(self._chol, B)
        pos_unc = theta_unc > 0.0
        mask = np.all(pos_unc, axis=1)  # consensus: positive in every column
        out = np.zeros_like(B)
        if not mask.any():
            for k in range(ncol):
                out[:, k] = self._cone_project(B[:, k])
            return out
        # shrink the consensus until the restricted solve is positive there
        # for every column; keeps per-column updates low rank
        for _ in range(6):
            idx, fac = self._pattern_solver(mask)
            theta_p = cho_solve(fac, B[idx])
            dust = 1e-13 * np.maximum(theta_p.max(axis=0), 1e-300)
            neg_any = np.any(theta_p < -dust[None, :], axis=1)
            if not neg_any.any():
                break
            mask = mask.copy()
            mask[idx[neg_any]] = False
            if not mask.any():
                for k in range(ncol):
                    out[:, k] = self._cone_project(B[:, k])
                return out
        extras_union = np.flatnonzero(~mask & np.any(pos_unc, axis=1))
        X = cho_solve(fac, self._kee[np.ix_(idx, extras_union)]) \
            if extras_union.size else np.zeros((idx.size, 0))
        upos = {int(e): t for t, e in enumerate(extras_union)}
        scale = np.maximum(np.abs(B).max(axis=0), 1e-300)
        todo = []
        for k in range(ncol):
            dust = 1e-13 * max(float(theta_p[:, k].max()), 1e-300)
            if theta_p[:, k].min() < -dust:
                todo.append(k)
                continue
            # per-column active set = consensus plus its own few extras;
            # solved as a bordered update against the cached factorization
            ext = np.flatnonzero(pos_unc[:, k] & ~mask)
            if ext.size == 0:
                theta_k = np.maximum(theta_p[:, k], 0.0)
                grad = self._kee[:, idx] @ theta_k - B[:, k]
                if (~mask).any() and grad[~mask].min() < -1e-10 * scale[k]:
                    todo.append(k)
                else:
                    out[idx, k] = theta_k
                continue
            cols = [upos[int(e)] for e in ext]
            Xe = X[:, cols]
            C = self._kee[np.ix_(ext, ext)] - self._kee[np.ix_(ext, idx)] @ Xe
            rhs = B[ext, k] - self._kee[np.ix_(ext, idx)] @ theta_p[:, k]
            try:
                te = np.linalg.solve(C, rhs)
            except np.linalg.LinAlgError:
                todo.append(k)
                continue
            tp = theta_p[:, k] - Xe @ te
            dust = 1e-13 * max(float(tp.max()), float(te.max()), 1e-300)
            if te.min() < -dust or tp.min() < -dust:
                todo.append(k)
                continue
            grad = self._kee[:, idx] @ tp + self._kee[:, ext] @ te - B[:, k]
            act = mask.copy()
            act[ext] = True
            if (~act).any() and grad[~act].min() < -1e-10 * scale[k]:
                todo.append(k)
                continue
            theta_k = np.zeros(m)
            theta_k[idx] = np.maximum(tp, 0.0)
            theta_k[ext] = np.maximum(te, 0.0)
            out[:, k] = theta_k
        for k in todo:
            out[:, k] = self._cone_project(B[:, k])
        return out

    def _pattern_solver(self, mask: np.ndarray):
        """Cholesky solve restricted to an active pattern, cached per pattern;
        sources typically share one pattern, so this amortizes to one factor."""
        key = mask.tobytes()
        got = self._pattern_cache.get(key)
        if got is None:
            idx = np.flatnonzero(mask)
            fac = cho_factor(self._kee[np.ix_(idx, idx)], lower=True)
            got = (idx, fac)
            if len(self._pattern_cache) < 64:
                self._pattern_cache[key] = got
        return got

    def _cone_project(self, b: np.ndarray) -> np.ndarray:
        """min theta' K theta - 2 b' theta over theta >= 0 by block principal
        pivoting, warm-started from the clipped unconstrained solution;
        falls back to Lawson-Hanson NNLS if the pivoting cycles."""
        m = self._kee.shape[0]
        scale = float(np.abs(b).max()) + 1e-300
        mask = cho_solve(self._chol, b) > 0.0
        seen = []
        for _ in range(60):
            if not mask.any():
                grad = -b
                if grad.min() >= -1e-12 * scale:
                    return np.zeros(m)
                mask = b > 0.0
            idx, fac = self._pattern_solver(mask)
            theta_s = cho_solve(fac, b[idx])
            neg = theta_s < 0.0
            grad = self._kee[:, idx] @ np.maximum(theta_s, 0.0) - b
            viol = (~mask) & (grad < -1e-10 * scale)
            if not neg.any() and not viol.any():
                theta = np.zeros(m)
                theta[idx] = theta_s
                return theta
            new_mask = mask.copy()
            new_mask[idx[neg]] = False
            new_mask[viol] = True
            if any(np.array_equal(new_mask, prev) for prev in seen):
                break
            seen.append(new_mask)
            mask = new_mask
        y = solve_triangular(self._lower, b, lower=True)
        theta, _ = nnls(self._lower.T, y)
        return theta

    def sweep_weights(self, mu: DiscreteMeasure) -> np.ndarray:
        """Swept weights of a whole measure (single projection solve)."""
        B = self._cross_matrix(mu.nodes)
        b = B @ mu.weights
        theta = cho_solve(self._chol, b)
        if -theta.min() > _NEG_REL_TOL * max(theta.max(), 1e-300):
            theta = self._cone_project(b)
        return theta

    def point_sweep(self, position, cell_radius: float) -> np.ndarray:
        key = np.asarray(position, dtype=float).tobytes()
        got = self._point_sweeps.get(key)
        if got is None:
            src = NodeSet(np.atleast_2d(np.asarray(position, dtype=float)),
                          [1.0], [cell_radius])
            _, theta, _ = self.sweep_columns(src)
            got = theta[:, 0]
            self._point_sweeps[key] = got
        return got

    # -- Green kernel ------------------------------------------------------
    def green_matrix(self, nodes: NodeSet):
        """Green kernel matrix on interior nodes: the Schur-style form
        K_DD - sym(Theta' K_ED), symmetrized with the asymmetry recorded.
        The swept unit masses are memoized for pointwise reuse."""
        kdd = assemble_matrix(nodes, self.riesz).entries
        B, theta, clipped = self.sweep_columns(nodes)
        if len(self._point_sweeps) < 8192:
            for k in range(len(nodes)):
                key = nodes.positions[k].tobytes()
                self._point_sweeps.setdefault(key, theta[:, k])
        cross = theta.T @ B
        asym = float(np.abs(cross - cross.T).max())
        scale = max(float(np.abs(kdd).max()), 1e-300)
        G = kdd - 0.5 * (cross + cross.T)
        return G, asym / scale

    def green_potential(self, mu, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if isinstance(mu, DiscreteMeasure):
            theta = self.sweep_weights(mu)
        else:
            raise UnsupportedKernel("green potentials support DiscreteMeasure")
        swept = DiscreteMeasure(self.exterior, np.maximum(theta, 0.0))
        return potential(mu, pts, self.riesz) - potential(swept, pts, self.riesz)

    def green_mutual_energy(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """g(mu, nu) = kappa(mu, nu) - sym[kappa(mu', nu)]."""
        tmu = self.sweep_weights(mu)
        tnu = self.sweep_weights(nu)
        bmu = self._cross_matrix(mu.nodes)
        bnu = self._cross_matrix(nu.nodes)
        direct = mutual_energy(mu, nu, self.riesz)
        c1 = float(tmu @ (bnu @ nu.weights))
        c2 = float(tnu @ (bmu @ mu.weights))
        return direct - 0.5 * (c1 + c2)

    def green_eval(self, x, y, cell_radius: Optional[float] = None) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.array_equal(x, y):
            return math.inf
        rho = cell_radius if cell_radius is not None else _default_probe_radius(self)
        theta = self.point_sweep(y, rho)
        swept = DiscreteMeasure(self.exterior, np.maximum(theta, 0.0))
        kxy = riesz_eval(x, y, self.riesz)
        return kxy - float(potential(swept, x[None, :], self.riesz)[0])


def _default_probe_radius(ctx: GreenContext) -> float:
    return float(np.min(ctx.exterior.cell_radii))


def balayage_project(mu: DiscreteMeasure, exterior, kernel: KernelSpec,
                     tolerances: Tolerances = DEFAULT_TOLERANCES) -> BalayageResult:
    """Sweep mu onto the exterior node set: the energy-norm projection onto
    the cone of nonnegative measures carried by it.

    ``exterior`` is a NodeSet or an existing GreenContext (reused factors).
    """
    ctx = exterior if isinstance(exterior, GreenContext) else \
        GreenContext(exterior, kernel, tolerances=tolerances)
    theta = ctx.sweep_weights(mu)
    clipped = int(np.sum(theta <= 0.0))
    theta = np.maximum(theta, 0.0)
    swept = DiscreteMeasure(ctx.exterior, theta)

    B = ctx._cross_matrix(mu.nodes)
    pot_mu = B @ mu.weights                    # kappa(., mu) on exterior nodes
    pot_sw = ctx._kee @ theta                  # kappa(., mu') on exterior nodes
    scale = max(float(np.abs(pot_mu).max()), 1e-300)
    residual = float(np.abs(pot_sw - pot_mu).max()) / scale

    e_mu = mutual_energy(mu, mu, ctx.riesz)
    cross = float(theta @ pot_mu)
    self_sw = float(theta @ ctx._kee @ theta)
    gap2 = max(e_mu - 2.0 * cross + self_sw, 0.0)
    ortho = cross - self_sw                    # kappa(mu - mu', mu')
    mass_ratio = swept.total_mass / mu.total_mass if mu.total_mass > 0 else 1.0
    return BalayageResult(swept=swept, potential_residual=residual,
                          mass_ratio=mass_ratio,
                          projection_gap=math.sqrt(gap2),
                          orthogonality=ortho, clipped_nodes=clipped)


def balayage_oracle_halfspace(y, plane_nodes: NodeSet, kernel: KernelSpec,
                              axis: Optional[int] = None) -> DiscreteMeasure:
    """Closed-form harmonic-measure discretization for the Newtonian kernel:
    the Poisson density of the half-space, cell by cell.

    Only alpha = 2 has this classical form; other orders are rejected.
    """
    if kernel.alpha != 2.0:
        raise UnsupportedKernel("half-space balayage oracle requires alpha = 2")
    pos = plane_nodes.positions
    if axis is None:
        spreads = pos.max(axis=0) - pos.min(axis=0)
        axis = int(np.argmin(spreads))
        if spreads[axis] > 1e-12 * max(1.0, float(np.abs(pos).max())):
            raise ValueError("plane nodes are not coplanar; pass axis explicitly")
    y = np.asarray(y, dtype=float)
    n = kernel.n
    h = abs(float(y[axis] - pos[0, axis]))
    if h == 0.0:
        raise ValueError("source lies on the boundary plane")
    # harmonic measure density: 2 h / (omega_{n-1} |y - z|^n)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    dist = np.linalg.norm(pos - y, axis=1)
    density = 2.0 * h / (omega * dist ** n)
    return DiscreteMeasure(plane_nodes, density * plane_nodes.quad_weights)


def green_energy_identity_check(mu: DiscreteMeasure, domain: GreenContext,
                                kernel: KernelSpec) -> dict:
    """Evaluate ||mu||_g^2, ||mu - mu'||_alpha^2 and ||mu||_alpha^2 - ||mu'||_alpha^2
    independently and report their pairwise relative deviations."""
    res = balayage_project(mu, domain, kernel)
    green_sq = domain.green_mutual_energy(mu, mu)
    gap_sq = res.projection_gap ** 2
    e_mu = mutual_energy(mu, mu, domain.riesz)
    e_sw = mutual_energy(res.swept, res.swept, domain.riesz)
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


def mass_conservation_probe(exterior_factory: Callable[[float], NodeSet],
                            sources: DiscreteMeasure, radii: Sequence[float],
                            kernel: KernelSpec) -> list:
    """Sweep the sources onto exteriors truncated at each radius and tabulate
    the mass ratios.  Non-thin complements drive the ratio toward one."""
    table = []
    for r in radii:
        exterior = exterior_factory(float(r))
        res = balayage_project(sources, exterior, kernel)
        count = len(exterior.exterior) if isinstance(exterior, GreenContext) \
            else len(exterior)
        table.append({
            "truncation": float(r),
            "mass_ratio": res.mass_ratio,
            "potential_residual": res.potential_residual,
            "exterior_nodes": count,
        })
    return table
