"""Numerical balayage onto a domain complement as an energy-norm projection,
Green-kernel construction on top of it, and the half-space Poisson oracle.

The sweep of a measure is the minimizer of ||mu - theta||_alpha over
nonnegative measures theta on the exterior node set: a convex QP in the
energy inner product.  The potential-match identity then holds on the
exterior nodes up to the recorded residual instead of being imposed.

Every sweep takes one path: an unconstrained Cholesky solve against the
exterior kernel matrix, then, for each column that dips below zero, block
principal pivoting on the nonnegative cone (``GreenContext._cone_project``),
with Lawson-Hanson NNLS as the fallback if the pivoting cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import nnls

from . import kernel as kernelmod
from .errors import UnsupportedKernel
from .kernel import KernelSpec, assemble_matrix, mutual_energy, potential
from .model import DiscreteMeasure, NodeSet

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

    Holds the exterior kernel matrix and its Cholesky factor, and exposes the
    Green kernel (Riesz kernel minus the swept point-mass potential) as
    matrices, potentials and energies.
    """

    def __init__(self, exterior: NodeSet, kernel: KernelSpec):
        if len(exterior) == 0:
            raise ValueError("exterior node set must be nonempty")
        self.exterior = exterior
        self.riesz = kernel
        self._kee = assemble_matrix(exterior, kernel).entries
        self._chol = cho_factor(self._kee, lower=True)
        self._pattern_cache: dict = {}

    # -- sweeping ----------------------------------------------------------
    def _cross_matrix(self, nodes: NodeSet) -> np.ndarray:
        """K(exterior, sources); coinciding pairs get the source self-energy,
        which makes sources already on the exterior exact fixed points."""
        return kernelmod._riesz_block(self.exterior.positions, nodes.positions,
                                      self.riesz, rho_q=nodes.cell_radii)

    def _sweep(self, B: np.ndarray):
        """Cone projections of the columns of B (exterior potentials): one
        unconstrained Cholesky solve, then ``_cone_project`` for every column
        that dips below zero.  Returns theta and the clipped-column count."""
        # factors and right-hand sides are built here from finite kernel
        # values, so the solves skip scipy's finiteness rescan
        theta = cho_solve(self._chol, B, check_finite=False)
        col_max = np.maximum(theta.max(axis=0), 1e-300)
        bad = np.flatnonzero(theta.min(axis=0) < -_NEG_REL_TOL * col_max)
        for k in bad:
            theta[:, k] = self._cone_project(B[:, k], theta[:, k])
        return theta, int(bad.size)

    def sweep_columns(self, nodes: NodeSet):
        """Swept unit point masses for every node: columns of Theta solve
        min ||eps_y - theta||_alpha over theta >= 0 on the exterior nodes."""
        B = self._cross_matrix(nodes)
        theta, clipped = self._sweep(B)
        return B, theta, clipped

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

    def _cone_project(self, b: np.ndarray, free: np.ndarray) -> np.ndarray:
        """min theta' K theta - 2 b' theta over theta >= 0 by block principal
        pivoting (Judice & Pires 1994): start from the positive set of
        ``free``, the unconstrained solution K^-1 b, solve on the free set
        with a per-pattern cached factor, drop negative entries and free
        nodes whose gradient is negative, until the KKT conditions hold.  If
        the pivoting cycles, Lawson-Hanson NNLS on the Cholesky factor solves
        the same QP."""
        m = self._kee.shape[0]
        scale = float(np.abs(b).max()) + 1e-300
        mask = free > 0.0
        seen = []
        for _ in range(60):
            if not mask.any():
                grad = -b
                if grad.min() >= -1e-12 * scale:
                    return np.zeros(m)
                mask = b > 0.0
            idx, fac = self._pattern_solver(mask)
            theta_s = cho_solve(fac, b[idx], check_finite=False)
            neg = theta_s < 0.0
            theta = np.zeros(m)
            theta[idx] = np.maximum(theta_s, 0.0)
            grad = self._kee @ theta - b
            viol = (~mask) & (grad < -1e-10 * scale)
            if not neg.any() and not viol.any():
                return theta
            new_mask = mask.copy()
            new_mask[idx[neg]] = False
            new_mask[viol] = True
            if any(np.array_equal(new_mask, prev) for prev in seen):
                break
            seen.append(new_mask)
            mask = new_mask
        lower = np.tril(self._chol[0])
        y = solve_triangular(lower, b, lower=True)
        theta, _ = nnls(lower.T, y)
        return theta

    def _potential_and_sweep(self, mu: DiscreteMeasure):
        """kappa(., mu) on the exterior nodes and the swept weights of mu."""
        b = self._cross_matrix(mu.nodes) @ mu.weights
        theta, _ = self._sweep(b[:, None])
        return b, theta[:, 0]

    def sweep_weights(self, mu: DiscreteMeasure) -> np.ndarray:
        """Swept weights of a whole measure (single projection solve)."""
        return self._potential_and_sweep(mu)[1]

    # -- Green kernel ------------------------------------------------------
    def green_matrix(self, nodes: NodeSet):
        """Green kernel matrix on interior nodes: the Schur-style form
        K_DD - sym(Theta' K_ED), symmetrized with the asymmetry recorded."""
        kdd = assemble_matrix(nodes, self.riesz).entries
        B, theta, clipped = self.sweep_columns(nodes)
        cross = theta.T @ B
        asym = float(np.abs(cross - cross.T).max())
        scale = max(float(np.abs(kdd).max()), 1e-300)
        G = kdd - 0.5 * (cross + cross.T)
        return G, asym / scale

    def green_potential(self, mu: DiscreteMeasure, points) -> np.ndarray:
        swept = DiscreteMeasure(self.exterior,
                                np.maximum(self.sweep_weights(mu), 0.0))
        return potential(mu, points, self.riesz) - \
            potential(swept, points, self.riesz)

    def green_mutual_energy(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """g(mu, nu) = kappa(mu, nu) - sym[kappa(mu', nu)]."""
        pmu, tmu = self._potential_and_sweep(mu)
        pnu, tnu = self._potential_and_sweep(nu)
        direct = mutual_energy(mu, nu, self.riesz)
        c1 = float(tmu @ pnu)
        c2 = float(tnu @ pmu)
        return direct - 0.5 * (c1 + c2)


def balayage_project(mu: DiscreteMeasure, ctx: GreenContext) -> BalayageResult:
    """Sweep mu onto the context's exterior node set: the energy-norm
    projection onto the cone of nonnegative measures carried by it."""
    pot_mu, theta = ctx._potential_and_sweep(mu)   # pot_mu = kappa(., mu)
    clipped = int(np.sum(theta <= 0.0))
    theta = np.maximum(theta, 0.0)
    swept = DiscreteMeasure(ctx.exterior, theta)

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


def balayage_oracle_halfspace(y, plane_nodes: NodeSet,
                              kernel: KernelSpec) -> DiscreteMeasure:
    """Closed-form harmonic-measure discretization for the Newtonian kernel:
    the Poisson density of the half-space, cell by cell.  The plane normal
    is the axis along which the nodes do not spread.

    Only alpha = 2 has this classical form; other orders are rejected.
    """
    if kernel.alpha != 2.0:
        raise UnsupportedKernel("half-space balayage oracle requires alpha = 2")
    pos = plane_nodes.positions
    spreads = pos.max(axis=0) - pos.min(axis=0)
    axis = int(np.argmin(spreads))
    if spreads[axis] > 1e-12 * max(1.0, float(np.abs(pos).max())):
        raise ValueError("plane nodes are not coplanar")
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
