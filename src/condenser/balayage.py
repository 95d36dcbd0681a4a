"""Numerical balayage onto a domain complement as an energy-norm projection,
Green-kernel construction on top of it, and the half-space Poisson oracle.

The sweep of a measure is the minimizer of ||mu - theta||_alpha over
nonnegative measures theta on the exterior node set: a convex QP in the
energy inner product.  The potential-match identity then holds on the
exterior nodes up to the recorded residual instead of being imposed.

Every sweep takes one path: an unconstrained solve with the Cholesky
factor of the exterior kernel matrix K_EE, then block principal pivoting on
the nonnegative cone for all the columns that dip below zero at once
(``GreenContext._cone_project``, the multiple-right-hand-side form of Kim &
Park 2011).  A context holds only the factor, as one triangle.  Each round
factors every distinct free pattern once, from the free set's square of
K_EE read from the kernel (``_exterior_block``), and reads the gradient of
its columns on the held nodes only, by row blocks, so no read spans every
exterior node.  Settled columns are written into the sweep's Theta.
Each column keeps Kim & Park's backup rule, shared with the QP engine of
``_pg``, so its pivoting ends.

Pivoting accepts any start set and stops only when the KKT conditions hold,
so a start changes the work, not the answer.  A context keeps the union of
the last clipped sweep's settled positive sets (for alpha = 2, the boundary
layer of D) and starts later clipped columns from it.  A sweep that finds
no carried support lets its first clipped column settle alone and starts
the others from that column's positive set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpftrf, dpftrs, dtpttf

from . import kernel as kernelmod
from ._pg import FINISH_KKT, BackupRule, PackedMatrix
from .errors import UnsupportedKernel
from .kernel import KernelSpec, mutual_energy, potential
from .model import DiscreteMeasure, NodeSet, row_blocks

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

    Holds the float64 Cholesky factor of the exterior kernel matrix K_EE
    as one triangle in LAPACK's rectangular full packed form, m(m+1)/2
    entries, and not K_EE itself: its entries are read from the kernel when
    needed.  Exposes the Green kernel (Riesz kernel minus the swept
    point-mass potential) as matrices and potentials.
    """

    def __init__(self, exterior: NodeSet, kernel: KernelSpec):
        if len(exterior) == 0:
            raise ValueError("exterior node set must be nonempty")
        self.exterior = exterior
        self.riesz = kernel
        kernelmod._require_distinct(exterior.positions, "matrix assembly")
        m = len(exterior)
        # the packed rows of K_EE are BLAS's upper packed columns, which
        # dtpttf copies into the RFP layout dpftrf factors in place; K_EE
        # itself is not kept
        kee = kernelmod._packed_matrix(exterior.positions,
                                       exterior.cell_radii, kernel)
        self._factor, info = dpftrf(m, dtpttf(m, kee.ap)[0], overwrite_a=1)
        if info:
            raise LinAlgError(f"{info}-th leading minor of the exterior "
                              f"kernel matrix is not positive definite")
        # exterior nodes carried by the last clipped sweep: the pivoting
        # start of later clipped columns
        self._support = None

    # -- sweeping ----------------------------------------------------------
    def _cross_matrix(self, nodes: NodeSet) -> np.ndarray:
        """K(exterior, sources); coinciding pairs get the source self-energy,
        which makes sources already on the exterior exact fixed points."""
        return kernelmod._riesz_block(self.exterior.positions, nodes.positions,
                                      self.riesz, rho_q=nodes.cell_radii)

    def _exterior_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """K_EE[rows, cols] from the kernel: the exterior nodes ``cols`` as
        sources at the exterior nodes ``rows``, each node's own entry its
        self-energy."""
        ext = self.exterior
        return kernelmod._riesz_block(ext.positions[rows],
                                      ext.positions[cols], self.riesz,
                                      rho_q=ext.cell_radii[cols])

    def _sweep(self, B: np.ndarray):
        """Cone projections of the columns of B (exterior potentials): one
        unconstrained Cholesky solve, then ``_cone_project`` of the columns
        that dip below zero.  Clipped columns start from the carried
        support; without one, the first clipped column settles alone from
        its unconstrained positive set and the others start from its
        settled set.  The union of their settled sets becomes the carried
        support.  Returns theta and the clipped-column count."""
        theta = dpftrs(len(B), self._factor, B)[0]
        col_max = np.maximum(theta.max(axis=0), 1e-300)
        bad = np.flatnonzero(theta.min(axis=0) < -_NEG_REL_TOL * col_max)
        if not bad.size:
            return theta, 0
        start = self._support
        if start is None:
            start = theta[:, bad[0]] > 0.0
            if bad.size > 1:
                start = self._cone_project(B, theta, bad[:1], start)
        self._support = self._cone_project(B, theta, bad, start)
        return theta, int(bad.size)

    def sweep_columns(self, nodes: NodeSet):
        """Swept unit point masses for every node: columns of Theta solve
        min ||eps_y - theta||_alpha over theta >= 0 on the exterior nodes."""
        B = self._cross_matrix(nodes)
        theta, clipped = self._sweep(B)
        return B, theta, clipped

    def _cone_project(self, B: np.ndarray, theta: np.ndarray,
                      cols: np.ndarray, start: np.ndarray) -> np.ndarray:
        """min t' K t - 2 b' t over t >= 0 for the columns ``cols`` of B,
        written into the same columns of ``theta``, by block principal
        pivoting (Judice & Pires 1994), each column under its own backup
        rule (``_pg.BackupRule``).  Every column starts from the boolean
        free set ``start``, solves on its free set, drops negative entries
        and frees nodes whose gradient is negative, until the KKT
        conditions hold.  Each round groups the columns by free set F and
        reads the square K[F, F] once (``_exterior_block``), factored in
        place, B at F and at the held nodes H, and the gradient
        K[H, F] t[F] - b on H only, by the row blocks of ``row_blocks``: a
        free node's gradient is never tested.  An empty free set has
        gradient -b.  Returns the union of the settled positive sets."""
        m, k = len(B), len(cols)
        pts = self.exterior.positions
        scale = np.maximum(B.max(axis=0), -B.min(axis=0)) + 1e-300
        masks = np.broadcast_to(start, (k, m)).copy()  # row i: free set
        rule = BackupRule(k)
        settled = np.zeros(m, dtype=bool)
        active = list(range(k))
        while active:
            groups: dict = {}
            for i in active:
                groups.setdefault(masks[i].tobytes(), []).append(i)
            active = []
            for group in groups.values():
                free = masks[group[0]]
                idx = np.flatnonzero(free)
                held = np.flatnonzero(~free)
                js = cols[group]
                # free entries below zero and held nodes whose gradient is
                # negative: the KKT conditions each column breaks
                breaks = np.zeros((m, len(group)), dtype=bool)
                resid = B[held[:, None], js]   # minus the held gradient
                pos = np.zeros((0, len(group)))
                if idx.size:
                    # K[F, F] is exactly symmetric: its transpose is the
                    # Fortran-ordered view LAPACK factors without a copy
                    K = self._exterior_block(idx, idx)
                    fac = cho_factor(K.T, lower=True, overwrite_a=True,
                                     check_finite=False)
                    pos = cho_solve(fac, B[idx[:, None], js],
                                    check_finite=False)
                    breaks[idx] = pos < 0.0
                    np.maximum(pos, 0.0, out=pos)
                    for rows in row_blocks(pts[held], pts[idx]):
                        resid[rows] -= self._exterior_block(held[rows],
                                                            idx) @ pos
                breaks[held] = resid > FINISH_KKT * scale[js]
                move = rule(breaks, group)
                for i, c in enumerate(group):
                    if move[:, i].any():
                        masks[c] = free ^ move[:, i]
                        active.append(c)
                    else:
                        theta[:, cols[c]] = 0.0
                        theta[idx, cols[c]] = pos[:, i]
                        settled[idx] |= pos[:, i] > 0.0
        return settled

    def _potential_and_sweep(self, mu: DiscreteMeasure):
        """kappa(., mu) on the exterior nodes and the swept weights of mu."""
        b = potential(mu, self.exterior.positions, self.riesz)
        theta, _ = self._sweep(b[:, None])
        return b, theta[:, 0]

    # -- Green kernel ------------------------------------------------------
    def green_matrix(self, nodes: NodeSet):
        """Green kernel matrix on interior nodes as one PackedMatrix, K_DD -
        sym(Theta' K_ED), and its asymmetry relative to K_DD's largest
        entry.  Each lower row block of K_DD is corrected by
        ``_subtract_swept`` and written once.  The asymmetry is read from
        each corrected block's diagonal square against its transpose (K_DD's
        own squares are exactly symmetric) and, when a column clipped, from
        every mirrored pair of Theta' K_ED.  A node several plates share
        comes once per plate, each copy with its own row and column."""
        B, theta, clipped = self.sweep_columns(nodes)
        G = PackedMatrix(len(nodes))
        scale, asym = 1e-300, 0.0
        for a, blk in kernelmod._lower_row_blocks(
                nodes.positions, nodes.cell_radii, self.riesz):
            scale = max(scale, float(np.abs(blk).max()))
            mirrored = _subtract_swept(blk, a, B, theta, clipped)
            asym = max(asym, mirrored,
                       float(np.abs(blk[:, a:] - blk[:, a:].T).max()))
            G.put_rows(a, blk)
        return G, asym / scale

    def green_potential(self, mu: DiscreteMeasure, points) -> np.ndarray:
        _, theta = self._potential_and_sweep(mu)
        swept = DiscreteMeasure(self.exterior, np.maximum(theta, 0.0))
        return potential(mu, points, self.riesz) - \
            potential(swept, points, self.riesz)


def _subtract_swept(blk: np.ndarray, a: int, B: np.ndarray,
                    theta: np.ndarray, clipped: int) -> float:
    """Subtract from ``blk``, rows a to b of a matrix up to column b, the
    same rows of sym(Theta' B).  Unclipped, Theta' B = B' K_EE^-1 B is
    symmetric and its rows are the whole correction.  When a column
    clipped, they are averaged with their mirror, the same rows of
    B' Theta.  Returns the largest asymmetry of the mirrored pairs, 0 when
    none is formed."""
    rows = slice(a, a + len(blk))
    block = theta[:, rows].T @ B[:, :rows.stop]
    asym = 0.0
    if clipped:
        mirror = B[:, rows].T @ theta[:, :rows.stop]
        asym = float(np.abs(block - mirror).max())
        block += mirror
        block *= 0.5
    blk -= block
    return asym


def balayage_project(mu: DiscreteMeasure, ctx: GreenContext) -> BalayageResult:
    """Sweep mu onto the context's exterior node set: the energy-norm
    projection onto the cone of nonnegative measures carried by it."""
    pot_mu, theta = ctx._potential_and_sweep(mu)   # pot_mu = kappa(., mu)
    clipped = int(np.sum(theta <= 0.0))
    theta = np.maximum(theta, 0.0)
    swept = DiscreteMeasure(ctx.exterior, theta)

    pot_sw = potential(swept, ctx.exterior.positions, ctx.riesz)  # mu' on D^c
    scale = max(float(np.abs(pot_mu).max()), 1e-300)
    residual = float(np.abs(pot_sw - pot_mu).max()) / scale

    e_mu = mutual_energy(mu, mu, ctx.riesz)
    cross = float(theta @ pot_mu)
    self_sw = float(theta @ pot_sw)
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
