"""Kernel evaluation, matrix assembly, energies/potentials, the Gauss
functional, the energy semimetric, and equilibrium measures / capacity.  A
vector measure is read through its resultant R mu = sum_i s_i mu^i, so
``potential`` and ``mutual_energy`` take vector and scalar measures alike;
its own nodes are read once, by ``_node_potentials``."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from ._pg import PackedMatrix, minimize_quadratic
from .errors import AlignmentError, DuplicateNodeError, NonConvergedError
from .model import (DiscreteMeasure, KernelSpec, NodeSet, SignedMeasure,
                    VectorMeasure, merge_by_position, resultant, row_blocks)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


def _riesz_block(P: np.ndarray, Q: np.ndarray, kernel: KernelSpec,
                 rho_q: np.ndarray) -> np.ndarray:
    """Kernel values between two point arrays.  Exactly coinciding pairs get
    the self-energy value of the cell radius ``rho_q`` broadcast against
    the block: the second array's radii, or, as a column, the first's."""
    K = cdist(P, Q, "sqeuclidean")
    hits = K == 0.0
    with np.errstate(divide="ignore"):
        np.power(K, 0.5 * (kernel.alpha - kernel.n), out=K)
    if np.any(hits):
        se = np.broadcast_to(kernel.self_energy(rho_q), K.shape)
        K[hits] = se[hits]
    return K


def _require_distinct(positions: np.ndarray, what: str) -> None:
    """Raise DuplicateNodeError if two rows of ``positions`` coincide."""
    if merge_by_position(positions)[0].size != positions.shape[0]:
        raise DuplicateNodeError(f"coinciding nodes in {what}")


def _lower_row_blocks(P: np.ndarray, rho: np.ndarray, kernel: KernelSpec):
    """The kernel matrix of P against itself, cell radii ``rho``, as row
    blocks (a, K[a:b, :b]) over ``row_blocks``: each row is read from the
    diagonal leftwards, so a coinciding pair gets the later point's (the
    row's) self-energy.  A pair right of the diagonal would get the earlier
    point's, so where points may coincide only the lower triangle is
    read."""
    for rows in row_blocks(P, P):
        yield rows.start, _riesz_block(P[rows], P[:rows.stop], kernel,
                                       rho_q=rho[rows, None])


def _packed_matrix(P: np.ndarray, rho: np.ndarray,
                   kernel: KernelSpec) -> PackedMatrix:
    """Kernel matrix of P against itself as one packed lower triangle."""
    K = PackedMatrix(len(P))
    for a, blk in _lower_row_blocks(P, rho, kernel):
        K.put_rows(a, blk)
    return K


def _atoms_of(mu) -> tuple:
    """(positions, weights, cell_radii) of a measure's nonzero atoms; a
    vector measure gives the atoms of its resultant."""
    if isinstance(mu, VectorMeasure):
        mu = resultant(mu)
    if isinstance(mu, DiscreteMeasure):
        nz = mu.weights != 0.0
        return mu.nodes.positions[nz], mu.weights[nz], mu.nodes.cell_radii[nz]
    if isinstance(mu, SignedMeasure):
        return mu.positions, mu.weights, mu.cell_radii
    raise TypeError(f"unsupported measure type {type(mu).__name__}")


def potential(mu, points, kernel: KernelSpec) -> np.ndarray:
    """kappa(x, mu) at each query point, read by row blocks; a query
    coinciding with an atom uses the self-energy rule for that atom's
    contribution."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    pos, w, rho = _atoms_of(mu)
    out = np.zeros(points.shape[0])
    if pos.shape[0]:
        for rows in row_blocks(points, pos):
            out[rows] = _riesz_block(points[rows], pos, kernel, rho_q=rho) @ w
    return out


def mutual_energy(mu, nu, kernel: KernelSpec) -> float:
    """Mutual energy kappa(mu, nu); coinciding atom pairs contribute through
    the self-energy rule."""
    pa, wa, _ = _atoms_of(mu)
    return float(wa @ potential(nu, pa, kernel))


def _node_potentials(mu: VectorMeasure, kernel: KernelSpec) -> list:
    """kappa(., R mu) at the nodes of each component of ``mu``, read by
    component, as read-only arrays: the one read behind the measure's
    weighted potentials, energy, Gauss functional and distances.  It is kept
    on the measure, one per kernel; a new measure (``dataclasses.replace``
    makes one) is read afresh, and measures are never changed in place."""
    memo = vars(mu).setdefault("_potentials", {})
    if kernel not in memo:
        r = resultant(mu)
        memo[kernel] = [potential(r, c.nodes.positions, kernel)
                        for c in mu.components]
        for p in memo[kernel]:
            p.flags.writeable = False
    return memo[kernel]


def _energy(mu: VectorMeasure, kernel: KernelSpec) -> float:
    """kappa(R mu, R mu) = sum_i s_i <mu^i, kappa(., R mu)>, from the node
    potentials."""
    return sum(s * float(c.weights @ p) for s, c, p in
               zip(mu.signs, mu.components, _node_potentials(mu, kernel)))


def gauss_functional(mu: VectorMeasure, field: Sequence[np.ndarray],
                     kernel: KernelSpec) -> float:
    """Weighted energy G = kappa(R mu, R mu) + 2 sum_i <f_i, mu^i>, the
    functional every solve minimizes; ``field`` holds the values f_i at the
    nodes of each component, finite or +inf.

    Returns +inf when positive weight sits on a node with infinite field.
    """
    linear = 0.0
    for f, comp in zip(field, mu.components, strict=True):
        carried = comp.weights > 0
        if np.any(np.isposinf(f[carried])):
            return math.inf
        finite = np.isfinite(f)
        linear += float(f[finite] @ comp.weights[finite])
    return _energy(mu, kernel) + 2.0 * linear


def semimetric_distance(mu: VectorMeasure, nu: VectorMeasure,
                        kernel: KernelSpec) -> float:
    """Energy-norm distance ||R mu - R nu||_kappa of two measures on the same
    nodes: the square root of sum_i s_i <mu^i - nu^i, p_mu^i - p_nu^i>, with
    p the node potentials of each measure."""
    if not mu.aligned_with(nu):
        raise AlignmentError("measures live on different condensers")
    pairs = zip(mu.signs, mu.components, nu.components,
                _node_potentials(mu, kernel), _node_potentials(nu, kernel))
    sq = sum(s * float((a.weights - b.weights) @ (pa - pb))
             for s, a, b, pa, pb in pairs)
    return math.sqrt(max(sq, 0.0))


def equilibrium_measure(nodes: NodeSet, kernel: KernelSpec, total: float = 1.0,
                        tolerances: Tolerances = DEFAULT_TOLERANCES,
                        matrix: Optional[PackedMatrix] = None):
    """Minimizer of kappa(mu, mu) over nonnegative weights of fixed total mass,
    and the capacity total^2 / kappa(lambda, lambda).  ``matrix`` replaces
    the Riesz kernel matrix of the nodes (a packed Green matrix, say).

    The minimizing potential is constant on the carried nodes up to the
    solver's KKT tolerance.
    """
    if total <= 0:
        raise ValueError("total mass must be > 0")
    A = matrix
    if A is None:
        _require_distinct(nodes.positions, "matrix assembly")
        A = _packed_matrix(nodes.positions, nodes.cell_radii, kernel)
    m = A.shape[0]
    res = minimize_quadratic(A, None, [slice(0, m)], [total],
                             np.full(m, np.inf), tolerances)
    if not res.converged:
        raise NonConvergedError(
            f"equilibrium solve stalled at KKT residual {res.kkt_residual:.3e}")
    energy = res.objective
    capacity = total * total / energy if energy > 0 else math.inf
    return DiscreteMeasure(nodes, res.w), capacity
