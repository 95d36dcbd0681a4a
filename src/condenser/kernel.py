"""Kernel evaluation, matrix assembly, energies/potentials, the Gauss
functional, and equilibrium measures / capacity.  A vector measure is read
through its resultant R mu = sum_i s_i mu^i, so ``potential`` and
``mutual_energy`` take vector and scalar measures alike."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._pg import minimize_quadratic
from .errors import DuplicateNodeError, NonConvergedError
from .model import (DiscreteMeasure, KernelSpec, NodeSet, SignedMeasure,
                    VectorMeasure, merge_by_position, resultant, row_blocks,
                    squared_distances)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class KernelMatrix:
    """Dense symmetric kernel matrix over a node set, diagonal set by the
    kernel's self-energy rule."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _riesz_block(P: np.ndarray, Q: np.ndarray, kernel: KernelSpec,
                 rho_q: np.ndarray) -> np.ndarray:
    """Kernel values between two point arrays.  Exactly coinciding pairs get
    the self-energy value of the second array's cell radius ``rho_q``."""
    K = squared_distances(P, Q)
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


def assemble_matrix(nodes: NodeSet, kernel: KernelSpec) -> KernelMatrix:
    """Dense kernel matrix on pairwise-distinct nodes: off-diagonal entries
    |x-y|^(alpha-n), diagonal per the self-energy rule."""
    _require_distinct(nodes.positions, "matrix assembly")
    return KernelMatrix(_riesz_block(nodes.positions, nodes.positions, kernel,
                                     rho_q=nodes.cell_radii))


def _atoms_of(mu) -> tuple:
    """(positions, weights, cell_radii) of a measure; a vector measure gives
    the atoms of its resultant."""
    if isinstance(mu, VectorMeasure):
        mu = resultant(mu)
    if isinstance(mu, DiscreteMeasure):
        return mu.nodes.positions, mu.weights, mu.nodes.cell_radii
    if isinstance(mu, SignedMeasure):
        return mu.positions, mu.weights, mu.cell_radii
    raise TypeError(f"unsupported measure type {type(mu).__name__}")


def _kernel_sums(points: np.ndarray, mu, kernel: KernelSpec) -> np.ndarray:
    """kappa(x, mu) at each row x of ``points``, read by row blocks."""
    pos, w, rho = _atoms_of(mu)
    out = np.zeros(points.shape[0])
    if pos.shape[0]:
        for rows in row_blocks(points, pos):
            out[rows] = _riesz_block(points[rows], pos, kernel, rho_q=rho) @ w
    return out


def potential(mu, points, kernel: KernelSpec) -> np.ndarray:
    """kappa(x, mu) at each query point; a query coinciding with an atom uses
    the self-energy rule for that atom's contribution."""
    return _kernel_sums(np.atleast_2d(np.asarray(points, dtype=float)), mu,
                        kernel)


def mutual_energy(mu, nu, kernel: KernelSpec) -> float:
    """Mutual energy kappa(mu, nu); coinciding atom pairs contribute through
    the self-energy rule."""
    pa, wa, _ = _atoms_of(mu)
    return float(wa @ _kernel_sums(pa, nu, kernel))


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
    r = resultant(mu)
    return mutual_energy(r, r, kernel) + 2.0 * linear


def equilibrium_measure(nodes: NodeSet, kernel: KernelSpec, total: float = 1.0,
                        tolerances: Tolerances = DEFAULT_TOLERANCES,
                        matrix: Optional[np.ndarray] = None):
    """Minimizer of kappa(mu, mu) over nonnegative weights of fixed total mass,
    and the capacity total^2 / kappa(lambda, lambda).  ``matrix`` replaces
    the Riesz kernel matrix of the nodes (a Green matrix, say).

    The minimizing potential is constant on the carried nodes up to the
    solver's KKT tolerance.
    """
    if total <= 0:
        raise ValueError("total mass must be > 0")
    A = matrix if matrix is not None else assemble_matrix(nodes, kernel).entries
    m = A.shape[0]
    res = minimize_quadratic(A, None, [slice(0, m)], [total],
                             np.full(m, np.inf), tolerances)
    if not res.converged:
        raise NonConvergedError(
            f"equilibrium solve stalled at KKT residual {res.kkt_residual:.3e}")
    energy = res.objective
    capacity = total * total / energy if energy > 0 else math.inf
    return DiscreteMeasure(nodes, res.w), capacity
