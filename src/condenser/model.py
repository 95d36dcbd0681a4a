"""Domain types for discretized condensers and the vector measures living on them.

Plates are node clouds with quadrature weights; oppositely signed plates must be
pointwise disjoint, although their closures may touch (the minimum distance is
allowed to shrink with resolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import AlignmentError, EmptyPlateError, ZeroSeparationError

# the PlateSpec fields each geometry reads besides tag, sign and backing; a
# geometry reading ``truncation`` is unbounded, laid out up to that radius
PLATE_KEYS = {
    "ball": ("center", "radius"),
    "ball_complement": ("center", "radius", "truncation"),
    "half_space": ("center", "axis", "side", "truncation"),
    "disk": ("center", "radius", "axis", "stack_count", "count"),
}

# Cell-radius calibration.  The CellBall diagonal rule evaluates the mean of
# the kernel over a ball of radius cell_radius, so cell_radius sets each
# cell's self-energy.  Surface cells use the radius that reproduces the true
# self-energy (double mean) of an equal-area flat cell at alpha=2, n=3:
# 1.5 * sqrt(A/pi) / E|X-Y|^-1_disk = (9 pi/32) sqrt(A/pi).  Volume cells use
# the half-width of the cell; together with the nearest-neighbor trim below
# this keeps the effective cells pairwise disjoint, which makes assembled
# kernel matrices positive definite (Gram matrix of disjoint uniform balls
# plus a positive diagonal excess).
SURFACE_CELL_RADIUS_FACTOR = 0.4985026456  # x sqrt(cell area)
VOLUME_CELL_RADIUS_FACTOR = 0.49  # x cell spacing
# effective cells are trimmed so rho_i <= NEIGHBOR_TRIM * (nearest-neighbor
# distance); any pair then satisfies rho_i + rho_j < d_ij
NEIGHBOR_TRIM = 0.49
# row blocks of pairwise arrays hold at most this many entries (1 MB of
# float64): a blocked kernel reader stays small, and filling a dense matrix
# adds little to its own size
BLOCK_ENTRIES = 131_072
# geometric growth of the graded layouts of unbounded plates
SHELL_GROWTH = 1.35  # ball-complement shell edges
RING_GROWTH = 1.3    # half-space ring edges
DEPTH_GROWTH = 2.2   # half-space layer depths


@dataclass(frozen=True)
class KernelSpec:
    """Riesz kernel |x-y|^(alpha-n) on R^n.  The kernel-matrix diagonal is
    the analytic mean of the kernel over a ball of radius cell_radius."""

    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")

    def self_energy(self, cell_radius: np.ndarray | float) -> np.ndarray | float:
        """Diagonal value: the mean of |x|^(alpha-n) over a ball of radius
        rho is (n/alpha) * rho^(alpha-n), finite for alpha > 0."""
        rho = np.asarray(cell_radius, dtype=float)
        return (self.n / self.alpha) * rho ** (self.alpha - self.n)


class NodeSet:
    """Columnar storage for discretization nodes: positions, local quadrature
    weights (> 0), and the effective cell half-widths (> 0) used by the
    self-energy rule.

    ``layer_index`` records which construction layer/shell a node came from
    (0 = boundary layer); support diagnostics group by it.
    """

    __slots__ = ("positions", "quad_weights", "cell_radii", "layer_index")

    def __init__(self, positions, quad_weights, cell_radii, layer_index=None):
        self.positions = np.ascontiguousarray(positions, dtype=float)
        self.quad_weights = np.ascontiguousarray(quad_weights, dtype=float)
        self.cell_radii = np.ascontiguousarray(cell_radii, dtype=float)
        if self.positions.ndim != 2:
            raise ValueError("positions must be (m, n)")
        m = self.positions.shape[0]
        if self.quad_weights.shape != (m,) or self.cell_radii.shape != (m,):
            raise ValueError("weights/radii must match node count")
        if m and (np.any(self.quad_weights <= 0) or np.any(self.cell_radii <= 0)):
            raise ValueError("quad_weights and cell_radii must be > 0")
        if layer_index is None:
            layer_index = np.zeros(m, dtype=int)
        self.layer_index = np.ascontiguousarray(layer_index, dtype=int)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def subset(self, idx) -> "NodeSet":
        return NodeSet(self.positions[idx], self.quad_weights[idx],
                       self.cell_radii[idx], self.layer_index[idx])


@dataclass(frozen=True)
class Plate:
    """One signed plate of a condenser; ``spec`` is the description it was
    laid out from, None for a bare node cloud."""

    sign: int
    nodes: NodeSet
    spec: Optional[PlateSpec] = None

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.nodes) == 0:
            raise EmptyPlateError("plate has no nodes")


@dataclass(frozen=True)
class Condenser:
    """Ordered plates with prescribed signs; oppositely signed node sets are
    pointwise disjoint (closures may touch)."""

    plates: tuple

    def __post_init__(self):
        object.__setattr__(self, "plates", tuple(self.plates))
        if not self.plates:
            raise ValueError("condenser needs at least one plate")
        dims = {p.nodes.dim for p in self.plates}
        if len(dims) != 1:
            raise ValueError("plates live in different dimensions")
        pos_idx = [i for i, p in enumerate(self.plates) if p.sign > 0]
        neg_idx = [i for i, p in enumerate(self.plates) if p.sign < 0]
        if pos_idx and neg_idx:
            pos = np.vstack([self.plates[i].nodes.positions for i in pos_idx])
            neg = np.vstack([self.plates[i].nodes.positions for i in neg_idx])
            if cKDTree(neg).query(pos)[0].min() <= 0.0:
                raise ZeroSeparationError(
                    "a positive node coincides with a negative node")

    @property
    def signs(self) -> tuple:
        return tuple(p.sign for p in self.plates)

    @property
    def dim(self) -> int:
        return self.plates[0].nodes.dim


def squared_distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """|p - q|^2 for every row p of P and q of Q; coinciding points give
    exactly zero.  Every kernel block in the package comes from here."""
    return cdist(P, Q, "sqeuclidean")


def row_blocks(P: np.ndarray, Q: np.ndarray):
    """Slices of P's rows such that each block against all of Q holds at most
    BLOCK_ENTRIES pairs, or 8 rows; blocked readers of pairwise arrays
    iterate these.  Blocks take whole groups of 8 rows: BLAS matrix-vector
    kernels sum rows in groups (of 4 in OpenBLAS), so on one thread a row of
    a blocked product K @ w gets the same sum as in one unblocked product."""
    step = max(8, BLOCK_ENTRIES // max(1, Q.shape[0]) // 8 * 8)
    return [slice(start, start + step) for start in range(0, P.shape[0], step)]


def _nearest_neighbor_distances(pos: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest distinct point of ``ref`` (zero
    distances are ignored: shared nodes of equally signed plates are the same
    cell); inf when ``ref`` has no such point."""
    tree = cKDTree(ref[merge_by_position(ref)[0]])
    d, _ = tree.query(pos, k=2)
    # a point of ``pos`` coincides with at most one merged reference point
    return np.where(d[:, 0] > 0.0, d[:, 0], d[:, 1])


def trim_cell_radii(nodes: NodeSet, reference: Optional[np.ndarray] = None
                    ) -> NodeSet:
    """Cap cell radii at NEIGHBOR_TRIM x the distance to the nearest distinct
    point of ``reference`` (default: the node set itself), so effective cells
    stay pairwise disjoint."""
    ref = nodes.positions if reference is None else reference
    dnn = _nearest_neighbor_distances(nodes.positions, ref)
    capped = np.minimum(nodes.cell_radii, NEIGHBOR_TRIM * dnn)
    return NodeSet(nodes.positions, nodes.quad_weights, capped, nodes.layer_index)


def trim_across_plates(plates: Sequence[Plate]) -> list:
    """Trim every plate's cells against the nodes of all plates, so joint
    kernel matrices stay positive definite; coincident nodes (shared by
    equally signed plates) are the same cell."""
    all_pos = np.vstack([p.nodes.positions for p in plates])
    return [replace(p, nodes=trim_cell_radii(p.nodes, all_pos)) for p in plates]


def merge_by_position(positions: np.ndarray) -> tuple:
    """Merge rows with exactly equal positions.

    Returns ``(first, inverse)``: the index of each distinct position's first
    occurrence, in order of first occurrence, and for every row the index of
    its distinct position.  Sum per-row weights with
    ``np.bincount(inverse, weights, len(first))``.
    """
    _, first, inverse = np.unique(positions, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative atomic measure carried by a node set."""

    nodes: NodeSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.nodes),):
            raise AlignmentError("weights length does not match node count")
        if w.size and (np.any(w < 0) or not np.all(np.isfinite(w))):
            raise ValueError("weights must be finite and >= 0")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class VectorMeasure:
    """One nonnegative component per plate, in plate order."""

    components: tuple
    signs: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        if len(self.components) != len(self.signs):
            raise AlignmentError("one sign per component required")

    @classmethod
    def from_weights(cls, condenser: Condenser, weights: Sequence[np.ndarray]) -> "VectorMeasure":
        if len(weights) != len(condenser.plates):
            raise AlignmentError(
                f"expected {len(condenser.plates)} components, got {len(weights)}")
        comps = [DiscreteMeasure(plate.nodes, np.asarray(w, dtype=float))
                 for plate, w in zip(condenser.plates, weights)]
        return cls(tuple(comps), condenser.signs)

    def aligned_with(self, other: "VectorMeasure") -> bool:
        if len(self.components) != len(other.components) or self.signs != other.signs:
            return False
        return all(a.nodes is b.nodes or
                   (len(a.nodes) == len(b.nodes)
                    and np.array_equal(a.nodes.positions, b.nodes.positions))
                   for a, b in zip(self.components, other.components))


@dataclass(frozen=True)
class SignedMeasure:
    """Signed atomic measure; positive part carried by positive-plate nodes,
    negative part by negative-plate nodes."""

    positions: np.ndarray
    weights: np.ndarray
    cell_radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           np.ascontiguousarray(self.positions, dtype=float))
        object.__setattr__(self, "weights",
                           np.ascontiguousarray(self.weights, dtype=float))
        object.__setattr__(self, "cell_radii",
                           np.ascontiguousarray(self.cell_radii, dtype=float))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def resultant(mu: VectorMeasure) -> SignedMeasure:
    """Signed scalar measure sum_i s_i mu^i; shared nodes of equally signed
    plates are merged (exact position match), zero atoms dropped."""
    comps = mu.components
    return _merged_signed(
        np.vstack([c.nodes.positions for c in comps]),
        np.concatenate([s * c.weights for s, c in zip(mu.signs, comps)]),
        np.concatenate([c.nodes.cell_radii for c in comps]))


def _merged_signed(positions, weights, radii) -> SignedMeasure:
    """Signed measure of the nonzero atoms merged by position, with merged
    atoms of zero total weight dropped; a merged atom keeps the cell radius
    of its first nonzero atom."""
    nz = weights != 0.0
    positions, weights, radii = positions[nz], weights[nz], radii[nz]
    first, inverse = merge_by_position(positions)
    merged = np.bincount(inverse, weights, first.size)
    keep = merged != 0.0
    return SignedMeasure(positions[first][keep], merged[keep],
                         radii[first][keep])


def semimetric_distance(mu: VectorMeasure, nu: VectorMeasure,
                        kernel: KernelSpec) -> float:
    """Energy-norm distance ||R mu - R nu||_kappa, computed on the merged
    atom set of the two resultants."""
    from . import kernel as _kernel  # deferred: kernel imports this module

    if not mu.aligned_with(nu):
        raise AlignmentError("measures live on different condensers")
    rmu = resultant(mu)
    rnu = resultant(nu)
    delta = _merged_signed(np.vstack([rmu.positions, rnu.positions]),
                           np.concatenate([rmu.weights, -rnu.weights]),
                           np.concatenate([rmu.cell_radii, rnu.cell_radii]))
    return math.sqrt(max(_kernel.mutual_energy(delta, delta, kernel), 0.0))


# ---------------------------------------------------------------------------
# Geometry layouts
# ---------------------------------------------------------------------------

def ball_volume_nodes(center, radius, h):
    """Cubic grid of spacing h restricted to the open ball in R^3; cell
    weight h^3."""
    center = np.asarray(center, dtype=float)
    if radius <= 0 or h <= 0:
        return NodeSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    k = int(math.floor(radius / h + 0.5))
    axes = [h * (np.arange(-k, k + 1)) for _ in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    keep = np.linalg.norm(grid, axis=1) < radius
    pts = grid[keep] + center
    m = pts.shape[0]
    if m == 0:
        return NodeSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    w = np.full(m, h ** 3)
    rho = np.full(m, VOLUME_CELL_RADIUS_FACTOR * h)
    return NodeSet(pts, w, rho)


def sphere_surface_nodes(center, radius, count, *, layer=0, phase=0.0):
    """Equal-area spiral-lattice layout on a sphere in R^3.

    One node per equal-height latitude slice (area exactly 4*pi*r^2/count),
    longitudes advanced by the golden angle: locally near-isotropic cells
    without band artifacts.
    """
    if count < 1 or radius <= 0:
        return NodeSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    center = np.asarray(center, dtype=float)
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    ang = phase + i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    pts = np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=1)
    pts = pts * radius + center
    m = pts.shape[0]
    area = 4.0 * math.pi * radius ** 2 / count
    w = np.full(m, area)
    rho_c = np.full(m, SURFACE_CELL_RADIUS_FACTOR * math.sqrt(area))
    return NodeSet(pts, w, rho_c, np.full(m, layer, dtype=int))


def disk_nodes(center, radius, count, axis=0, *, layer=0):
    """Equal-area spiral (sunflower) layout on a flat disk in R^3, normal to
    ``axis``: node i at radius r*sqrt((i+1/2)/count), golden-angle longitude."""
    if count < 1 or radius <= 0:
        return NodeSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    center = np.asarray(center, dtype=float)
    i = np.arange(count)
    rr = radius * np.sqrt((i + 0.5) / count)
    ang = i * math.pi * (3.0 - math.sqrt(5.0))
    u, v = [a for a in range(3) if a != axis]
    pts = np.zeros((count, 3))
    pts[:, u] = rr * np.cos(ang)
    pts[:, v] = rr * np.sin(ang)
    pts = pts + center
    cell_area = math.pi * radius ** 2 / count
    w = np.full(count, cell_area)
    rho_c = np.full(count, SURFACE_CELL_RADIUS_FACTOR * math.sqrt(cell_area))
    return NodeSet(pts, w, rho_c, np.full(count, layer, dtype=int))


def untrimmed_surface_cells(nodes: NodeSet) -> NodeSet:
    """Flat surface cells (``disk_nodes``, ``graded_plane_nodes``) with the
    calibrated radius of their own area, undoing any nearest-neighbor trim."""
    return NodeSet(nodes.positions, nodes.quad_weights,
                   SURFACE_CELL_RADIUS_FACTOR * np.sqrt(nodes.quad_weights),
                   nodes.layer_index)


def _geometric_edges(start: float, stop: float, growth: float) -> np.ndarray:
    """Geometric partition of [start, stop]; a trailing fragment shorter than
    half a full step is merged into the previous interval instead of forming
    a thin sliver."""
    edges = [float(start)]
    while edges[-1] * growth < stop:
        edges.append(edges[-1] * growth)
    if len(edges) > 1 and stop / edges[-1] < math.sqrt(growth):
        edges[-1] = stop
    else:
        edges.append(stop)
    return np.array(edges)


def graded_plane_nodes(center, inner, outer, axis=0, *, growth=1.45, layer=0,
                       start=0.0):
    """Radially graded annular cells on a hyperplane disk (fine near center).

    Ring edges grow geometrically from ``inner`` to ``outer``; cells keep an
    aspect ratio near one so distant area is represented cheaply.  With
    ``start`` > 0 the layout is an annulus from that radius outward.
    """
    center = np.asarray(center, dtype=float)
    if start > 0.0:
        edges = _geometric_edges(float(start), float(outer), growth)
    else:
        edges = np.concatenate([[0.0],
                                _geometric_edges(float(inner), float(outer), growth)])
    u, v = [a for a in range(3) if a != axis]
    pts, wts, rads = [], [], []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for m_ in range(len(edges) - 1):
        r0, r1 = edges[m_], edges[m_ + 1]
        rm = math.sqrt(0.5 * (r0 * r0 + r1 * r1)) if r0 > 0 else 0.0
        if r0 == 0.0:
            km = 1
        else:
            km = max(6, int(round(2.0 * math.pi * rm / (r1 - r0))))
        area = math.pi * (r1 * r1 - r0 * r0) / km
        ang = m_ * golden + 2.0 * math.pi * (np.arange(km) + 0.5) / km
        ring = np.zeros((km, 3))
        if rm > 0:
            ring[:, u] = rm * np.cos(ang)
            ring[:, v] = rm * np.sin(ang)
        pts.append(ring)
        wts.append(np.full(km, area))
        rads.append(np.full(km, SURFACE_CELL_RADIUS_FACTOR * math.sqrt(area)))
    pts = np.vstack(pts) + center
    m = pts.shape[0]
    return NodeSet(pts, np.concatenate(wts), np.concatenate(rads),
                   np.full(m, layer, dtype=int))


def ball_complement_nodes(center, radius, truncation, resolution):
    """Boundary sphere layer plus volume shells out to the truncation radius,
    their edges growing by SHELL_GROWTH."""
    center = np.asarray(center, dtype=float)
    n_surf = max(12, int(round(4.0 * math.pi * radius ** 2 / resolution ** 2)))
    parts = [sphere_surface_nodes(center, radius, n_surf, layer=0)]
    edges = _geometric_edges(radius, truncation, SHELL_GROWTH)
    for j in range(len(edges) - 1):
        r0, r1 = edges[j], edges[j + 1]
        rm = 0.5 * (r0 + r1)
        t = r1 - r0
        count = max(12, int(round(4.0 * math.pi * rm ** 2 / t ** 2)))
        shell = sphere_surface_nodes(center, rm, count, layer=j + 1,
                                     phase=0.37 * (j + 1))
        vol = 4.0 * math.pi / 3.0 * (r1 ** 3 - r0 ** 3)
        area = 4.0 * math.pi * rm ** 2 / count
        w = np.full(len(shell), vol / count)
        rho_val = VOLUME_CELL_RADIUS_FACTOR * min(math.sqrt(area), t)
        rho = np.full(len(shell), rho_val)
        parts.append(NodeSet(shell.positions, w, rho, shell.layer_index))
    return trim_cell_radii(_concat_nodesets(parts))


def half_space_nodes(center, side, truncation, resolution, axis=0, *,
                     backing=True):
    """Half-space plate on the ``side`` of the plane through ``center`` with
    normal ``axis``: boundary-plane layer plus volume layers going into the
    half-space, rings graded around ``center`` by RING_GROWTH and depths by
    DEPTH_GROWTH."""
    center = np.asarray(center, dtype=float)
    parts = [graded_plane_nodes(center, resolution, truncation, axis=axis,
                                growth=RING_GROWTH, layer=0)]
    if backing:
        edges = _geometric_edges(float(resolution), truncation / 2.0,
                                 DEPTH_GROWTH)
        for j in range(len(edges) - 1):
            d0, d1 = edges[j], edges[j + 1]
            dm = 0.5 * (d0 + d1)
            t = d1 - d0
            c = center.copy()
            c[axis] += side * dm
            sheet = graded_plane_nodes(c, max(resolution, t), truncation,
                                       axis=axis, growth=RING_GROWTH,
                                       layer=j + 1)
            w = sheet.quad_weights * t
            rho = VOLUME_CELL_RADIUS_FACTOR * np.minimum(np.sqrt(sheet.quad_weights), t)
            parts.append(NodeSet(sheet.positions, w, rho, sheet.layer_index))
    return trim_cell_radii(_concat_nodesets(parts))


def _concat_nodesets(parts: Iterable[NodeSet]) -> NodeSet:
    parts = [p for p in parts if len(p)]
    if not parts:
        return NodeSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    return NodeSet(np.vstack([p.positions for p in parts]),
                   np.concatenate([p.quad_weights for p in parts]),
                   np.concatenate([p.cell_radii for p in parts]),
                   np.concatenate([p.layer_index for p in parts]))


# ---------------------------------------------------------------------------
# Plate descriptions and condenser construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateSpec:
    """Geometric description of one plate, laid out by :func:`plate_nodes`.

    A geometry reads the fields ``PLATE_KEYS`` lists for it, and ``backing``
    (a half-space's volume layers); every other field keeps its default.
    Unbounded plates need a ``truncation`` radius beyond their ``radius``.
    ``stack_count`` > 0 on a disk plate builds the stacked family: disk k of
    radius k x radius at axis offset 1/k from the disk center, k = 1..count,
    one layer per disk.  ``count`` fixes the nodes per disk (every disk of a
    stack), replacing the count derived from the resolution.
    """

    tag: str
    sign: int
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.0
    axis: int = 0
    side: int = -1
    truncation: Optional[float] = None
    stack_count: int = 0
    count: Optional[int] = None
    backing: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.tag not in PLATE_KEYS:
            raise ValueError(f"unknown geometry tag {self.tag!r}")
        keys = PLATE_KEYS[self.tag] + ("tag", "sign", "backing")
        for f in fields(self):
            if f.name not in keys and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} does not apply to {self.tag} "
                                 f"plates")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if len(self.center) != 3:
            raise ValueError(f"center must have 3 coordinates, got {self.center}")
        if "radius" in keys and not self.radius > 0:
            raise ValueError(f"{self.tag} radius must be > 0, got {self.radius}")
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis}")
        if self.side not in (+1, -1):
            raise ValueError(f"side must be +1 or -1, got {self.side}")
        if "truncation" in keys and (self.truncation is None
                                     or not self.truncation > self.radius):
            raise ValueError(f"{self.tag} plates need a truncation beyond "
                             f"the radius {self.radius}, got "
                             f"{self.truncation}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def boundary_zone(self, nodes: NodeSet) -> Optional[np.ndarray]:
        """Mask of the nodes closer to the plate's boundary surface than
        their cell radius: the sphere of a ball or ball complement, the
        bounding plane of a half-space; None for a disk."""
        if self.tag == "disk":
            return None
        offset = nodes.positions - np.asarray(self.center)
        if self.tag == "half_space":
            dist = np.abs(offset[:, self.axis])
        else:
            dist = np.abs(np.linalg.norm(offset, axis=1) - self.radius)
        return dist < nodes.cell_radii


def plate_nodes(spec: PlateSpec, resolution: float) -> NodeSet:
    """The nodes of one plate laid out at the given resolution.

    An unbounded plate needs ``truncation > radius + 2 x resolution`` (radius
    0 for a half-space): a thinner truncated shell or slab would be laid out
    in cells thinner than the resolution.  Raises ValueError otherwise,
    before any layout.
    """
    if spec.truncation is not None and \
            not spec.truncation > spec.radius + 2.0 * resolution:
        raise ValueError(
            f"{spec.tag} truncation {spec.truncation} must exceed "
            f"radius {spec.radius:g} + 2 x resolution {resolution:g}")
    if spec.tag == "ball":
        return ball_volume_nodes(spec.center, spec.radius, resolution)
    if spec.tag == "ball_complement":
        return ball_complement_nodes(spec.center, spec.radius, spec.truncation,
                                     resolution)
    if spec.tag == "half_space":
        return half_space_nodes(spec.center, spec.side, spec.truncation,
                                resolution, axis=spec.axis, backing=spec.backing)
    if spec.stack_count > 0:
        parts = []
        for k in range(1, spec.stack_count + 1):
            ctr = np.asarray(spec.center, dtype=float)
            ctr[spec.axis] += 1.0 / k
            rk = k * spec.radius
            count = spec.count or \
                max(12, int(round(math.pi * rk ** 2 / resolution ** 2)))
            parts.append(disk_nodes(ctr, rk, count, axis=spec.axis,
                                    layer=k - 1))
        return trim_cell_radii(_concat_nodesets(parts))
    count = spec.count or max(1, int(round(
        math.pi * spec.radius ** 2 / resolution ** 2)))
    return disk_nodes(spec.center, spec.radius, count, axis=spec.axis)


def build_condenser(plate_specs: Sequence[PlateSpec], resolution: float) -> Condenser:
    """Lay out the plates at the given resolution and assemble a condenser,
    cells trimmed across plates.  Raises EmptyPlateError for a plate without
    nodes and ZeroSeparationError if a positive node coincides with a
    negative one."""
    plates = [Plate(sign=spec.sign, nodes=plate_nodes(spec, resolution),
                    spec=spec) for spec in plate_specs]
    return Condenser(tuple(trim_across_plates(plates)))
