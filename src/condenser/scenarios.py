"""Built-in scenarios: the two worked examples and their default resolutions.

Example one: positive plate = solid ball D, negative plate = its complement,
cap = q x (discrete equilibrium measure of the ball), alpha < 2.

Example two: positive plate = a stack of disks of radius k at height 1/k,
negative plate = the closed half-space x1 <= 0, cap = sum k^-2 lambda_k with
lambda_k the disk equilibrium measures, alpha = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balayage import GreenContext
from .gauss_solver import Constraint, ProblemSpec
from .kernel import ExternalField, KernelSpec, equilibrium_measure
from .model import (Condenser, Plate, _concat_nodesets,
                    ball_complement_nodes, ball_volume_nodes, disk_nodes,
                    graded_plane_nodes, half_space_nodes, trim_across_plates,
                    trim_cell_radii)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass
class BuiltScenario:
    name: str
    spec: ProblemSpec
    green: GreenContext
    cap_total: float
    meta: dict


def example_one(resolution: float = 0.18, radius: float = 1.0,
                alpha: float = 1.5, q: float = 1.5, truncation: float = 16.0,
                tolerances: Tolerances = DEFAULT_TOLERANCES) -> BuiltScenario:
    """Solid ball against its complement with a scaled-equilibrium cap."""
    kernel = KernelSpec(3, alpha)
    ball = ball_volume_nodes((0.0, 0.0, 0.0), radius, resolution)
    exterior = ball_complement_nodes((0.0, 0.0, 0.0), radius, truncation,
                                     resolution)
    plates = [
        Plate(id=0, sign=+1, nodes=ball, geometry_tag="ball",
              params={"center": (0.0, 0.0, 0.0), "radius": radius}),
        Plate(id=1, sign=-1, nodes=exterior, geometry_tag="ball_complement",
              params={"center": (0.0, 0.0, 0.0), "radius": radius},
              truncation=truncation),
    ]
    plates = trim_across_plates(plates)
    condenser = Condenser(tuple(plates))
    # cap: q x the grid equilibrium measure of the ball (mass 1)
    lam, _ = equilibrium_measure(plates[0].nodes, kernel, 1.0,
                                 tolerances=tolerances)
    caps = Constraint((q * lam.weights, None))
    spec = ProblemSpec(condenser=condenser, totals=(1.0, 1.0),
                       field=ExternalField.zero(), constraint=caps,
                       kernel=kernel, tolerances=tolerances)
    green = GreenContext(plates[1].nodes, kernel)
    meta = {"resolution": resolution, "radius": radius, "alpha": alpha,
            "q": q, "truncation": truncation,
            "nodes_positive": len(plates[0].nodes),
            "nodes_negative": len(plates[1].nodes)}
    return BuiltScenario(name="ex1", spec=spec, green=green,
                         cap_total=float(q), meta=meta)


def ball_in_ball(alpha: float = 2.0, inner: float = 0.62, radius: float = 1.0,
                 resolution: float = 0.16, q: float = 1.5,
                 truncation: float = 16.0,
                 tolerances: Tolerances = DEFAULT_TOLERANCES) -> BuiltScenario:
    """A strictly interior ball against the complement of a larger ball;
    the clean instance for support-structure checks (no touching plates)."""
    kernel = KernelSpec(3, alpha)
    ball = ball_volume_nodes((0.0, 0.0, 0.0), inner, resolution)
    exterior = ball_complement_nodes((0.0, 0.0, 0.0), radius, truncation,
                                     resolution)
    plates = [
        Plate(id=0, sign=+1, nodes=ball, geometry_tag="ball",
              params={"center": (0.0, 0.0, 0.0), "radius": inner}),
        Plate(id=1, sign=-1, nodes=exterior, geometry_tag="ball_complement",
              params={"center": (0.0, 0.0, 0.0), "radius": radius},
              truncation=truncation),
    ]
    plates = trim_across_plates(plates)
    condenser = Condenser(tuple(plates))
    lam, _ = equilibrium_measure(plates[0].nodes, kernel, 1.0,
                                 tolerances=tolerances)
    caps = Constraint((q * lam.weights, None))
    spec = ProblemSpec(condenser=condenser, totals=(1.0, 1.0),
                       field=ExternalField.zero(), constraint=caps,
                       kernel=kernel, tolerances=tolerances)
    green = GreenContext(plates[1].nodes, kernel)
    meta = {"resolution": resolution, "inner": inner, "radius": radius,
            "alpha": alpha, "q": q, "truncation": truncation}
    return BuiltScenario(name="ball-in-ball", spec=spec, green=green,
                         cap_total=float(q), meta=meta)


def example_two(disk_count: int = 4, nodes_per_disk: int = 240,
                plane_inner: float = 0.08, truncation: float = 48.0,
                plane_growth: float = 1.3,
                tolerances: Tolerances = DEFAULT_TOLERANCES) -> BuiltScenario:
    """Stacked disks in the half-space against the grounded boundary.

    The negative plate carries boundary-plane cells only: for the Newtonian
    order the swept measure is supported by the boundary, and a plane-only
    carrier keeps every sweep interior-positive.
    """
    kernel = KernelSpec(3, 2.0)
    parts = []
    cap_chunks = []
    for k in range(1, disk_count + 1):
        ctr = np.array([1.0 / k, 0.0, 0.0])
        dn = disk_nodes(ctr, float(k), nodes_per_disk, axis=0, layer=k - 1)
        lam_k, _ = equilibrium_measure(dn, kernel, 1.0, tolerances=tolerances)
        parts.append(dn)
        cap_chunks.append(lam_k.weights / (k * k))
    stack = _concat_nodesets(parts)
    stack = trim_cell_radii(stack)
    cap1 = np.concatenate(cap_chunks)
    exterior = half_space_nodes(0.0, -1, truncation, plane_inner, axis=0,
                                growth=plane_growth, backing=False)
    plates = [
        Plate(id=0, sign=+1, nodes=stack, geometry_tag="disk",
              params={"center": (0.0, 0.0, 0.0), "radius": float(disk_count),
                      "axis": 0}),
        Plate(id=1, sign=-1, nodes=exterior, geometry_tag="half_space",
              params={"axis": 0, "level": 0.0, "side": -1},
              truncation=truncation),
    ]
    plates = trim_across_plates(plates)
    condenser = Condenser(tuple(plates))
    caps = Constraint((cap1, None))
    spec = ProblemSpec(condenser=condenser, totals=(1.0, 1.0),
                       field=ExternalField.zero(), constraint=caps,
                       kernel=kernel, tolerances=tolerances)
    green = GreenContext(plates[1].nodes, kernel)
    cap_total = float(sum(1.0 / (k * k) for k in range(1, disk_count + 1)))
    meta = {"disk_count": disk_count, "nodes_per_disk": nodes_per_disk,
            "plane_inner": plane_inner, "truncation": truncation,
            "alpha": 2.0, "nodes_positive": len(plates[0].nodes),
            "nodes_negative": len(plates[1].nodes)}
    return BuiltScenario(name="ex2", spec=spec, green=green,
                         cap_total=cap_total, meta=meta)


def sweep_plane_context(flat_radius: float = 8.0, cell: float = 0.33,
                        truncation: float = 30.0,
                        growth: float = 1.3) -> GreenContext:
    """Half-space boundary for the exhaustion sweeps: a uniform cell layout
    out to ``flat_radius`` (sources sit at height ~1 above it), graded rings
    beyond."""
    kernel = KernelSpec(3, 2.0)
    count = max(16, int(round(math.pi * flat_radius ** 2 / cell ** 2)))
    core = disk_nodes((0.0, 0.0, 0.0), flat_radius, count, axis=0, layer=0)
    tail = graded_plane_nodes((0.0, 0.0, 0.0), cell, truncation, axis=0,
                              growth=growth, layer=1, start=flat_radius)
    exterior = trim_cell_radii(_concat_nodesets([core, tail]))
    return GreenContext(exterior, kernel)
