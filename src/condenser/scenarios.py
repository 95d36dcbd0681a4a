"""Scenarios: ``build_scenario`` turns a config mapping (the schema of
``scenarios/annotated_example.yaml``) into a validated problem, and the
built-in examples are config mappings for it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balayage import GreenContext
from .errors import AlignmentError, ParseError
from .gauss_solver import ProblemSpec, check_sigma_domination
from .kernel import KernelSpec, equilibrium_measure
from .model import (PLATE_KEYS, RING_GROWTH, Condenser, DiscreteMeasure,
                    NodeSet, PlateSpec, _concat_nodesets, build_condenser,
                    disk_nodes, graded_plane_nodes, surface_cells,
                    trim_cell_radii)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass
class Scenario:
    """Fully validated scenario: everything a pipeline needs to run."""

    name: str
    spec: ProblemSpec
    green: GreenContext
    meta: dict


def require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ParseError(f"missing config key {key!r}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ParseError(f"config key {key!r} has wrong type "
                         f"{type(val).__name__}")
    return val


def optional_mapping(cfg: dict, key: str) -> dict:
    val = cfg.get(key) or {}
    if not isinstance(val, dict):
        raise ParseError(f"config key {key!r} must be a mapping")
    return val


def read_value(kind, raw, key: str):
    """A config value as ``kind``: int from an int only (never truncated),
    float from a number but not a boolean, tuple of such floats."""
    if kind is tuple:
        return tuple(read_value(float, x, f"{key} coordinate") for x in raw)
    if isinstance(raw, bool) or (kind is int and type(raw) is not int):
        what = "an int" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {raw!r}")
    return kind(raw)


def positive_size(cfg: dict, key: str, default: float) -> float:
    """The config's ``key`` as a float, ``default`` when absent; it must be
    a finite number greater than zero, and not a boolean."""
    raw = cfg.get(key, default)
    try:
        val = read_value(float, raw, key)
    except (ValueError, TypeError):
        val = math.nan
    if not (math.isfinite(val) and val > 0.0):
        raise ParseError(f"config key {key!r} must be a finite number > 0, "
                         f"got {raw!r}")
    return val


def tolerances_from(cfg: dict) -> Tolerances:
    """The default tolerance block with the config's overrides: ``kkt`` and
    ``potential`` finite numbers > 0, ``max_iters`` an int >= 1."""
    overrides = optional_mapping(cfg, "tolerances")
    bad = set(overrides) - set(Tolerances.__dataclass_fields__)
    if bad:
        raise ParseError(f"unknown tolerance keys {sorted(bad)}")
    iters = overrides.get("max_iters", DEFAULT_TOLERANCES.max_iters)
    if type(iters) is not int or iters < 1:
        raise ParseError(f"tolerance max_iters must be an int >= 1, "
                         f"got {iters!r}")
    return Tolerances(
        kkt=positive_size(overrides, "kkt", DEFAULT_TOLERANCES.kkt),
        potential=positive_size(overrides, "potential",
                                DEFAULT_TOLERANCES.potential),
        max_iters=iters)


def kernel_from(cfg: dict) -> KernelSpec:
    kc = require(cfg, "kernel", dict)
    try:
        kernel = KernelSpec(read_value(int, kc.get("n", 3), "n"),
                            read_value(float, require(kc, "alpha"), "alpha"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"invalid kernel spec: {exc}") from None
    if kernel.n != 3:
        raise ParseError(f"kernel n must be 3, the dimension every config "
                         f"geometry is laid out in, got {kernel.n}")
    return kernel


# the kind each plate key's config value is read as, by ``read_value``
_PLATE_KEY_TYPES = {"center": tuple, "radius": float, "axis": int, "side": int,
                    "truncation": float, "stack_count": int, "count": int}


def _plate_specs_from(cfg: dict, truncation: float, alpha: float):
    """One PlateSpec per config plate, which takes the keys its geometry
    reads.  Half-spaces are backed exactly when alpha < 2: Newtonian sweeps
    are carried by the boundary."""
    specs = []
    for i, pc in enumerate(require(cfg, "plates", list)):
        if not isinstance(pc, dict):
            raise ParseError(f"plate {i} must be a mapping")
        tag = require(pc, "geometry", str)
        if tag not in PLATE_KEYS:
            raise ParseError(f"plate {i}: unknown geometry tag {tag!r}")
        keys = PLATE_KEYS[tag]
        bad = set(pc) - set(keys) - {"geometry", "sign"}
        if bad:
            raise ParseError(f"plate {i}: {tag} plates take no keys "
                             f"{sorted(bad)}")
        try:
            kw = {key: read_value(_PLATE_KEY_TYPES[key], pc[key], key)
                  for key in keys if key in pc}
            if "truncation" in keys:
                kw.setdefault("truncation", truncation)
            sign = read_value(int, require(pc, "sign"), "sign")
            specs.append(PlateSpec(tag=tag, sign=sign, backing=alpha < 2.0,
                                   **kw))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"plate {i}: {exc}") from None
    return specs


def _constraint_from(cfg: dict, condenser: Condenser, kernel: KernelSpec,
                     tol: Tolerances) -> tuple:
    entries = require(cfg, "constraint", list)
    if len(entries) != len(condenser.plates):
        raise ParseError("one constraint entry per plate required")
    caps = []
    for i, (ent, plate) in enumerate(zip(entries, condenser.plates)):
        if not isinstance(ent, dict):
            raise ParseError(f"constraint {i} must be a mapping")
        mode = require(ent, "mode", str)
        if mode == "unbounded":
            caps.append(None)
        elif mode == "explicit":
            caps.append(require(ent, "weights", list))
        elif mode == "scaled_capacitary":
            try:
                q = float(require(ent, "q"))
            except (ValueError, TypeError):
                raise ParseError(f"constraint {i}: non-numeric q") from None
            lam, _ = equilibrium_measure(plate.nodes, kernel, 1.0,
                                         tolerances=tol)
            caps.append(q * lam.weights)
        elif mode == "stacked_disks":
            if plate.spec.tag != "disk":
                raise ParseError(f"constraint {i}: stacked_disks needs a disk "
                                 f"plate, not {plate.spec.tag!r}")
            layers = plate.nodes.layer_index
            cap = np.zeros(len(plate.nodes))
            for k in range(1, int(layers.max()) + 2):
                sel = np.flatnonzero(layers == k - 1)
                # lambda_k is the equilibrium measure of disk k alone, on its
                # own cells, untrimmed against the other disks and plates
                disk = surface_cells(plate.nodes.positions[sel],
                                     plate.nodes.quad_weights[sel], k - 1)
                lam, _ = equilibrium_measure(disk, kernel, 1.0,
                                             tolerances=tol)
                cap[sel] = lam.weights / (k * k)
            caps.append(cap)
        else:
            raise ParseError(f"unknown constraint mode {mode!r}")
    return tuple(caps)


def _field_from(cfg: dict, condenser: Condenser):
    """Field values of a config, one array per plate, or None for no field.
    ``node_values`` entries are numbers or "inf" (a frozen node), and the
    negative plate's are zero; ``ProblemSpec`` checks the rest."""
    fc = optional_mapping(cfg, "field")
    case = fc.get("case", "zero")
    if case == "zero":
        return None
    if case != "node_values":
        raise ParseError(f"unsupported field case {case!r} in configs")
    vals = require(fc, "values", list)
    if len(vals) != len(condenser.plates):
        raise ParseError("one field value array per plate required")
    try:
        arrays = tuple(np.asarray([math.inf if x == "inf" else float(x)
                                   for x in v], dtype=float) for v in vals)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"field values: {exc}") from None
    if np.any(arrays[-1] != 0.0):
        raise ParseError("field values must vanish on the negative plate")
    return arrays


def _condenser_from(cfg: dict):
    """Kernel, tolerances, condenser and top-level sizes of a config: the
    part that problem and balayage configs share."""
    tol = tolerances_from(cfg)
    kernel = kernel_from(cfg)
    sizes = {"resolution": positive_size(cfg, "resolution", 0.2),
             "truncation": positive_size(cfg, "truncation", 16.0)}
    specs = _plate_specs_from(cfg, sizes["truncation"], kernel.alpha)
    try:
        condenser = build_condenser(specs, sizes["resolution"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return kernel, tol, condenser, sizes


def build_scenario(cfg: dict) -> Scenario:
    """Validated Scenario from a parsed config mapping.  A capped negative
    plate must pass ``check_sigma_domination``."""
    kernel, tol, condenser, sizes = _condenser_from(cfg)
    totals = require(cfg, "totals", list)
    constraint = _constraint_from(cfg, condenser, kernel, tol)
    field = _field_from(cfg, condenser)
    try:
        spec = ProblemSpec(condenser=condenser, totals=totals, field=field,
                           constraint=constraint, kernel=kernel, tolerances=tol)
    except (ValueError, TypeError, AlignmentError) as exc:
        raise ParseError(str(exc)) from None
    green = GreenContext(condenser.plates[-1].nodes, kernel)
    check_sigma_domination(spec, green)
    return Scenario(name=str(cfg.get("name", "scenario")), spec=spec,
                    green=green, meta=sizes)


def build_balayage(cfg: dict):
    """Source measure, exterior nodes, kernel and truncation radius of a
    balayage config: one negative plate and a ``source`` block."""
    kernel, _, condenser, sizes = _condenser_from(cfg)
    if len(condenser.plates) != 1 or condenser.plates[0].sign != -1:
        raise ParseError("balayage config needs exactly one negative plate")
    src = require(cfg, "source", dict)
    try:
        pos = np.asarray(require(src, "positions", list), dtype=float)
        wts = np.asarray(require(src, "weights", list), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"source: {exc}") from None
    if pos.ndim != 2 or pos.shape[0] != wts.shape[0]:
        raise ParseError("source positions/weights misaligned")
    if pos.shape[1] != condenser.dim:
        raise ParseError(f"source positions must have {condenser.dim} "
                         f"coordinates, got {pos.shape[1]}")
    if not (np.all(np.isfinite(wts)) and np.all(wts >= 0)):
        raise ParseError("source weights must be finite and >= 0")
    radius = positive_size(src, "cell_radius", sizes["resolution"] / 4.0)
    mu = DiscreteMeasure(NodeSet(pos, np.ones(len(wts)),
                                 np.full(len(wts), radius)), wts)
    return mu, condenser.plates[0].nodes, kernel, sizes["truncation"]


# ---------------------------------------------------------------------------
# built-in examples: config mappings for build_scenario
# ---------------------------------------------------------------------------

def _ball_config(name, alpha, inner, radius, resolution, q,
                 truncation) -> dict:
    """A ball of radius ``inner`` capped by q x its equilibrium measure,
    against the complement of the concentric ball of radius ``radius``."""
    return {
        "name": name, "kernel": {"n": 3, "alpha": alpha},
        "resolution": resolution, "truncation": truncation,
        "plates": [{"geometry": "ball", "sign": 1, "radius": inner},
                   {"geometry": "ball_complement", "sign": -1,
                    "radius": radius}],
        "totals": [1.0, 1.0],
        "constraint": [{"mode": "scaled_capacitary", "q": q},
                       {"mode": "unbounded"}],
    }


def ex1_config(resolution: float = 0.18, radius: float = 1.0,
               alpha: float = 1.5, q: float = 1.5,
               truncation: float = 16.0) -> dict:
    """Example one: positive plate = solid ball D, negative plate = its
    complement, cap = q x (discrete equilibrium measure of the ball),
    alpha < 2."""
    return _ball_config("ex1", alpha, radius, radius, resolution, q,
                        truncation)


def ex2_config(disk_count: int = 4, nodes_per_disk: int = 240,
               plane_inner: float = 0.08, truncation: float = 48.0) -> dict:
    """Example two: positive plate = a stack of disks of radius k at height
    1/k, ``nodes_per_disk`` nodes each; negative plate = the boundary plane
    of the half-space x1 <= 0 (for the Newtonian order the swept measure is
    supported by the boundary), ``plane_inner`` its inner cell size and the
    resolution; cap = sum k^-2 lambda_k with lambda_k the disk equilibrium
    measures; alpha = 2."""
    return {
        "name": "ex2", "kernel": {"n": 3, "alpha": 2.0},
        "resolution": plane_inner, "truncation": truncation,
        "plates": [{"geometry": "disk", "sign": 1, "radius": 1.0,
                    "stack_count": disk_count, "count": nodes_per_disk},
                   {"geometry": "half_space", "sign": -1}],
        "totals": [1.0, 1.0],
        "constraint": [{"mode": "stacked_disks"}, {"mode": "unbounded"}],
    }


# the built-ins of `condenser example`: name -> config with default sizes
EXAMPLES = {"ex1": ex1_config, "ex2": ex2_config}


def example_one(**kwargs) -> Scenario:
    """Example one; keyword arguments as for ``ex1_config``."""
    return build_scenario(ex1_config(**kwargs))


def example_two(**kwargs) -> Scenario:
    """Example two; keyword arguments as for ``ex2_config``."""
    return build_scenario(ex2_config(**kwargs))


def ball_in_ball(alpha: float = 2.0, inner: float = 0.62, radius: float = 1.0,
                 resolution: float = 0.16, q: float = 1.5,
                 truncation: float = 16.0) -> Scenario:
    """A strictly interior ball against the complement of a larger ball;
    the clean instance for support-structure checks (no touching plates)."""
    return build_scenario(_ball_config("ball-in-ball", alpha, inner, radius,
                                       resolution, q, truncation))


def sweep_plane_context(flat_radius: float, cell: float,
                        truncation: float) -> GreenContext:
    """Half-space boundary for the exhaustion sweeps: a uniform cell layout
    out to ``flat_radius`` (sources sit at height ~1 above it), rings graded
    like a half-space plate's beyond."""
    kernel = KernelSpec(3, 2.0)
    count = max(16, int(round(math.pi * flat_radius ** 2 / cell ** 2)))
    core = disk_nodes((0.0, 0.0, 0.0), flat_radius, count, axis=0, layer=0)
    tail = graded_plane_nodes((0.0, 0.0, 0.0), cell, truncation, axis=0,
                              growth=RING_GROWTH, layer=1, start=flat_radius)
    exterior = trim_cell_radii(_concat_nodesets([core, tail]))
    return GreenContext(exterior, kernel)
