"""Scenarios: the ``build_*`` functions turn each subcommand's config mapping
(for problems, the schema of ``scenarios/annotated_example.yaml``) into its
inputs, every number read by one rule; the built-in examples are configs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .balayage import GreenContext
from .errors import AlignmentError, ParseError
from .gauss_solver import ProblemSpec, check_sigma_domination
from .kernel import KernelSpec, equilibrium_measure
from .model import (PLATE_KEYS, RING_GROWTH, Condenser, DiscreteMeasure,
                    NodeSet, PlateSpec, _concat_nodesets, build_condenser,
                    disk_layer, disk_nodes, graded_plane_nodes, plate_nodes,
                    sphere_layer, surface_cells, trim_cell_radii)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass
class Scenario:
    """Fully validated scenario: everything a pipeline needs to run."""

    name: str
    spec: ProblemSpec
    green: GreenContext
    meta: dict


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ParseError(f"missing config key {key!r}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ParseError(f"config key {key!r} has wrong type "
                         f"{type(val).__name__}")
    return val


def _only_keys(cfg: dict, keys) -> None:
    """Refuse the keys of ``cfg`` outside ``keys``, naming both."""
    bad = set(cfg) - set(keys)
    if bad:
        raise ParseError(f"unknown keys {sorted(bad)}, not among "
                         f"{sorted(keys)}")


def _optional_mapping(cfg: dict, key: str) -> dict:
    val = cfg.get(key) or {}
    if not isinstance(val, dict):
        raise ParseError(f"config key {key!r} must be a mapping")
    return val


def _read_value(kind, raw, key: str):
    """A config value as ``kind``: int from an int only (never truncated),
    float from a number but neither a boolean nor a string, tuple of such
    floats from a list.  Raises ParseError for any other value."""
    if kind is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ParseError(f"{key} must be a list of numbers, got {raw!r}")
        return tuple(_read_value(float, x, f"{key} entry") for x in raw)
    if isinstance(raw, bool) or not (type(raw) is int if kind is int
                                     else isinstance(raw, numbers.Real)):
        what = "an int" if kind is int else "a number"
        raise ParseError(f"{key} must be {what}, got {raw!r}")
    return kind(raw)


def _positive_size(cfg: dict, key: str, default: float) -> float:
    """The config's ``key`` as a float, ``default`` when absent; it must be
    a finite number greater than zero."""
    raw = cfg.get(key, default)
    val = _read_value(float, raw, key)
    if not (math.isfinite(val) and val > 0.0):
        raise ParseError(f"config key {key!r} must be a finite number > 0, "
                         f"got {raw!r}")
    return val


def _tolerances_from(cfg: dict) -> Tolerances:
    """The default tolerance block with the config's overrides, each read
    as the type of its default; Tolerances checks their values."""
    overrides = _optional_mapping(cfg, "tolerances")
    _only_keys(overrides, Tolerances.__dataclass_fields__)
    try:
        return Tolerances(**{key: _read_value(
            type(getattr(DEFAULT_TOLERANCES, key)), val, key)
            for key, val in overrides.items()})
    except ValueError as exc:
        raise ParseError(f"invalid tolerances: {exc}") from None


def _kernel_from(cfg: dict) -> KernelSpec:
    kc = _require(cfg, "kernel", dict)
    try:
        _only_keys(kc, ("n", "alpha"))
        kernel = KernelSpec(_read_value(int, kc.get("n", 3), "n"),
                            _read_value(float, _require(kc, "alpha"), "alpha"))
    except (ValueError, ParseError) as exc:
        raise ParseError(f"invalid kernel spec: {exc}") from None
    if kernel.n != 3:
        raise ParseError(f"kernel n must be 3, the dimension every config "
                         f"geometry is laid out in, got {kernel.n}")
    return kernel


# the kind each plate key's config value is read as, by ``_read_value``
_PLATE_KEY_TYPES = {"center": tuple, "radius": float, "axis": int, "side": int,
                    "truncation": float, "stack_count": int, "count": int}


def _plate_specs_from(cfg: dict, truncation: float, alpha: float):
    """One PlateSpec per config plate, which takes the keys its geometry
    reads.  Half-spaces are backed exactly when alpha < 2: Newtonian sweeps
    are carried by the boundary."""
    specs = []
    for i, pc in enumerate(_require(cfg, "plates", list)):
        if not isinstance(pc, dict):
            raise ParseError(f"plate {i} must be a mapping")
        tag = _require(pc, "geometry", str)
        if tag not in PLATE_KEYS:
            raise ParseError(f"plate {i}: unknown geometry tag {tag!r}")
        keys = PLATE_KEYS[tag]
        try:
            _only_keys(pc, keys + ("geometry", "sign"))
            kw = {key: _read_value(_PLATE_KEY_TYPES[key], pc[key], key)
                  for key in keys if key in pc}
            if "truncation" in keys:
                kw.setdefault("truncation", truncation)
            sign = _read_value(int, _require(pc, "sign"), "sign")
            specs.append(PlateSpec(tag=tag, sign=sign, backing=alpha < 2.0,
                                   **kw))
        except (ValueError, ParseError) as exc:
            raise ParseError(f"plate {i}: {exc}") from None
    return specs


# the keys a constraint entry of each mode takes besides ``mode``
_CONSTRAINT_KEYS = {"unbounded": (), "explicit": ("weights",),
                    "scaled_capacitary": ("q",), "stacked_disks": ()}


def _constraint_from(cfg: dict, condenser: Condenser, kernel: KernelSpec,
                     tol: Tolerances) -> tuple:
    entries = _require(cfg, "constraint", list)
    if len(entries) != len(condenser.plates):
        raise ParseError("one constraint entry per plate required")
    caps = []
    for i, (ent, plate) in enumerate(zip(entries, condenser.plates)):
        if not isinstance(ent, dict):
            raise ParseError(f"constraint {i} must be a mapping")
        mode = _require(ent, "mode", str)
        if mode not in _CONSTRAINT_KEYS:
            raise ParseError(f"unknown constraint mode {mode!r}")
        try:
            _only_keys(ent, ("mode",) + _CONSTRAINT_KEYS[mode])
        except ParseError as exc:
            raise ParseError(f"constraint {i}: {exc}") from None
        if mode == "unbounded":
            caps.append(None)
        elif mode == "explicit":
            caps.append(_read_value(tuple, _require(ent, "weights"),
                                    f"constraint {i} weights"))
        elif mode == "scaled_capacitary":
            q = _read_value(float, _require(ent, "q"), f"constraint {i} q")
            lam, _ = equilibrium_measure(plate.nodes, kernel, 1.0,
                                         tolerances=tol)
            caps.append(q * lam.weights)
        else:  # stacked_disks
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
    return tuple(caps)


def _field_from(cfg: dict, condenser: Condenser):
    """Field values of a config, one array per plate, or None for no field.
    ``node_values`` entries are numbers or "inf" (a frozen node), and the
    negative plate's are zero; ``ProblemSpec`` checks the rest."""
    fc = _optional_mapping(cfg, "field")
    _only_keys(fc, ("case", "values"))
    case = fc.get("case", "zero")
    if case == "zero":
        return None
    if case != "node_values":
        raise ParseError(f"unsupported field case {case!r} in configs")
    vals = _require(fc, "values", list)
    if len(vals) != len(condenser.plates) or not all(
            isinstance(v, list) for v in vals):
        raise ParseError("field values must be one list per plate")
    arrays = tuple(np.array([math.inf if x == "inf" else
                             _read_value(float, x, "field value") for x in v])
                   for v in vals)
    if np.any(arrays[-1] != 0.0):
        raise ParseError("field values must vanish on the negative plate")
    return arrays


def _condenser_from(cfg: dict):
    """Kernel, condenser and top-level sizes of a config: the part that
    problem and balayage configs share."""
    kernel = _kernel_from(cfg)
    sizes = {"resolution": _positive_size(cfg, "resolution", 0.2),
             "truncation": _positive_size(cfg, "truncation", 16.0)}
    specs = _plate_specs_from(cfg, sizes["truncation"], kernel.alpha)
    try:
        condenser = build_condenser(specs, sizes["resolution"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return kernel, condenser, sizes


def build_scenario(cfg: dict) -> Scenario:
    """Validated Scenario from a parsed config mapping.  A capped negative
    plate must pass ``check_sigma_domination``."""
    _only_keys(cfg, ("name", "kernel", "resolution", "truncation", "plates",
                     "totals", "constraint", "field", "tolerances"))
    tol = _tolerances_from(cfg)
    kernel, condenser, sizes = _condenser_from(cfg)
    totals = _read_value(tuple, _require(cfg, "totals"), "totals")
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
    """Source measure, GreenContext of the exterior plate and truncation
    radius of a balayage config: one negative plate and a ``source``."""
    _only_keys(cfg, ("kernel", "resolution", "truncation", "plates",
                     "source"))
    kernel, condenser, sizes = _condenser_from(cfg)
    if len(condenser.plates) != 1 or condenser.plates[0].sign != -1:
        raise ParseError("balayage config needs exactly one negative plate")
    src = _require(cfg, "source", dict)
    _only_keys(src, ("positions", "weights", "cell_radius"))
    pos = [_read_value(tuple, x, "source position")
           for x in _require(src, "positions", list)]
    wts = np.array(_read_value(tuple, _require(src, "weights"),
                               "source weights"))
    if not pos or len(pos) != len(wts):
        raise ParseError("source positions/weights misaligned")
    if any(len(x) != condenser.dim for x in pos):
        raise ParseError(f"source positions must have {condenser.dim} "
                         f"coordinates")
    if not (np.all(np.isfinite(wts)) and np.all(wts >= 0)):
        raise ParseError("source weights must be finite and >= 0")
    radius = _positive_size(src, "cell_radius", sizes["resolution"] / 4.0)
    mu = DiscreteMeasure(NodeSet(np.array(pos), np.ones(len(wts)),
                                 np.full(len(wts), radius)), wts)
    return (mu, GreenContext(condenser.plates[0].nodes, kernel),
            sizes["truncation"])


def build_capacity(cfg: dict):
    """Geometry tag, nodes, kernel, total mass and tolerances of a capacity
    config: its ``conductor`` (a sphere, ball or disk) laid out at the
    config's resolution."""
    _only_keys(cfg, ("kernel", "tolerances", "resolution", "conductor"))
    kernel = _kernel_from(cfg)
    tol = _tolerances_from(cfg)
    resolution = _positive_size(cfg, "resolution", 0.1)
    gc = _require(cfg, "conductor", dict)
    tag = _require(gc, "geometry", str)
    if tag not in ("sphere", "ball", "disk"):
        raise ParseError(f"unsupported conductor geometry {tag!r}")
    try:
        _only_keys(gc, ("geometry", "center", "radius", "axis", "total"))
        # a sphere conductor is the boundary of the ball it describes
        spec = PlateSpec("disk" if tag == "disk" else "ball", +1,
                         center=_read_value(tuple, gc.get("center", (0.0,) * 3),
                                            "center"),
                         radius=_positive_size(gc, "radius", 1.0),
                         axis=_read_value(int, gc.get("axis", 0), "axis"))
    except (ValueError, ParseError) as exc:
        raise ParseError(f"conductor: {exc}") from None
    nodes = sphere_layer(spec.center, spec.radius, resolution) \
        if tag == "sphere" else plate_nodes(spec, resolution)
    return tag, nodes, kernel, _positive_size(gc, "total", 1.0), tol


def build_sweep(cfg: dict):
    """Mode, stages, plane context, field measure zeta and tolerances of a
    sweep config.  Stage l is (l, a disk of radius l at height 1 above the
    plane, 220 nodes); zeta, in capped mode only, is the equilibrium measure
    of mass 0.5 on a disk of radius 0.5 at that height, 80 nodes."""
    _only_keys(cfg, ("tolerances", "mode", "stages", "flat_radius", "cell",
                     "truncation"))
    tol = _tolerances_from(cfg)
    mode = cfg.get("mode", "uncapped")
    if mode not in ("uncapped", "capped"):
        raise ParseError(f"sweep mode {mode!r} is not uncapped or capped")
    stages = cfg.get("stages", [1, 2, 3, 4, 5, 6])
    if not (isinstance(stages, list) and len(stages) >= 2 and all(
            type(s) is int and s >= 1 for s in stages) and all(
            a < b for a, b in zip(stages, stages[1:]))):
        raise ParseError("sweep stages must be a list of at least two "
                         "strictly increasing ints >= 1")
    green = sweep_plane_context(
        flat_radius=_positive_size(cfg, "flat_radius", 8.0),
        cell=_positive_size(cfg, "cell", 0.33),
        truncation=_positive_size(cfg, "truncation", 30.0))
    center = (1.0, 0.0, 0.0)   # disks normal to x1, at height 1
    zeta = None
    if mode == "capped":
        zeta, _ = equilibrium_measure(disk_nodes(center, 0.5, 80, axis=0),
                                      green.riesz, 0.5, tolerances=tol)
    disks = [(ell, disk_nodes(center, float(ell), 220, axis=0))
             for ell in stages]
    return mode, disks, green, zeta, tol


# ---------------------------------------------------------------------------
# built-in examples: config mappings for build_scenario
# ---------------------------------------------------------------------------

def _ball_config(name, alpha, inner, resolution, q, truncation) -> dict:
    """A ball of radius ``inner`` capped by q x its equilibrium measure,
    against the complement of the concentric unit ball."""
    return {
        "name": name, "kernel": {"n": 3, "alpha": alpha},
        "resolution": resolution, "truncation": truncation,
        "plates": [{"geometry": "ball", "sign": 1, "radius": inner},
                   {"geometry": "ball_complement", "sign": -1,
                    "radius": 1.0}],
        "totals": [1.0, 1.0],
        "constraint": [{"mode": "scaled_capacitary", "q": q},
                       {"mode": "unbounded"}],
    }


def ex1_config(resolution: float = 0.18, alpha: float = 1.5, q: float = 1.5,
               truncation: float = 16.0) -> dict:
    """Example one: positive plate = the solid unit ball D, negative plate =
    its complement, cap = q x (discrete equilibrium measure of the ball),
    alpha < 2."""
    return _ball_config("ex1", alpha, 1.0, resolution, q, truncation)


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


def ball_in_ball(alpha: float = 2.0, inner: float = 0.62,
                 resolution: float = 0.16, q: float = 1.5,
                 truncation: float = 16.0) -> Scenario:
    """A ball of radius ``inner`` < 1 against the complement of the unit
    ball; the clean instance for support-structure checks (no touching
    plates)."""
    return build_scenario(_ball_config("ball-in-ball", alpha, inner,
                                       resolution, q, truncation))


def sweep_plane_context(flat_radius: float, cell: float,
                        truncation: float) -> GreenContext:
    """Half-space boundary for the exhaustion sweeps: a uniform cell layout
    out to ``flat_radius`` (sources sit at height ~1 above it), rings graded
    like a half-space plate's beyond."""
    kernel = KernelSpec(3, 2.0)
    core = disk_layer((0.0, 0.0, 0.0), flat_radius, cell, axis=0, layer=0)
    tail = graded_plane_nodes((0.0, 0.0, 0.0), cell, truncation, axis=0,
                              growth=RING_GROWTH, layer=1, start=flat_radius)
    exterior = trim_cell_radii(_concat_nodesets([core, tail]))
    return GreenContext(exterior, kernel)
