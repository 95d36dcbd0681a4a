"""The one path from a scenario description to a ProblemSpec: the built-in
examples are config mappings for ``build_scenario``."""

import os
from dataclasses import fields

import numpy as np
import pytest
import yaml

from condenser.cli import main
from condenser.errors import ParseError
from condenser.kernel import KernelSpec, equilibrium_measure
from condenser.model import PLATE_KEYS, PlateSpec, disk_nodes
from condenser.scenarios import (_PLATE_KEY_TYPES, EXAMPLES, build_balayage,
                                 build_capacity, build_scenario, build_sweep,
                                 example_two, ex2_config, sweep_plane_context)
from condenser.tolerances import Tolerances

# small sizes per built-in example: --resolution and --truncation
TOY_FLAGS = {"ex1": ["--resolution", "0.5", "--truncation", "3"],
             "ex2": ["--resolution", "0.3", "--truncation", "12"]}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_is_verify_on_its_config(tmp_path, name):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(EXAMPLES[name]()))
    via_example = str(tmp_path / "example")
    via_verify = str(tmp_path / "verify")
    flags = TOY_FLAGS[name]
    assert main(["--out-dir", via_example] + flags + ["example", name]) == 0
    assert main(["--out-dir", via_verify] + flags + ["verify", str(path)]) == 0
    for out in ("atoms.csv", "trace.csv"):
        with open(os.path.join(via_example, out), "rb") as fa, \
                open(os.path.join(via_verify, out), "rb") as fb:
            assert fa.read() == fb.read(), out


def test_stacked_disk_caps_use_each_disk_alone():
    # lambda_k is the equilibrium measure of disk k on its own untrimmed
    # cells, not on cells trimmed against the other disks and the plane
    npd = 40
    sc = example_two(nodes_per_disk=npd, plane_inner=0.3, truncation=12.0)
    plate = sc.spec.condenser.plates[0]
    cap = sc.spec.constraint[0]
    kernel = KernelSpec(3, 2.0)
    for k in range(1, 5):
        disk = disk_nodes((1.0 / k, 0.0, 0.0), float(k), npd, axis=0,
                          layer=k - 1)
        sel = plate.nodes.layer_index == k - 1
        np.testing.assert_array_equal(plate.nodes.positions[sel],
                                      disk.positions)
        lam, _ = equilibrium_measure(disk, kernel, 1.0)
        np.testing.assert_allclose(cap[sel], lam.weights / k ** 2,
                                   rtol=1e-12, atol=0.0)


def test_count_is_honoured():
    # every disk of the stack gets `count` nodes, whatever its area
    sc = build_scenario(ex2_config(disk_count=2, nodes_per_disk=30,
                                   plane_inner=0.4, truncation=10.0))
    disks = sc.spec.condenser.plates[0]
    assert np.bincount(disks.nodes.layer_index).tolist() == [30, 30]


@pytest.mark.parametrize("plate", [
    {"geometry": "ball", "sign": 1, "radius": 1.0, "count": 30},
    {"geometry": "disk", "sign": 1, "radius": 1.0, "count": 0},
])
def test_count_off_a_disk_or_below_one_is_rejected(plate):
    cfg = ex2_config()
    cfg["plates"] = [plate, cfg["plates"][1]]
    with pytest.raises(ParseError):
        build_scenario(cfg)


def test_plate_key_table_matches_plate_spec():
    # every key a geometry reads is a PlateSpec field, and every field but
    # the tag, the sign and the alpha-decided backing is read by some
    # geometry and has a config type
    read = {key for keys in PLATE_KEYS.values() for key in keys}
    settable = {f.name for f in fields(PlateSpec)} - {"tag", "sign", "backing"}
    assert read == settable
    assert set(_PLATE_KEY_TYPES) == settable


def test_sweep_plane_core_counts_by_disk_layer():
    # the uniform core follows the disk cell-count rule, at least 12 cells
    ctx = sweep_plane_context(flat_radius=1.0, cell=0.5, truncation=4.0)
    assert int(np.sum(ctx.exterior.layer_index == 0)) == 13
    ctx = sweep_plane_context(flat_radius=0.5, cell=0.5, truncation=4.0)
    assert int(np.sum(ctx.exterior.layer_index == 0)) == 12


@pytest.mark.parametrize("build, cfg, key", [
    (build_scenario, ex2_config(), "seed"),
    (build_scenario, ex2_config(), "source"),
    (build_balayage, {"kernel": {"n": 3, "alpha": 2.0},
                      "plates": [{"geometry": "half_space", "sign": -1}],
                      "source": {"positions": [[1.0, 0, 0]],
                                 "weights": [1.0]}}, "tolerances"),
    (build_capacity, {"kernel": {"n": 3, "alpha": 2.0},
                      "conductor": {"geometry": "sphere"}}, "truncation"),
    (build_sweep, {"stages": [1, 2]}, "resolution"),
    (build_sweep, {"stages": [1, 2]}, "kernel"),
])
def test_builders_refuse_top_level_keys_they_do_not_read(build, cfg, key):
    # each builder reads its own key set; any other key is named in the
    # error, never dropped
    with pytest.raises(ParseError, match=f"'{key}'"):
        build(dict(cfg, **{key: {}}))


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"kkt": float("nan")},
                                 {"potential": 0.0}],
                         ids=["max-iters-zero", "kkt-nan", "potential-zero"])
def test_tolerances_refuse_bad_values(bad):
    # the block checks itself, so a caller that builds it directly gets
    # the same refusal as a config
    with pytest.raises(ValueError):
        Tolerances(**bad)
