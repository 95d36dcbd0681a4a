import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import condenser.cli
import condenser.verify
from condenser.cli import main
from condenser.errors import WrongScenarioError
from condenser.kernel import equilibrium_measure
from condenser.model import (NodeSet, ball_complement_nodes,
                             ball_volume_nodes, sphere_layer)
from condenser.gauss_solver import solve_riesz, swept_positive_caps
from condenser.scenarios import build_scenario

BALL_CONFIG = {
    "name": "ball-test",
    "kernel": {"n": 3, "alpha": 1.5},
    "resolution": 0.25,
    "truncation": 10.0,
    "plates": [
        {"geometry": "ball", "sign": 1, "center": [0, 0, 0], "radius": 1.0},
        {"geometry": "ball_complement", "sign": -1, "center": [0, 0, 0],
         "radius": 1.0},
    ],
    "totals": [1.0, 1.0],
    "constraint": [{"mode": "scaled_capacitary", "q": 1.5},
                   {"mode": "unbounded"}],
    "field": {"case": "zero"},
}

# the ball config at toy sizes
TOY_BALL = dict(BALL_CONFIG, resolution=0.5, truncation=3.0)
TOY_BALL_NODES = len(ball_volume_nodes((0, 0, 0), 1.0, 0.5))

BALAYAGE_CONFIG = {
    "kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.25, "truncation": 8.0,
    "plates": [{"geometry": "ball_complement", "sign": -1,
                "center": [0, 0, 0], "radius": 1.0}],
    "source": {"positions": [[0.0, 0.0, 0.0]], "weights": [1.0]},
}

# a disk above the half-space x1 <= 0 at toy sizes
TOY_DISK_HALF_SPACE = {
    "kernel": {"n": 3, "alpha": 2.0},
    "resolution": 0.2,
    "truncation": 6.0,
    "plates": [
        {"geometry": "disk", "sign": 1, "center": [1.0, 0, 0],
         "radius": 0.5},
        {"geometry": "half_space", "sign": -1},
    ],
    "totals": [1.0, 1.0],
    "constraint": [{"mode": "unbounded"}, {"mode": "unbounded"}],
}

# a small exhaustion-sweep boundary
SWEEP_SIZES = {"flat_radius": 2.0, "cell": 0.5, "truncation": 6.0}


# a capped ball strictly inside a ball complement at toy sizes (33 + 888
# nodes)
TOY_BALL_IN_BALL = {
    "kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3, "truncation": 3.0,
    "plates": [{"geometry": "ball", "sign": 1, "radius": 0.62},
               {"geometry": "ball_complement", "sign": -1, "radius": 1.0}],
    "totals": [1.0, 1.0],
    "constraint": [{"mode": "scaled_capacitary", "q": 1.5},
                   {"mode": "unbounded"}],
}


@pytest.fixture(scope="module")
def toy_swept_cap():
    """Sweep of TOY_BALL_IN_BALL's positive cap onto its negative plate."""
    sc = build_scenario(TOY_BALL_IN_BALL)
    return swept_positive_caps(sc.spec, sc.green)


def sigma_config(sigma):
    """TOY_BALL_IN_BALL with the explicit negative-plate cap ``sigma``."""
    return dict(TOY_BALL_IN_BALL, constraint=[
        TOY_BALL_IN_BALL["constraint"][0],
        {"mode": "explicit", "weights": [float(x) for x in sigma]}])


# a config that write_config leaves unwritten: its path names no file
NO_FILE = object()


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    if cfg is not NO_FILE:
        path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.txt")) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if " = " in ln]
    return dict(ln.split(" = ", 1) for ln in lines)


def assert_numerics_finite_or_inf(rep):
    """Report contract: every numeric value is finite or the token inf."""
    for key, val in rep.items():
        try:
            num = float(val)
        except ValueError:
            continue
        assert math.isfinite(num) or val in ("inf", "-inf"), (key, val)


def assert_no_seed_sentinels(rep):
    """A report prints no seed key and no -1.0 placeholder."""
    assert not [key for key in rep if key.endswith(".seed")]
    assert "-1.0" not in rep.values()


class TestSolveCommand:
    def test_solve_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG)
        out = str(tmp_path / "out")
        rc = main(["--out-dir", out, "solve", cfg])
        assert rc == 0
        rep = read_report(out)
        assert rep["schema_version"] == "6"
        assert rep["solver.converged"] == "True"
        assert int(rep["solver.matvecs"]) >= 1
        assert rep["solver.shared_nodes"] == "0"
        assert "solver.finish" not in rep and "solver.pivot_rounds" not in rep
        assert float(rep["solver.energy"]) > 0
        with open(os.path.join(out, "atoms.csv")) as fh:
            header = fh.readline().strip()
        assert header == "plate,x1,x2,x3,weight,cap"
        with open(os.path.join(out, "trace.csv")) as fh:
            header = fh.readline().strip()
        assert header == "iter,objective,kkt_residual"

    def test_report_numerics_finite_or_inf_token(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "solve", cfg]) == 0
        assert_numerics_finite_or_inf(read_report(out))

    def test_report_counts_shared_nodes(self, tmp_path):
        # two positive plates on the same nodes share every one of them;
        # pivoting alone ends their solves, and the lift repeats the count
        shared = dict(TOY_BALL, totals=[0.5, 0.5, 1.0],
                      plates=[BALL_CONFIG["plates"][0]] + BALL_CONFIG["plates"],
                      constraint=[{"mode": "unbounded"}] * 3)
        path = write_config(tmp_path, shared)
        for command, sections in (("solve", ("solver",)),
                                  ("solve-green", ("green", "lifted"))):
            out = str(tmp_path / command)
            assert main(["--out-dir", out, command, path]) == 0
            rep = read_report(out)
            for name in sections:
                assert rep[f"{name}.shared_nodes"] == str(TOY_BALL_NODES)
                assert float(rep[f"{name}.kkt_residual"]) <= 1e-10

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG)
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert main(["--out-dir", out, "solve", cfg]) == 0
            outs.append(out)
        for name in ("report.txt", "atoms.csv", "trace.csv"):
            with open(os.path.join(outs[0], name), "rb") as fa, \
                    open(os.path.join(outs[1], name), "rb") as fb:
                assert fa.read() == fb.read()


def node_value_config():
    """Toy ball/complement config whose field is given per node, with an
    "inf" (frozen) first node of the ball."""
    cfg = {
        "kernel": {"n": 3, "alpha": 2.0},
        "resolution": 0.5,
        "truncation": 6.0,
        "plates": [
            {"geometry": "ball", "sign": 1, "radius": 1.0},
            {"geometry": "ball_complement", "sign": -1, "radius": 1.0},
        ],
        "totals": [1.0, 1.0],
        "constraint": [{"mode": "unbounded"}, {"mode": "unbounded"}],
    }
    from condenser.model import ball_volume_nodes
    n0 = len(ball_volume_nodes((0, 0, 0), 1.0, 0.5))
    vals = [0.0] * n0
    vals[0] = "inf"
    # negative-plate values must be zero; count its nodes via a dry build
    from condenser.model import ball_complement_nodes
    n1 = len(ball_complement_nodes((0, 0, 0), 1.0, 6.0, 0.5))
    cfg["field"] = {"case": "node_values", "values": [vals, [0.0] * n1]}
    return cfg


def bad_field(plate, value, node=1):
    """node_value_config with one entry of one plate's values replaced, or
    the plate's whole entry with ``node=None``."""
    cfg = node_value_config()
    vals = cfg["field"]["values"]
    if node is None:
        vals[plate] = value
    else:
        vals[plate][node] = value
    return cfg


def with_plate_keys(cfg, plate, **keys):
    """``cfg`` with ``keys`` added to one of its plates."""
    plates = list(cfg["plates"])
    plates[plate] = dict(plates[plate], **keys)
    return dict(cfg, plates=plates)


class TestErrorPaths:
    def test_malformed_config_exit_2_no_outputs(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("plates: [unterminated")
        out = str(tmp_path / "out")
        rc = main(["--out-dir", out, "solve", str(path)])
        assert rc == 2
        assert not os.path.exists(os.path.join(out, "report.txt"))
        err = capsys.readouterr().err
        assert err.startswith("ERROR Parse")

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # a run is a function of its config: there is no seed to set
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "5", "--out-dir", out, "example", "ex1"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_key_exit_2(self, tmp_path):
        cfg = dict(BALL_CONFIG)
        del cfg["totals"]
        path = write_config(tmp_path, cfg)
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2

    def test_infeasible_exit_3(self, tmp_path, capsys):
        cfg = dict(BALL_CONFIG)
        cfg["constraint"] = [{"mode": "scaled_capacitary", "q": 0.5},
                             {"mode": "unbounded"}]
        path = write_config(tmp_path, cfg)
        rc = main(["--out-dir", str(tmp_path / "o"), "solve", path])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ERROR")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_undominated_negative_cap_exit_3(self, tmp_path, capsys,
                                             toy_swept_cap, command):
        # 1.3 x the swept positive cap, but 0.1 x its peak at the peak node
        sigma = 1.3 * toy_swept_cap
        sigma[np.argmax(toy_swept_cap)] = 0.1 * toy_swept_cap.max()
        path = write_config(tmp_path, sigma_config(sigma))
        out = str(tmp_path / "o")
        assert main(["--out-dir", out, command, path]) == 3
        assert capsys.readouterr().err.startswith("ERROR SigmaDomination")
        assert not os.path.exists(os.path.join(out, "report.txt"))

    def test_dominating_negative_cap_exit_0(self, tmp_path, toy_swept_cap):
        path = write_config(tmp_path, sigma_config(1.3 * toy_swept_cap))
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 0

    def test_repeated_plate_node_exit_5(self, tmp_path, monkeypatch, capsys):
        from condenser import model
        layout = model.ball_volume_nodes

        def with_repeated_node(*args, **kwargs):
            ns = layout(*args, **kwargs)
            idx = np.r_[np.arange(len(ns)), 0]
            return NodeSet(ns.positions[idx], ns.quad_weights[idx],
                           ns.cell_radii[idx])

        monkeypatch.setattr(model, "ball_volume_nodes", with_repeated_node)
        cfg = dict(BALL_CONFIG)
        cfg["constraint"] = [{"mode": "unbounded"}, {"mode": "unbounded"}]
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o")
        assert main(["--out-dir", out, "solve", path]) == 5
        assert capsys.readouterr().err.startswith("ERROR DuplicateNode")
        assert not os.path.exists(os.path.join(out, "report.txt"))

    def test_field_not_a_mapping_exit_2(self, tmp_path, capsys):
        cfg = dict(BALL_CONFIG, field="zero")
        path = write_config(tmp_path, cfg)
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    def test_tolerances_not_a_mapping_exit_2(self, tmp_path, capsys):
        cfg = dict(BALL_CONFIG, tolerances=[1, 2])
        path = write_config(tmp_path, cfg)
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    def test_stacked_disk_caps_need_a_disk_plate_exit_2(self, tmp_path,
                                                         capsys):
        cfg = dict(BALL_CONFIG)
        cfg["constraint"] = [{"mode": "scaled_capacitary", "q": 1.5},
                             {"mode": "stacked_disks"}]
        path = write_config(tmp_path, cfg)
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    def test_unknown_plate_key_exit_2(self, tmp_path, capsys):
        cfg = dict(BALL_CONFIG)
        cfg["plates"] = [BALL_CONFIG["plates"][0],
                         dict(BALL_CONFIG["plates"][1], grwoth=0.5)]
        path = write_config(tmp_path, cfg)
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR Parse") and "grwoth" in err

    @pytest.mark.parametrize("key", ["resolution", "truncation"])
    def test_nonpositive_size_in_config_exit_2(self, tmp_path, capsys, key):
        path = write_config(tmp_path, dict(BALL_CONFIG, **{key: 0}))
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    @pytest.mark.parametrize("flag", ["--resolution", "--truncation"])
    def test_zero_size_flag_exit_2(self, tmp_path, capsys, flag):
        path = write_config(tmp_path, BALL_CONFIG)
        rc = main(["--out-dir", str(tmp_path / "o"), flag, "0", "solve", path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    @pytest.mark.parametrize("command, cfg", [
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0},
                      "conductor": {"geometry": "sphere", "radius": 0}}),
        ("sweep", {"mode": "uncapped", "stages": [1, 2], "cell": 0}),
    ], ids=["capacity", "sweep"])
    def test_zero_layout_size_exit_2(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, cfg)
        assert main(["--out-dir", str(tmp_path / "o"), command, path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    @pytest.mark.parametrize("command, cfg", [
        ("solve", dict(BALL_CONFIG, plates=[
            dict(BALL_CONFIG["plates"][0], sign=2), BALL_CONFIG["plates"][1]])),
        ("solve", dict(BALL_CONFIG, constraint=[
            {"mode": "scaled_capacitary", "q": "abc"}, {"mode": "unbounded"}])),
        ("solve", dict(BALL_CONFIG, plates=[
            dict(BALL_CONFIG["plates"][0], resolution_scale=1.0),
            BALL_CONFIG["plates"][1]])),
        ("solve", dict(BALL_CONFIG, totals=[1.0])),
        ("solve", dict(BALL_CONFIG, constraint=[
            {"mode": "explicit", "weights": [1.0, 1.0]},
            {"mode": "unbounded"}])),
        ("balayage", dict(BALAYAGE_CONFIG, source={
            "positions": [[0.0, 0.0, 0.0]], "weights": [-1.0]})),
        ("balayage", dict(BALAYAGE_CONFIG, source={
            "positions": [[0.0, 0.0]], "weights": [1.0]})),
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0},
                      "conductor": {"geometry": "sphere", "radius": 1.0,
                                    "total": 0}}),
        ("sweep", dict(SWEEP_SIZES, mode="uncapped", stages=[])),
        ("sweep", dict(SWEEP_SIZES, mode="uncapped", stages=[0, 1])),
        ("sweep", dict(SWEEP_SIZES, mode="foo", stages=[1, 2])),
        # the trend's log-log slope needs two distinct stages, in order
        ("sweep", dict(SWEEP_SIZES, mode="uncapped", stages=[1])),
        ("sweep", dict(SWEEP_SIZES, mode="uncapped", stages=[2, 2])),
        ("sweep", dict(SWEEP_SIZES, mode="uncapped", stages=[2, 1])),
        # every config number is read by one rule: a boolean or a numeric
        # string is refused, not read as 1 or parsed
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "scaled_capacitary", "q": True}, {"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "scaled_capacitary", "q": "1.5"},
            {"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, totals=["1.0", "1.0"])),
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "explicit", "weights": [True] * TOY_BALL_NODES},
            {"mode": "unbounded"}])),
        ("solve", bad_field(0, True)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, radius="0.5")),
        ("balayage", dict(BALAYAGE_CONFIG, source={
            "positions": [[0.0, 0.0, 0.0]], "weights": [True]})),
        ("balayage", dict(BALAYAGE_CONFIG, source={
            "positions": [["0.1", 0.0, 0.0]], "weights": [1.0]})),
        # a top-level key the subcommand does not read
        ("sweep", dict(SWEEP_SIZES, mode="uncapped", stagse=[1])),
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0}, "resoluton": 0.3,
                      "conductor": {"geometry": "sphere", "radius": 1.0}}),
    ], ids=["plate-sign", "constraint-q", "resolution-scale-key",
            "totals-per-plate",
            "explicit-cap-length", "source-weight", "source-dimension",
            "capacity-total", "sweep-no-stages", "sweep-stage-zero",
            "sweep-mode", "sweep-one-stage", "sweep-repeated-stage",
            "sweep-decreasing-stages", "q-bool", "q-numeric-string",
            "totals-numeric-strings", "explicit-cap-bool", "field-value-bool",
            "plate-radius-numeric-string", "source-weight-bool",
            "source-position-numeric-string", "sweep-misspelled-stages",
            "capacity-misspelled-resolution"])
    def test_invalid_config_value_exit_2(self, tmp_path, capsys, command,
                                         cfg):
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o")
        assert main(["--out-dir", out, command, path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")
        assert not os.path.exists(os.path.join(out, "report.txt"))

    @pytest.mark.parametrize("total", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_totals_exit_2(self, tmp_path, capsys, total):
        path = write_config(tmp_path, dict(TOY_BALL, totals=[total, total]))
        out = str(tmp_path / "o")
        assert main(["--out-dir", out, "solve", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR Parse") and "finite" in err
        assert not os.path.exists(os.path.join(out, "report.txt"))

    @pytest.mark.parametrize("command, cfg", [
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, axis=7)),
        ("solve", dict(TOY_BALL, plates=[
            dict(TOY_BALL["plates"][0], center=[0, 0]),
            TOY_BALL["plates"][1]])),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 1, side=3)),
        # a key the plate's geometry does not read, and removed keys
        ("solve", with_plate_keys(TOY_BALL, 0, axis=1)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, side=1)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 1, radius=1.0)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 1, level=0.0)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 1, backing=False)),
        ("solve", dict(TOY_BALL, plates=[
            {"geometry": "explicit_cloud", "sign": 1},
            TOY_BALL["plates"][1]])),
        ("solve", dict(TOY_BALL, plates=[
            TOY_BALL["plates"][0],
            dict(TOY_BALL["plates"][1], truncation=-1.0)])),
        ("solve", dict(TOY_BALL, plates=[
            TOY_BALL["plates"][0],
            dict(TOY_BALL["plates"][1], truncation=0.5)])),
        ("solve", dict(TOY_BALL, plates=[
            dict(TOY_BALL["plates"][0], radius=-1.0),
            TOY_BALL["plates"][1]])),
        ("solve", dict(TOY_BALL, plates=[
            dict(TOY_BALL["plates"][0], truncation=3.0),
            TOY_BALL["plates"][1]])),
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "scaled_capacitary", "q": -1.0}, {"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, totals=["a", 1.0])),
        ("solve", dict(TOY_BALL, kernel={"n": 4, "alpha": 1.5})),
        ("capacity", {"kernel": {"n": 4, "alpha": 2.0}, "resolution": 0.3,
                      "conductor": {"geometry": "sphere", "radius": 1.0}}),
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3,
                      "conductor": {"geometry": "sphere", "radius": 1.0,
                                    "center": [0, 0]}}),
        # an unbounded plate needs truncation > radius + 2 x resolution
        ("solve", dict(TOY_DISK_HALF_SPACE, truncation=0.1)),
        ("solve", dict(TOY_DISK_HALF_SPACE, truncation=0.3,
                       kernel={"n": 3, "alpha": 1.5})),
        ("solve", dict(TOY_DISK_HALF_SPACE, truncation=0.4,
                       kernel={"n": 3, "alpha": 1.5})),
        ("solve", dict(TOY_BALL, resolution=0.2, truncation=1.01)),
        # tolerance values, from the config or from the flags
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"kkt": "abc"})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"potential": "x"})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"kkt": True})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"max_iters": 0})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"max_iters": True})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"kkt": -1})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"kkt": math.nan})),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"potential": 0.0})),
        ("--tol-kkt -1 solve", TOY_DISK_HALF_SPACE),
        ("--max-iters 0 solve", TOY_DISK_HALF_SPACE),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"patience": 20})),
        ("--tol-kkt 1e-6 solve", dict(TOY_DISK_HALF_SPACE, tolerances=[1, 2])),
        # a size flag whose key the subcommand does not read
        ("--resolution 0.3 sweep", dict(SWEEP_SIZES, stages=[1, 2])),
        ("--truncation 4 capacity", {
            "kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3,
            "conductor": {"geometry": "sphere", "radius": 1.0}}),
        # node_values field entries
        ("solve", bad_field(0, "a")),
        ("solve", bad_field(1, 1.0, node=0)),
        ("solve", bad_field(0, "-inf")),
        ("solve", bad_field(0, 5, node=None)),
        # balayage source values
        ("balayage", dict(BALAYAGE_CONFIG, source=dict(
            BALAYAGE_CONFIG["source"], cell_radius="abc"))),
        ("balayage", dict(BALAYAGE_CONFIG, source=dict(
            BALAYAGE_CONFIG["source"], cell_radius=-0.1))),
        ("balayage", dict(BALAYAGE_CONFIG, source=dict(
            BALAYAGE_CONFIG["source"], positions=[["a", 0.0, 0.0]]))),
        # an int key refuses floats and booleans, and a number key refuses
        # booleans, rather than truncating them or reading them as 0 or 1
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, axis=0.7)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, count=30.9)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, stack_count=2.5)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, stack_count=-1)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, radius=True)),
        ("solve", with_plate_keys(TOY_BALL, 0, radius=math.inf)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, radius=math.inf)),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0,
                                  center=[1.0, math.nan, 0.0])),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0,
                                  center=[1.0, False, 0.0])),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 1, side=-1.6)),
        ("solve", dict(TOY_DISK_HALF_SPACE, kernel={"n": 3.9, "alpha": 2.0})),
        ("solve", with_plate_keys(TOY_DISK_HALF_SPACE, 0, sign=1.5)),
        ("solve", dict(TOY_DISK_HALF_SPACE, kernel={"n": 3, "alpha": True})),
        # a capacity conductor takes geometry, center, radius, axis, total
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3,
                      "conductor": {"geometry": "disk", "radius": 1.0,
                                    "axsi": 2, "axis": 1}}),
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3,
                      "conductor": {"geometry": "disk", "radius": 1.0,
                                    "axis": 1.9}}),
        # the config file and its layout
        ("solve", NO_FILE),
        ("solve", [TOY_BALL]),
        ("solve", dict(TOY_BALL, plates=3)),
        ("solve", dict(TOY_BALL, totals=1.0)),
        ("solve", dict(TOY_BALL, plates=[3, TOY_BALL["plates"][1]])),
        ("solve", dict(TOY_BALL, constraint=[{"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, constraint=[
            "unbounded", {"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "cubic"}, {"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, field={"case": "linear"})),
        ("balayage", dict(BALAYAGE_CONFIG, plates=[
            dict(BALAYAGE_CONFIG["plates"][0], sign=1)])),
        ("balayage", dict(BALAYAGE_CONFIG, source={
            "positions": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
            "weights": [1.0]})),
        ("capacity", {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3,
                      "conductor": {"geometry": "cube", "radius": 1.0}}),
        # a misspelt key of a nested mapping is refused, not ignored
        ("balayage", dict(BALAYAGE_CONFIG, kernel={
            "n": 3, "alpha": 2.0, "alhpa": 1.0})),
        ("balayage", dict(BALAYAGE_CONFIG, source=dict(
            BALAYAGE_CONFIG["source"], cell_radus=0.3))),
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "scaled_capacitary", "q": 1.5},
            {"mode": "unbounded", "q": 3.0}])),
        ("solve", dict(TOY_BALL, constraint=[
            {"mode": "scaled_capacitary", "q": 1.5, "weights": [1.0]},
            {"mode": "unbounded"}])),
        ("solve", dict(TOY_BALL, field={"case": "zero",
                                        "cas": "node_values"})),
    ], ids=["plate-axis", "plate-center-2d", "plate-side", "ball-axis",
            "disk-side", "half-space-radius", "level-key", "backing-key",
            "explicit-cloud",
            "negative-truncation", "truncation-inside-radius",
            "negative-radius", "truncation-on-ball", "negative-q",
            "non-numeric-total", "kernel-n4", "capacity-n4",
            "capacity-center-2d", "half-space-truncation-below-resolution",
            "backing-truncation-0.3", "backing-truncation-0.4",
            "complement-truncation-near-radius", "tol-kkt-string",
            "tol-potential-string", "tol-kkt-bool", "tol-max-iters-zero",
            "tol-max-iters-bool", "tol-kkt-negative", "tol-kkt-nan",
            "tol-potential-zero", "tol-kkt-flag-negative",
            "max-iters-flag-zero", "tol-removed-key",
            "tol-not-a-mapping-with-flag", "resolution-flag-on-sweep",
            "truncation-flag-on-capacity", "field-non-numeric",
            "field-nonzero-on-negative-plate", "field-minus-inf",
            "field-plate-not-a-list", "source-cell-radius-string",
            "source-cell-radius-negative", "source-position-non-numeric",
            "disk-axis-float", "disk-count-float", "stack-count-float",
            "stack-count-negative",
            "radius-bool", "plate-radius-inf-ball", "plate-radius-inf-disk",
            "plate-center-nan", "center-bool", "side-float", "kernel-n-float",
            "sign-float", "kernel-alpha-bool", "capacity-unknown-key",
            "capacity-axis-float", "config-file-missing",
            "config-root-not-a-mapping", "plates-not-a-list",
            "totals-not-a-list", "plate-not-a-mapping",
            "constraint-count", "constraint-not-a-mapping",
            "constraint-mode-unknown", "field-case-unknown",
            "balayage-positive-plate", "source-misaligned",
            "capacity-cube", "kernel-unknown-key", "source-unknown-key",
            "constraint-unknown-key", "constraint-key-of-another-mode",
            "field-unknown-key"])
    def test_bad_value_exit_2(self, tmp_path, capsys, command, cfg):
        # a command may carry global flags before the subcommand
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o")
        assert main(["--out-dir", out, *command.split(), path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")
        assert not os.path.exists(os.path.join(out, "report.txt"))

    def test_thin_complement_truncation_exits_before_its_layout(
            self, tmp_path, capsys, monkeypatch):
        # at truncation 1.01 the first shell would hold ~127k nodes
        import condenser.model

        def no_layout(*args, **kwargs):
            raise AssertionError("ball complement laid out")

        monkeypatch.setattr(condenser.model, "ball_complement_nodes",
                            no_layout)
        path = write_config(tmp_path, dict(TOY_BALL, resolution=0.2,
                                           truncation=1.01))
        assert main(["--out-dir", str(tmp_path / "o"), "solve", path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")

    def test_nonconverged_exit_4(self, tmp_path):
        cfg = dict(BALL_CONFIG)
        cfg["constraint"] = [{"mode": "unbounded"}, {"mode": "unbounded"}]
        # a KKT bound below double roundoff, which the pivoting cannot meet
        cfg["tolerances"] = {"max_iters": 1, "kkt": 1e-20}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o")
        rc = main(["--out-dir", out, "solve", path])
        assert rc == 4
        assert not os.path.exists(os.path.join(out, "report.txt"))


def first_atom_weight(out_dir):
    with open(os.path.join(out_dir, "atoms.csv")) as fh:
        fh.readline()
        return float(fh.readline().split(",")[4])


class TestNodeValueField:
    def test_infinite_entries_freeze_nodes(self, tmp_path):
        # field values given per node; "inf" freezes a node to zero weight
        path = write_config(tmp_path, node_value_config())
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "solve", path]) == 0
        assert first_atom_weight(out) == 0.0  # frozen node carries no weight

    @pytest.mark.parametrize("command", ["solve-green", "verify"])
    def test_reduced_and_verify_pipelines_freeze_nodes(self, tmp_path,
                                                       command):
        path = write_config(tmp_path, node_value_config())
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, command, path]) == 0
        assert first_atom_weight(out) == 0.0
        assert_numerics_finite_or_inf(read_report(out))

    def test_all_zero_values_get_zone_checks(self, tmp_path):
        # an explicit field that is zero at every node is no field: the
        # scalar zone checks run, as they do not for the frozen node
        for first, zoned in ((0.0, True), ("inf", False)):
            cfg = node_value_config()
            cfg["field"]["values"][0][0] = first
            path = write_config(tmp_path, cfg)
            out = str(tmp_path / f"out-{first}")
            assert main(["--out-dir", out, "verify", path]) == 0
            assert ("zone.c1" in read_report(out)) == zoned

    def test_frozen_nodes_are_no_kkt_violation(self):
        # the weighted potential is +inf at a frozen node, which is no
        # violation of W >= c below the cap
        from condenser.gauss_solver import solve_riesz
        from condenser.scenarios import build_scenario
        from condenser.verify import kkt_report
        sc = build_scenario(node_value_config())
        res = solve_riesz(sc.spec)
        rep = kkt_report(res, sc.spec)
        assert rep.lower_violation.max() <= 1e-12
        assert rep.kkt_pass


class TestCapacity:
    def test_sphere_capacity_within_two_percent(self, tmp_path):
        cfg = {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.11,
               "conductor": {"geometry": "sphere", "center": [0, 0, 0],
                             "radius": 1.0, "total": 1.0}}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "capacity", path]) == 0
        rep = read_report(out)
        assert abs(float(rep["capacity.value"]) - 1.0) < 0.02


    def test_sphere_conductor_is_a_complement_boundary_layer(
            self, tmp_path, monkeypatch):
        # the sphere conductor and a ball complement's boundary layer are
        # the same sphere_layer at the same center, radius and resolution
        laid_out = []

        def recording(nodes, *args, **kwargs):
            laid_out.append(nodes)
            return equilibrium_measure(nodes, *args, **kwargs)

        monkeypatch.setattr(condenser.cli, "equilibrium_measure", recording)
        center, radius, res = (0.1, -0.2, 0.3), 1.3, 0.2
        cfg = {"kernel": {"n": 3, "alpha": 2.0}, "resolution": res,
               "conductor": {"geometry": "sphere", "center": list(center),
                             "radius": radius}}
        assert main(["--out-dir", str(tmp_path / "out"), "capacity",
                     write_config(tmp_path, cfg)]) == 0
        (nodes,) = laid_out
        layer = sphere_layer(center, radius, res)
        for name in ("positions", "quad_weights", "cell_radii",
                     "layer_index"):
            assert np.array_equal(getattr(nodes, name), getattr(layer, name))
        # the complement's boundary layer has the same positions and weights
        comp = ball_complement_nodes(center, radius, 4.0, res)
        first = comp.layer_index == 0
        assert np.array_equal(comp.positions[first], nodes.positions)
        assert np.array_equal(comp.quad_weights[first], nodes.quad_weights)

    def test_ball_capacity_near_its_radius(self, tmp_path):
        # Newtonian capacity of a solid ball is that of its sphere; the
        # volume nodes sit strictly inside it, so a coarse grid reads low
        cfg = {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.15,
               "conductor": {"geometry": "ball", "radius": 1.0}}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "capacity", path]) == 0
        rep = read_report(out)
        assert rep["capacity.geometry"] == "ball"
        assert abs(float(rep["capacity.value"]) - 1.0) < 0.06

    def test_disk_capacity_within_three_percent(self, tmp_path):
        # Newtonian capacity of a flat disk of radius a is 2a/pi; its nodes
        # follow the disk-plate count pi a^2 / resolution^2
        cfg = {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.15,
               "conductor": {"geometry": "disk", "radius": 1.0, "axis": 2}}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "capacity", path]) == 0
        rep = read_report(out)
        assert rep["capacity.nodes"] == str(round(math.pi / 0.15 ** 2))
        exact = 2.0 / math.pi
        assert abs(float(rep["capacity.value"]) - exact) / exact < 0.03


class TestBalayage:
    def test_balayage_report_and_atoms(self, tmp_path):
        path = write_config(tmp_path, BALAYAGE_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "balayage", path]) == 0
        rep = read_report(out)
        assert 0.9 < float(rep["balayage.mass_ratio"]) < 1.1
        assert os.path.exists(os.path.join(out, "atoms.csv"))


class TestSweep:
    @pytest.mark.parametrize("mode", ["uncapped", "capped"])
    def test_sweep_small(self, tmp_path, mode):
        cfg = {"mode": mode, "stages": [1, 2, 3], "flat_radius": 5.0,
               "cell": 0.4, "truncation": 15.0}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "sweep", path]) == 0
        rep = read_report(out)
        assert rep["sweep.stages"] == "[1, 2, 3]"
        assert rep["sweep.strictly_decreasing"] == "True"
        assert float(rep["sweep.loglog_slope"]) < 0


class TestVerifyCommand:
    def test_verify_runs_all_checks(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "verify", cfg]) == 0
        rep = read_report(out)
        assert rep["kkt.pass"] == "True"
        assert rep["zone.pass"] == "True"
        assert "equivalence.energy_gap_rel" in rep
        assert rep["scenario"] == "ball-test"
        assert_numerics_finite_or_inf(rep)

    def test_annotated_example_stays_runnable(self, tmp_path):
        # the documented config, at a coarse size
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "scenarios", "annotated_example.yaml")
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "--resolution", "0.4",
                     "--truncation", "4", "verify", path]) == 0
        rep = read_report(out)
        for key in ("kkt.pass", "zone.pass", "support.pass"):
            assert rep[key] == "True", key

    def test_no_interior_probe_reads_inf(self, tmp_path, monkeypatch):
        # exclusion balls of 5 cell radii around the toy ball's nodes cover
        # the whole ball, so no probe inside D survives
        monkeypatch.setattr(condenser.verify, "PROBE_EXCLUSION", 5.0)
        path = write_config(tmp_path, TOY_BALL)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "verify", path]) == 0
        rep = read_report(out)
        assert rep["zone.identity_residual"] == "inf"
        assert rep["zone.check.identity"] == "False"
        assert rep["zone.pass"] == "False"
        assert_numerics_finite_or_inf(rep)

    @pytest.mark.parametrize("negative", ["ball", "disk"])
    def test_compact_negative_plate_skips_zone_checks(self, tmp_path,
                                                      negative):
        # the zone checks draw probes in D only when the negative plate is
        # a ball complement or a half-space; other plates verify without,
        # and the zero-potential law excludes every node it would read
        cfg = {"kernel": {"n": 3, "alpha": 2.0}, "resolution": 0.3,
               "plates": [{"geometry": "ball", "sign": 1, "radius": 0.5},
                          {"geometry": negative, "sign": -1, "radius": 0.5,
                           "center": [2.0, 0, 0]}],
               "totals": [1.0, 1.0],
               "constraint": [{"mode": "unbounded"}, {"mode": "unbounded"}]}
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "verify",
                     write_config(tmp_path, cfg)]) == 0
        with open(os.path.join(out, "report.txt")) as fh:
            sections = {ln for ln in fh.read().splitlines()
                        if ln.startswith("[")}
        assert {"[kkt]", "[support]", "[equivalence]"} <= sections
        assert "[zone]" not in sections
        rep = read_report(out)
        assert_numerics_finite_or_inf(rep)
        assert rep["kkt.pass"] == "True"
        assert float(rep["kkt.plate_p_level"]) == 0.0
        assert int(rep["kkt.plate_p_excluded"]) > 0
        if negative == "disk":
            # a disk has no interior: all its mass is on its boundary
            assert float(rep["support.boundary_fraction"]) == 1.0
            assert rep["support.pass"] == "True"
        sc = build_scenario(cfg)
        with pytest.raises(WrongScenarioError):
            condenser.verify.scalar_zone_checks(solve_riesz(sc.spec), sc.spec,
                                                sc.green)


class TestSolveGreen:
    def test_solve_green_with_lift(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "solve-green", cfg]) == 0
        rep = read_report(out)
        assert rep["green.converged"] == "True"
        assert float(rep["lifted.lift_mass_defect"]) < 0.05
        assert_numerics_finite_or_inf(rep)


class TestStackedDisks:
    def test_stacked_disk_scenario(self, tmp_path):
        cfg = {
            "kernel": {"n": 3, "alpha": 2.0},
            "resolution": 0.45,
            "truncation": 20.0,
            "plates": [
                {"geometry": "disk", "sign": 1, "center": [0, 0, 0],
                 "radius": 1.0, "axis": 0, "stack_count": 2},
                {"geometry": "half_space", "sign": -1, "axis": 0,
                 "side": -1},
            ],
            "totals": [1.0, 1.0],
            "constraint": [{"mode": "stacked_disks"},
                           {"mode": "unbounded"}],
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "solve", path]) == 0
        rep = read_report(out)
        assert rep["solver.converged"] == "True"
        assert float(rep["solver.energy"]) > 0


class TestExamples:
    def test_example_ex1_end_to_end(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["--out-dir", out, "example", "ex1"])
        assert rc == 0
        rep = read_report(out)
        assert rep["kkt.pass"] == "True"
        assert rep["zone.pass"] == "True"
        assert float(rep["zone.c1"]) > 0
        assert rep["support.pass"] == "True"
        assert_numerics_finite_or_inf(rep)
        assert_no_seed_sentinels(rep)

    def test_example_ex2_end_to_end(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["--out-dir", out, "example", "ex2"])
        assert rc == 0
        rep = read_report(out)
        assert rep["kkt.pass"] == "True"
        assert rep["zone.pass"] == "True"
        assert float(rep["zone.c1"]) > 0
        assert float(rep["equivalence.energy_gap_rel"]) < 1e-3
        assert_numerics_finite_or_inf(rep)
        assert_no_seed_sentinels(rep)

    def test_console_entry_point(self):
        # the package need not be installed: the child finds it in src
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "condenser.cli", "--help"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "example" in proc.stdout
