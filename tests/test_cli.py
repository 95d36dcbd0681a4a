import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import condenser.verify
from condenser.cli import main
from condenser.gauss_solver import swept_positive_caps
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


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
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
        assert rep["schema_version"] == "4"
        assert rep["solver.converged"] == "True"
        assert float(rep["solver.energy"]) > 0
        with open(os.path.join(out, "atoms.csv")) as fh:
            header = fh.readline().strip()
        assert header == "plate,x1,x2,x3,weight,cap"
        with open(os.path.join(out, "trace.csv")) as fh:
            header = fh.readline().strip()
        assert header == "iter,objective,step,kkt_residual"

    def test_report_numerics_finite_or_inf_token(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "solve", cfg]) == 0
        assert_numerics_finite_or_inf(read_report(out))

    def test_report_names_the_finish(self, tmp_path):
        # the exact finish ends the toy solves; two positive plates on the
        # same nodes make the free block singular, so PG ends that solve
        out = str(tmp_path / "exact")
        path = write_config(tmp_path, TOY_BALL)
        assert main(["--out-dir", out, "solve-green", path]) == 0
        rep = read_report(out)
        assert rep["green.finish"] == rep["lifted.finish"] == "exact"
        shared = dict(TOY_BALL, totals=[0.5, 0.5, 1.0],
                      plates=[BALL_CONFIG["plates"][0]] + BALL_CONFIG["plates"],
                      constraint=[{"mode": "unbounded"}] * 3)
        for cfg, finish in ((TOY_BALL, "exact"),
                            (shared, "projected_gradient")):
            out = str(tmp_path / finish)
            path = write_config(tmp_path, cfg)
            assert main(["--out-dir", out, "solve", path]) == 0
            assert read_report(out)["solver.finish"] == finish

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
            return ns.subset(np.r_[np.arange(len(ns)), 0])

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
    ], ids=["plate-sign", "constraint-q", "resolution-scale-key",
            "totals-per-plate",
            "explicit-cap-length", "source-weight", "source-dimension",
            "capacity-total", "sweep-no-stages", "sweep-stage-zero",
            "sweep-mode"])
    def test_invalid_config_value_exit_2(self, tmp_path, capsys, command,
                                         cfg):
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o")
        assert main(["--out-dir", out, command, path]) == 2
        assert capsys.readouterr().err.startswith("ERROR Parse")
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
        ("--tol-kkt -1 solve", TOY_DISK_HALF_SPACE),
        ("--max-iters 0 solve", TOY_DISK_HALF_SPACE),
        ("solve", dict(TOY_DISK_HALF_SPACE, tolerances={"patience": 20})),
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
            "tol-max-iters-bool", "tol-kkt-negative", "tol-kkt-flag-negative",
            "max-iters-flag-zero", "tol-removed-key", "field-non-numeric",
            "field-nonzero-on-negative-plate", "field-minus-inf",
            "field-plate-not-a-list", "source-cell-radius-string",
            "source-cell-radius-negative", "source-position-non-numeric"])
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
        # a KKT bound below double roundoff, which neither PG nor the exact
        # finish can meet
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
    def test_sweep_small(self, tmp_path):
        cfg = {"mode": "uncapped", "stages": [1, 2, 3], "flat_radius": 5.0,
               "cell": 0.4, "truncation": 15.0}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["--out-dir", out, "sweep", path]) == 0
        rep = read_report(out)
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
        proc = subprocess.run(
            [sys.executable, "-m", "condenser.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "example" in proc.stdout
