import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import condenser.kernel
from condenser.balayage import GreenContext
from condenser.errors import WrongScenarioError
from condenser.gauss_solver import (ProblemSpec, lift_green_to_riesz,
                                    solve_green_reduced, solve_riesz)
from condenser.kernel import gauss_functional, potential
from condenser.model import (Condenser, DiscreteMeasure, KernelSpec, NodeSet,
                             Plate, PlateSpec, VectorMeasure,
                             ball_complement_nodes, ball_volume_nodes,
                             disk_nodes, resultant, trim_across_plates)
from condenser.scenarios import (build_scenario, example_one,
                                 sweep_plane_context)
from condenser.tolerances import Tolerances
from condenser.verify import (PROBE_EXCLUSION, SUPP_FLOOR_REL, KKTReport,
                              _exclude_near_atoms,
                              equivalence_check, kkt_report,
                              loglog_slope, scalar_zone_checks,
                              support_report, unsolvability_sweep,
                              weighted_potentials)

from _probes import mass_transfer_probe

K2 = KernelSpec(3, 2.0)


def small_spec(seed=0, cap_scale=None):
    rng = np.random.default_rng(seed)
    pos_pts = rng.normal(size=(25, 3)) * 0.3
    neg_pts = rng.normal(size=(30, 3)) * 0.3 + np.array([3.0, 0, 0])
    pos = NodeSet(pos_pts, np.ones(25), np.full(25, 0.02))
    neg = NodeSet(neg_pts, np.ones(30), np.full(30, 0.02))
    cond = Condenser((Plate(sign=+1, nodes=pos),
                      Plate(sign=-1, nodes=neg)))
    if cap_scale is None:
        constraint = (None, None)
    else:
        caps = rng.uniform(0.05, 0.2, 25)
        caps *= cap_scale / caps.sum()
        constraint = (caps, None)
    return ProblemSpec(cond, (1.0, 1.0), None, constraint, K2)


class TestKKTReport:
    def test_equilibrium_specialization(self):
        # no cap binding, no field: the weighted potential sits at the
        # constant on carried nodes
        spec = small_spec(seed=1)
        res = solve_riesz(spec)
        rep = kkt_report(res, spec)
        assert isinstance(rep, KKTReport)
        assert rep.kkt_pass
        assert rep.lower_violation.max() <= spec.tolerances.kkt
        assert rep.upper_violation.max() <= spec.tolerances.kkt

    def test_hand_perturbation_detected(self):
        spec = small_spec(seed=2, cap_scale=1.8)
        res = solve_riesz(spec)
        base = gauss_functional(res.solution, spec.field, spec.kernel)
        rep0 = kkt_report(res, spec)
        assert rep0.kkt_pass
        # move 1% of the plate mass between two free nodes against the slope
        W = weighted_potentials(res.solution, spec)[0]
        w = res.solution.components[0].weights.copy()
        caps = spec.constraint[0]
        margin = 1e-6
        free = np.flatnonzero((w > margin) & (w < caps - margin))
        assert free.size >= 2
        order = free[np.argsort(W[free])]
        src, dst = order[0], order[-1]  # push mass toward higher potential
        delta = min(0.01, w[src], caps[dst] - w[dst])
        w[src] -= delta
        w[dst] += delta
        bad = VectorMeasure.from_weights(
            spec.condenser, [w, res.solution.components[1].weights])
        perturbed = type(res)(
            solution=bad, energy=res.energy, constants=res.constants,
            trace=res.trace, converged=True,
            kkt_residual=res.kkt_residual, iterations=res.iterations)
        rep = kkt_report(perturbed, spec)
        assert not rep.kkt_pass
        worse = gauss_functional(bad, spec.field, spec.kernel)
        assert worse > base

    def test_mass_transfer_first_order_equivalence(self):
        spec = small_spec(seed=3, cap_scale=1.6)
        res = solve_riesz(spec)
        probe = mass_transfer_probe(res, spec, count=60, seed=5)
        assert probe["passed"]
        assert probe["worst_rate"] >= -probe["tolerance"]

    def test_green_side_first_order_conditions(self):
        # the reduced solve satisfies the same two-sided conditions read
        # through the grounded kernel
        import numpy as np
        from condenser.model import (ball_volume_nodes, Plate, Condenser,
                                     NodeSet, _nearest_neighbor_distances,
                                     NEIGHBOR_TRIM)
        ball = ball_volume_nodes((0, 0, 0), 1.0, 0.3)
        ext = ball_complement_nodes((0, 0, 0), 1.0, 10.0, 0.3)
        all_pos = np.vstack([ball.positions, ext.positions])
        plates = []
        for sign, ns in ((1, ball), (-1, ext)):
            dnn = _nearest_neighbor_distances(ns.positions, all_pos)
            capped = NodeSet(ns.positions, ns.quad_weights,
                             np.minimum(ns.cell_radii, NEIGHBOR_TRIM * dnn),
                             ns.layer_index)
            plates.append(Plate(sign=sign, nodes=capped))
        cond = Condenser(tuple(plates))
        kern = KernelSpec(3, 1.5)
        ctx = GreenContext(cond.plates[1].nodes, kern)
        from condenser.kernel import equilibrium_measure
        from condenser._pg import block_constants_and_kkt
        lam, _ = equilibrium_measure(cond.plates[0].nodes, kern, 1.0)
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (1.5 * lam.weights, None), kern)
        gres = solve_green_reduced(spec, ctx)
        # Green potential of the whole solution, read at the plate nodes
        comp = gres.solution.components[0]
        W = ctx.green_potential(comp, comp.nodes.positions)
        caps = spec.constraint[0]
        _, viol = block_constants_and_kkt(
            W, comp.weights, caps, [slice(0, len(W))], [1.0])
        assert viol <= spec.tolerances.kkt


class TestZoneChecks:
    def test_wrong_scenario_guard(self):
        spec = small_spec(seed=4)
        res = solve_riesz(spec)
        three_plate = Condenser((spec.condenser.plates[0],
                                 spec.condenser.plates[0],
                                 spec.condenser.plates[1]))
        bad_spec = ProblemSpec(three_plate, (0.5, 0.5, 1.0),
                               None, (None, None, None),
                               K2)
        ctx = GreenContext(spec.condenser.plates[1].nodes, K2)
        res3 = solve_riesz(bad_spec)
        with pytest.raises(WrongScenarioError):
            scalar_zone_checks(res3, bad_spec, ctx)

    def test_zero_solution_reported_as_failure(self, ex1):
        cond = ex1.spec.condenser
        zero = VectorMeasure.from_weights(
            cond, [np.zeros(len(p.nodes)) for p in cond.plates])
        from condenser.gauss_solver import SolveResult
        fake = SolveResult(solution=zero, energy=0.0,
                           constants=np.zeros(1), trace=np.zeros((0, 4)),
                           converged=False, kkt_residual=1.0, iterations=0)
        rep = scalar_zone_checks(fake, ex1.spec, ex1.green)
        assert not rep.overall_pass

    @pytest.mark.parametrize("tol_potential, passes", [(1e-3, True),
                                                       (1.0, False)])
    def test_strict_bound_off_the_cap_support(self, tol_potential, passes):
        # alpha < 2 with caps that vanish on the ball nodes at x1 > 0.4: the
        # support check also asks the potential to stay below c1 by more
        # than the tolerance at those nodes (by 0.69 c1 here)
        sc = build_scenario({
            "kernel": {"n": 3, "alpha": 1.5}, "resolution": 0.5,
            "truncation": 3.0,
            "plates": [{"geometry": "ball", "sign": 1, "radius": 1.0},
                       {"geometry": "ball_complement", "sign": -1,
                        "radius": 1.0}],
            "totals": [1.0, 1.0],
            "constraint": [{"mode": "scaled_capacitary", "q": 2.0},
                           {"mode": "unbounded"}]})
        plate = sc.spec.condenser.plates[0]
        caps = np.where(plate.nodes.positions[:, 0] > 0.4, 0.0,
                        sc.spec.constraint[0])
        spec = ProblemSpec(sc.spec.condenser, sc.spec.totals, None,
                           (caps, None), sc.spec.kernel,
                           Tolerances(potential=tol_potential))
        res = solve_riesz(spec)
        rep = scalar_zone_checks(res, spec, sc.green)
        # independent recomputation from the potential of the resultant
        w = res.solution.components[0].weights
        floor = SUPP_FLOOR_REL / len(w)
        off = caps <= floor
        pot = potential(resultant(res.solution), plate.nodes.positions,
                        spec.kernel)
        failures = int(np.sum(~off & (w <= floor)))
        margin = float((rep.c1 - pot[off]).min()) / max(1.0, abs(rep.c1))
        assert off.sum() == 9
        assert rep.support_failures == failures
        assert rep.checks["support"] == \
            (failures == 0 and margin > tol_potential) == passes

    def test_example_one_zone(self, ex1, ex1_riesz):
        rep = scalar_zone_checks(ex1_riesz, ex1.spec, ex1.green, seed=3)
        assert rep.c1 > 0
        assert rep.overall_pass, rep.checks

    def test_example_two_zone(self, ex2, ex2_riesz):
        # newtonian stacked-disk run: identity, level and bound checks hold
        # with a positive constant (the support identity is an alpha < 2
        # statement and reports trivially here)
        rep = scalar_zone_checks(ex2_riesz, ex2.spec, ex2.green, seed=5)
        assert rep.c1 > 0
        assert rep.checks["identity"] and rep.checks["level"] \
            and rep.checks["bound"]


class TestProbeExclusion:
    def test_matches_all_pairs_reference(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.0, 1.0, size=(200, 3))
        atoms = rng.uniform(-1.0, 1.0, size=(300, 3))
        rad = rng.uniform(0.01, 0.08, 300)
        keep = _exclude_near_atoms(pts, atoms, rad)
        ref = ~np.any(cdist(pts, atoms, "sqeuclidean")
                      < (PROBE_EXCLUSION * rad[None, :]) ** 2, axis=1)
        assert 0 < keep.sum() < len(pts)
        assert np.array_equal(keep, ref)


class TestSupportReport:
    @pytest.mark.parametrize("neg_pts", [
        [[2, 0, 0]], [[2, 0, 0], [2, 0.5, 0], [2, 0, 0.5]]],
        ids=["one_node", "three_nodes"])
    def test_bare_cloud_negative_plate(self, neg_pts):
        # a plate without a PlateSpec is a finite point set, its own boundary
        pos = NodeSet([[0, 0, 0]], [1.0], [0.05])
        m = len(neg_pts)
        neg = NodeSet(neg_pts, np.ones(m), np.full(m, 0.05))
        cond = Condenser((Plate(sign=+1, nodes=pos),
                          Plate(sign=-1, nodes=neg)))
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K2)
        res = solve_riesz(spec)
        rep = support_report(res, spec)
        assert rep.boundary_fraction == pytest.approx(1.0)
        assert rep.passed

    def test_alpha_below_two_all_layers(self, ex1, ex1_riesz):
        rep = support_report(ex1_riesz, ex1.spec)
        assert rep.alpha < 2.0
        assert rep.passed
        assert rep.empty_layers == []

    def test_lifted_negative_component_spreads(self, ex1, ex1_lift):
        # the lifted negative component lives on the exterior node set and,
        # below the Newtonian order, spreads over the truncated complement
        rep = support_report(ex1_lift, ex1.spec)
        assert rep.passed
        assert len(ex1_lift.solution.components[1].weights) == \
            len(ex1.spec.condenser.plates[1].nodes)


class TestEquivalence:
    def test_identical_inputs_zero_gap(self, ex1, ex1_riesz):
        rep = equivalence_check(ex1_riesz, ex1_riesz, ex1.spec, ex1_riesz)
        assert rep["energy_gap_rel"] == 0.0
        assert rep["semimetric_distance"] == 0.0

    def test_gap_grows_as_exterior_coarsens(self):
        # diagnostic resolution ladder: degrading the exterior grid grows the
        # Riesz/Green energy gap monotonically
        gaps = []
        for res_ext in (1.6, 3.2, 6.4):
            sc = example_one(resolution=0.28, truncation=8.0)
            # rebuild with a coarser exterior only
            ext = ball_complement_nodes((0, 0, 0), 1.0, 8.0, 0.28 * res_ext / 1.6)
            cond = Condenser(tuple(trim_across_plates([
                sc.spec.condenser.plates[0],
                Plate(sign=-1, nodes=ext,
                      spec=PlateSpec(tag="ball_complement", sign=-1,
                                     radius=1.0, truncation=8.0))])))
            ext = cond.plates[1].nodes
            # the stored field and caps are aligned with the old exterior
            spec = ProblemSpec(cond, sc.spec.totals, None,
                               (sc.spec.constraint[0], None), sc.spec.kernel,
                               sc.spec.tolerances)
            ctx = GreenContext(ext, sc.spec.kernel)
            riesz = solve_riesz(spec)
            green = solve_green_reduced(spec, ctx)
            lift = lift_green_to_riesz(green, spec, ctx)
            rep = equivalence_check(riesz, lift, spec, green_result=green)
            gaps.append(rep["energy_gap_rel"] + abs(rep["lift_mass_defect"]))
        assert gaps[0] < gaps[1] < gaps[2]


@pytest.fixture
def kernel_entries(monkeypatch):
    """Counter of the kernel entries every reader evaluates: wraps
    ``kernel._riesz_block``, which every reader calls through ``kernel``
    (``tests/test_pairwise_lint.py``)."""
    count = {"entries": 0}
    block = condenser.kernel._riesz_block

    def counting(*args, **kwargs):
        out = block(*args, **kwargs)
        count["entries"] += out.size
        return out

    monkeypatch.setattr(condenser.kernel, "_riesz_block", counting)
    return count


def test_set_up_and_solve_read_each_symmetric_matrix_by_half(
        kernel_entries):
    # 27 + 798 nodes: whole, K_EE and the joint matrix hold 0.64 M and
    # 0.68 M entries; each read by its lower row blocks takes about half
    sc = example_one(resolution=0.5, alpha=1.5, truncation=3.0)
    solve_riesz(sc.spec)
    assert kernel_entries["entries"] <= 0.80e6


class TestNodeReads:
    """Each solution's node potentials are read once: the lift's read gives
    its energy, the first check to need the Riesz solution's read keeps it,
    and the later checks reuse both."""

    def test_checks_after_the_solve_read_each_solution_once(
            self, kernel_entries):
        sc = example_one(resolution=0.5, alpha=1.5, truncation=3.0)
        spec, green = sc.spec, sc.green
        riesz = solve_riesz(spec)
        kernel_entries["entries"] = 0
        gres = solve_green_reduced(spec, green)
        lift = lift_green_to_riesz(gres, spec, green)
        kkt_report(riesz, spec)
        scalar_zone_checks(riesz, spec, green)
        support_report(riesz, spec)
        equivalence_check(riesz, lift, spec, green_result=gres)
        # 825 joint nodes: one full read is 825^2 = 0.68 M entries; reading
        # the Riesz solution again in the zone and equivalence checks and
        # the lifted one again for the distance made 3.55 M.  The bound
        # holds the solution reads (1.51 M) plus the lift's balayage
        # residual, kappa(., mu') on the 798 exterior nodes from the swept
        # measure's carried atoms, all 798 here: 798^2 = 0.64 M
        assert kernel_entries["entries"] <= 2.15e6

    def test_a_replaced_solution_is_read_afresh(self, kernel_entries):
        spec = small_spec(seed=4)
        res = solve_riesz(spec)
        kkt_report(res, spec)
        sol = res.solution
        halved = replace(sol, components=tuple(
            DiscreteMeasure(c.nodes, 0.5 * c.weights)
            for c in sol.components))
        before = kernel_entries["entries"]
        W = weighted_potentials(replace(res, solution=halved).solution, spec)
        assert kernel_entries["entries"] > before
        r = resultant(halved)
        for s, c, f, w in zip(sol.signs, sol.components, spec.field, W):
            assert np.array_equal(
                w, s * potential(r, c.nodes.positions, spec.kernel) + f)


def stage_disks(stages, count):
    """(l, disk of radius l at height 1 above the plane x1 = 0, ``count``
    nodes) per stage l."""
    return [(ell, disk_nodes((1.0, 0.0, 0.0), float(ell), count, axis=0))
            for ell in stages]


class TestSweeps:
    def test_single_stage(self):
        ctx = sweep_plane_context(flat_radius=4.0, cell=0.4, truncation=12.0)
        rows = unsolvability_sweep(stage_disks([2], 120), ctx)
        assert len(rows) == 1
        assert rows[0]["stage"] == 2
        assert rows[0]["energy"] > 0

    def test_strictly_decreasing_three_stages(self):
        ctx = sweep_plane_context(flat_radius=5.0, cell=0.4, truncation=15.0)
        rows = unsolvability_sweep(stage_disks([1, 2, 3], 150), ctx)
        E = [r["energy"] for r in rows]
        assert E[0] > E[1] > E[2] > 0

    def test_loglog_slope_helper(self):
        assert loglog_slope([1, 2, 4], [1.0, 0.5, 0.25]) == pytest.approx(-1.0)

    def test_capped_sweep_bound_decreases(self):
        # sharpness construction: stage infima are bounded by
        # ||xi_l||_g^2 + 2 ||zeta||_g ||xi_l||_g, decreasing toward zero
        from condenser.kernel import equilibrium_measure
        ctx = sweep_plane_context(flat_radius=5.0, cell=0.4, truncation=15.0)
        zn = disk_nodes((1.0, 0, 0), 0.5, 60, axis=0)
        zeta, _ = equilibrium_measure(zn, K2, 0.5)
        rows = unsolvability_sweep(stage_disks([1, 2, 3, 4], 150), ctx,
                                   zeta=zeta)
        bounds = [r["bound"] for r in rows]
        values = [r["stage_value"] for r in rows]
        assert all(bounds[i + 1] < bounds[i] for i in range(len(bounds) - 1))
        assert all(v <= b + 1e-12 for v, b in zip(values, bounds))
        assert all(v > 0 for v in values)
        assert loglog_slope([1, 2, 3, 4], bounds) < 0
