import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dtfttr, stpttf

from condenser.balayage import GreenContext
from condenser.errors import (AlignmentError, DuplicateNodeError,
                              InfeasibleError, NonConvexError,
                              SigmaDominationError)
from condenser import _pg as pgmod
from condenser import gauss_solver as solvermod
from condenser import kernel as kernelmod
from condenser import model as modelmod
from condenser.gauss_solver import (ProblemSpec, check_sigma_domination,
                                    joint_kernel_matrix, lift_green_to_riesz,
                                    solve_green_reduced, solve_riesz,
                                    swept_positive_caps)
from condenser.kernel import (_riesz_block, equilibrium_measure,
                              gauss_functional,
                              mutual_energy, potential, semimetric_distance)
from condenser.model import (Condenser, DiscreteMeasure, KernelSpec, NodeSet,
                             Plate, PlateSpec, VectorMeasure,
                             ball_complement_nodes, ball_volume_nodes,
                             sphere_surface_nodes, trim_across_plates,
                             trim_cell_radii)
from condenser.scenarios import ball_in_ball, build_scenario, example_one
from condenser.tolerances import DEFAULT_TOLERANCES
from condenser.verify import kkt_report, weighted_potentials

from _probes import green_field, kernel_matrix, packed, unpacked

K2 = KernelSpec(3, 2.0)
K15 = KernelSpec(3, 1.5)


def shared_node_spec():
    """Two positive plates on the same toy-ball nodes against the ball's
    complement.  Their rows of the joint kernel matrix coincide, so a free
    block with both copies of a node is singular: the pivoting keeps the
    free copies a forest and solves the bordered system."""
    ball = {"geometry": "ball", "sign": 1, "radius": 1.0}
    return build_scenario({
        "kernel": {"n": 3, "alpha": 1.5}, "resolution": 0.5,
        "truncation": 3.0, "totals": [0.5, 0.5, 1.0],
        "plates": [ball, ball, {"geometry": "ball_complement", "sign": -1,
                                "radius": 1.0}],
        "constraint": [{"mode": "unbounded"}] * 3}).spec


def partial_overlap_scenario():
    """Two balls of radius 0.5 centred at x = -0.2 and 0.2, sharing 39
    nodes, against the unit ball's complement."""
    return build_scenario({
        "kernel": {"n": 3, "alpha": 1.5}, "resolution": 0.2,
        "truncation": 3.0, "totals": [0.5, 0.5, 1.0],
        "plates": [{"geometry": "ball", "sign": 1, "radius": 0.5,
                    "center": [x, 0, 0]} for x in (-0.2, 0.2)] +
                  [{"geometry": "ball_complement", "sign": -1,
                    "radius": 1.0}],
        "constraint": [{"mode": "unbounded"}] * 3})


def swapped(spec):
    """``spec`` with its first two plates, and their totals, fields and
    caps, in swapped order."""
    order = (1, 0) + tuple(range(2, len(spec.totals)))

    def pick(values):
        return tuple(values[i] for i in order)

    return ProblemSpec(Condenser(pick(spec.condenser.plates)),
                       pick(spec.totals), pick(spec.field),
                       pick(spec.constraint), spec.kernel, spec.tolerances)


def brute_force_projection(w, caps, total, grid=4_000_001):
    """Independent oracle: scan the water level tau on a refined grid around
    the breakpoints, then polish by bisection on the monotone mass curve."""
    w = np.asarray(w, dtype=float)
    caps = np.asarray(caps, dtype=float)

    def mass(tau):
        return np.minimum(np.maximum(w - tau, 0.0), caps).sum()

    lo = float(w.min() - (np.where(np.isfinite(caps), caps, 0).max() + 1.0))
    hi = float(w.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) >= total:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    v = np.minimum(np.maximum(w - tau, 0.0), caps)
    free = (v > 0) & (v < caps)
    if free.any():
        v[free] += (total - v.sum()) / free.sum()
    return v


def small_condenser(seed=0, n_pos=30, n_neg=40):
    rng = np.random.default_rng(seed)
    pos_pts = rng.normal(size=(n_pos, 3)) * 0.3
    neg_pts = rng.normal(size=(n_neg, 3)) * 0.3 + np.array([3.0, 0, 0])
    pos = NodeSet(pos_pts, np.ones(n_pos), np.full(n_pos, 0.02))
    neg = NodeSet(neg_pts, np.ones(n_neg), np.full(n_neg, 0.02))
    return Condenser((Plate(sign=+1, nodes=pos),
                      Plate(sign=-1, nodes=neg)))


def assert_variational_inequality(res, spec, rng):
    """At the minimizer, sum_i <W^i, mu^i - lambda^i> >= 0 for feasible mu
    (the totals and caps of ``spec``)."""
    W = weighted_potentials(res.solution, spec)
    scale = max(1.0, float(np.abs(res.constants).max()))
    for _ in range(25):
        val = 0.0
        for Wi, comp, cap, total in zip(W, res.solution.components,
                                        spec.constraint, spec.totals):
            start = rng.random(len(cap)) * np.where(np.isfinite(cap), cap, 1.0)
            val += float(Wi @ (brute_force_projection(start, cap, total) -
                               comp.weights))
        assert val >= -1e-6 * scale


def engine_projection(w, caps, total):
    """Euclidean projection of w onto {0 <= v <= caps, sum v = total} by
    the pivoting engine: the QP with A = I and b = -w."""
    w = np.asarray(w, dtype=float)
    return pgmod.minimize_quadratic(packed(np.eye(len(w))), -w,
                                    [slice(0, len(w))],
                                    [total], np.broadcast_to(caps, w.shape),
                                    DEFAULT_TOLERANCES).w


class TestCappedSimplexProjection:
    """The pivoting engine on the projection QP, against the brute-force
    oracle."""

    def test_fixed_point(self):
        w = np.array([0.2, 0.3, 0.5])
        caps = np.array([1.0, 1.0, 1.0])
        assert np.allclose(engine_projection(w, caps, 1.0), w, atol=1e-14)

    def test_uniform_from_zero(self):
        got = engine_projection(np.zeros(5), np.full(5, np.inf), 2.0)
        assert np.allclose(got, 0.4)

    def test_two_variable_derived(self):
        got = engine_projection(np.array([3.0, 0.0]),
                                     np.array([1.0, np.inf]), 2.0)
        oracle = brute_force_projection(np.array([3.0, 0.0]),
                                        np.array([1.0, np.inf]), 2.0)
        assert np.allclose(got, [1.0, 1.0], atol=1e-12)
        assert np.allclose(oracle, [1.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 25))
        w = rng.normal(size=m) * 2.0
        caps = rng.uniform(0.05, 1.0, size=m)
        caps[rng.random(m) < 0.3] = np.inf
        finite = np.where(np.isfinite(caps), caps, 0.0)
        top = max(finite.sum(), 1.0)
        total = rng.uniform(0.1, 0.9) * (top + np.isinf(caps).sum())
        if caps.sum() < total:
            total = 0.5 * finite.sum()
        got = engine_projection(w, caps, total)
        oracle = brute_force_projection(w, caps, total)
        assert np.abs(got - oracle).max() < 1e-8
        # exact feasibility
        assert abs(got.sum() - total) < 1e-12 * max(1.0, total)
        assert np.all(got >= 0) and np.all(got <= caps + 1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_property(self, seed):
        # ||w - P(w)|| <= ||w - u|| for any feasible u
        rng = np.random.default_rng(100 + seed)
        m = 12
        w = rng.normal(size=m)
        caps = rng.uniform(0.2, 1.0, size=m)
        total = 0.7 * caps.sum()
        v = engine_projection(w, caps, total)
        base = np.linalg.norm(w - v)
        for _ in range(50):
            u = rng.uniform(0, 1, m) * caps
            u = brute_force_projection(u, caps, total)
            assert np.linalg.norm(w - u) >= base - 1e-9

    def test_caps_exactly_realize_total(self):
        caps = np.array([0.25, 0.5, 0.25])
        got = engine_projection(np.array([5.0, -1.0, 2.0]), caps, 1.0)
        assert np.allclose(got, caps, atol=1e-14)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            engine_projection(np.zeros(3), np.full(3, 0.1), 1.0)


class TestSolveRiesz:
    def test_two_node_no_freedom(self):
        pos = NodeSet([[0.0, 0, 0]], [1.0], [0.1])
        neg = NodeSet([[1.0, 0, 0]], [1.0], [0.1])
        cond = Condenser((Plate(sign=+1, nodes=pos),
                          Plate(sign=-1, nodes=neg)))
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K2)
        res = solve_riesz(spec)
        k11 = K2.self_energy(0.1)
        expect = k11 + k11 - 2.0 * 1.0
        assert res.energy == pytest.approx(expect, rel=1e-12)
        assert res.solution.components[0].weights[0] == pytest.approx(1.0)

    def test_energy_is_the_gauss_functional(self, ex1, ex1_riesz):
        # the reported energy is the solver objective; the functional,
        # re-assembled from the solution, stays the reference
        ref = gauss_functional(ex1_riesz.solution, ex1.spec.field,
                               ex1.spec.kernel)
        assert ex1_riesz.energy == pytest.approx(ref, rel=1e-12)

    @staticmethod
    def case2_spec():
        """Newtonian ball against its complement with a Case II field; the
        sweep clips, so the field is not zero on the exterior (~1e-2)."""
        ball = ball_volume_nodes((0, 0, 0), 0.62, 0.3)
        exterior = trim_cell_radii(
            ball_complement_nodes((0, 0, 0), 1.0, 8.0, 0.3))
        cond = Condenser((Plate(sign=1, nodes=ball),
                          Plate(sign=-1, nodes=exterior)))
        rng = np.random.default_rng(11)
        zeta = DiscreteMeasure(ball, rng.random(len(ball)) * 0.3)
        field = green_field(zeta, cond, GreenContext(exterior, K2))
        return ProblemSpec(cond, (1.0, 1.0), field, (None, None), K2)

    def test_case2_energy_is_the_gauss_functional(self):
        # the solve's objective carries the field on the negative plate too
        spec = self.case2_spec()
        res = solve_riesz(spec)
        ref = gauss_functional(res.solution, spec.field, K2)
        assert res.energy == pytest.approx(ref, rel=1e-12)

    def test_case2_solution_meets_kkt(self):
        # the minimized functional is the one kkt_report differentiates, so
        # the negative plate is stationary as well
        spec = self.case2_spec()
        res = solve_riesz(spec)
        assert res.converged
        rep = kkt_report(res, spec)
        assert rep.kkt_pass, rep.max_violation
        assert res.energy == pytest.approx(
            gauss_functional(res.solution, spec.field, K2), rel=1e-12)

    def test_matches_fixed_step_reference(self):
        # independent reference: plain projected gradient, fixed 1/L step,
        # mass stacked on the first node initially, projected by the
        # brute-force oracle (it meets the energy to 3e-16 by step 250)
        cond = small_condenser(seed=3)
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K2)
        res = solve_riesz(spec)
        K, slices = joint_kernel_matrix(cond, K2), cond.slices
        s = np.concatenate([np.full(len(p.nodes), float(p.sign))
                            for p in cond.plates])
        A = unpacked(K) * np.outer(s, s)
        L = 2.0 * np.linalg.eigvalsh(A)[-1]
        w = np.zeros(A.shape[0])
        w[slices[0].start] = 1.0
        w[slices[1].start] = 1.0
        for _ in range(500):
            g = 2.0 * (A @ w)
            w = w - g / L
            for sl in slices:
                w[sl] = brute_force_projection(
                    w[sl], np.full(sl.stop - sl.start, np.inf), 1.0)
        ref_energy = float(w @ A @ w)
        assert abs(res.energy - ref_energy) / abs(ref_energy) < 1e-4

    def test_feasible_and_trace_ends_at_the_solution(self):
        cond = small_condenser(seed=4)
        rng = np.random.default_rng(0)
        caps0 = rng.uniform(0.05, 0.2, len(cond.plates[0].nodes))
        caps0 *= 1.7 / caps0.sum()
        capped = ProblemSpec(cond, (1.0, 1.0), None,
                             (caps0, None), K2)
        for spec in (capped, shared_node_spec()):
            res = solve_riesz(spec)
            assert res.converged and res.kkt_residual <= 1e-10
            for i, total in enumerate(spec.totals):
                w = res.solution.components[i].weights
                assert abs(w.sum() - total) <= 1e-10 * max(1.0, total)
                assert np.all((w >= 0) & (w <= spec.constraint[i]))
            # one row per refined pattern solve, the last one the solution
            assert res.trace.shape[1] == 3
            assert np.all(np.diff(res.trace[:, 0]) > 0)
            assert res.trace[-1].tolist() == [res.iterations, res.energy,
                                              res.kkt_residual]
        # the shared-node solve pivots to its pattern in a few rounds
        assert res.shared_nodes == len(spec.condenser.plates[0].nodes)
        assert res.iterations <= 10

    def test_variational_inequality(self):
        cond = small_condenser(seed=5)
        rng = np.random.default_rng(2)
        caps0 = rng.uniform(0.05, 0.2, len(cond.plates[0].nodes))
        caps0 *= 2.0 / caps0.sum()
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (caps0, None), K2)
        assert_variational_inequality(solve_riesz(spec), spec, rng)

    def test_infeasible_cap_total(self):
        cond = small_condenser(seed=7)
        caps0 = np.full(len(cond.plates[0].nodes), 1e-3)
        with pytest.raises(InfeasibleError):
            ProblemSpec(cond, (1.0, 1.0), None,
                        (caps0, None), K2)

    def test_infinite_field_nodes_frozen(self):
        cond = small_condenser(seed=8)
        n0 = len(cond.plates[0].nodes)
        vals = np.zeros(n0)
        vals[:3] = math.inf
        field = [vals, np.zeros(len(cond.plates[1].nodes))]
        spec = ProblemSpec(cond, (1.0, 1.0), field, (None, None), K2)
        res = solve_riesz(spec)
        assert np.all(res.solution.components[0].weights[:3] == 0.0)
        assert math.isfinite(res.energy)

    def test_repeated_node_in_one_plate_rejected(self):
        # a node shared by two equally signed plates is one cell; a node
        # repeated inside one plate would make the joint matrix singular,
        # so the condenser refuses it before any solve
        shared = NodeSet([[0, 0, 0], [1, 0, 0]], np.ones(2), np.full(2, 0.05))
        neg = NodeSet([[4, 0, 0], [4, 1, 0]], np.ones(2), np.full(2, 0.05))
        cond = Condenser((Plate(sign=+1, nodes=shared),
                          Plate(sign=+1, nodes=shared),
                          Plate(sign=-1, nodes=neg)))
        spec = ProblemSpec(cond, (0.5, 0.5, 1.0), None,
                           (None, None, None), K2)
        ctx = GreenContext(neg, K2)
        assert solve_riesz(spec).converged
        assert solve_green_reduced(spec, ctx).converged
        repeated = NodeSet(shared.positions[[0, 1, 1]], np.ones(3),
                           np.full(3, 0.05))
        for plates, bad in (((repeated,), 0), ((shared, repeated), 1)):
            with pytest.raises(DuplicateNodeError, match=f"plate {bad}"):
                Condenser(tuple(Plate(sign=+1, nodes=ns) for ns in plates)
                          + (Plate(sign=-1, nodes=neg),))

    def test_max_iters_flagged_not_raised(self):
        # a KKT bound below double roundoff, which the pivoting cannot meet
        cond = small_condenser(seed=9)
        tol = replace(DEFAULT_TOLERANCES, max_iters=2, kkt=1e-20)
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K2, tolerances=tol)
        res = solve_riesz(spec)
        assert not res.converged
        assert math.isfinite(res.energy)


def fielded_capped_spec(cap_total):
    """small_condenser(seed=5) with plate 0 capped to ``cap_total`` and a
    repelling field of 3 on its first six nodes."""
    cond = small_condenser(seed=5)
    rng = np.random.default_rng(2)
    n0 = len(cond.plates[0].nodes)
    caps0 = rng.uniform(0.05, 0.2, n0)
    caps0 *= cap_total / caps0.sum()
    f0 = np.zeros(n0)
    f0[:6] = 3.0
    field = [f0, np.zeros(len(cond.plates[1].nodes))]
    return ProblemSpec(cond, (1.0, 1.0), field, (caps0, None), K2), caps0


class TestProblemSpec:
    def test_absent_field_and_caps_stored_as_arrays(self):
        cond = small_condenser(seed=3)
        spec = ProblemSpec(cond, (1.0, 1.0), None, (None, None), K2)
        for p, f, c in zip(cond.plates, spec.field, spec.constraint):
            np.testing.assert_array_equal(f, np.zeros(len(p.nodes)))
            np.testing.assert_array_equal(c, np.full(len(p.nodes), np.inf))

    def test_rebuilt_from_its_own_fields_solves_identically(self):
        spec, _ = fielded_capped_spec(1.7)
        rebuilt = ProblemSpec(spec.condenser, spec.totals, spec.field,
                              spec.constraint, spec.kernel, spec.tolerances)
        a, b = solve_riesz(spec), solve_riesz(rebuilt)
        assert a.energy == b.energy
        for ca, cb in zip(a.solution.components, b.solution.components):
            np.testing.assert_array_equal(ca.weights, cb.weights)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_rejects_nan_and_minus_inf_field(self, bad):
        cond = small_condenser(seed=3)
        f0 = np.zeros(len(cond.plates[0].nodes))
        f0[4] = bad
        with pytest.raises(ValueError):
            ProblemSpec(cond, (1.0, 1.0),
                        (f0, np.zeros(len(cond.plates[1].nodes))),
                        (None, None), K2)

    def test_rejects_misaligned_field(self):
        cond = small_condenser(seed=3)
        n0, n1 = (len(p.nodes) for p in cond.plates)
        for field in ((np.zeros(n0 + 1), np.zeros(n1)), (np.zeros(n0),)):
            with pytest.raises(AlignmentError):
                ProblemSpec(cond, (1.0, 1.0), field, (None, None), K2)

    @pytest.mark.parametrize("order, totals, message", [
        ((1, 0), (1.0, 1.0), "plate order"),
        ((0, 1), (1.0, 1.5), "negative-plate mass"),
    ], ids=["negative-plate-first", "unbalanced-negative-mass"])
    def test_rejects_plate_order_and_mass(self, order, totals, message):
        cond = small_condenser(seed=3)
        cond = Condenser(tuple(cond.plates[i] for i in order))
        with pytest.raises(ValueError, match=message):
            ProblemSpec(cond, totals, None, (None, None), K2)

    def test_infeasible_once_infinite_field_nodes_freeze(self):
        # the caps total 1.7 > 1, but the nodes of finite field hold < 1
        cond = small_condenser(seed=5)
        n0 = len(cond.plates[0].nodes)
        caps0 = np.full(n0, 1.7 / n0)
        f0 = np.zeros(n0)
        f0[:n0 // 2] = math.inf
        field = (f0, np.zeros(len(cond.plates[1].nodes)))
        with pytest.raises(InfeasibleError):
            ProblemSpec(cond, (1.0, 1.0), field, (caps0, None), K2)
        # an uncapped plate whose every node is frozen
        f0[:] = math.inf
        with pytest.raises(InfeasibleError):
            ProblemSpec(cond, (1.0, 1.0), field, (None, None), K2)


def seeded_qp(seed=21, n=8):
    """A random positive definite QP on one plate of n nodes with caps in
    [0.2, 0.5]: for unit mass, its all-free solve drops nodes to zero and
    pivoting frees one of them again."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n))
    return (packed(X @ X.T / n + 0.1 * np.eye(n)), rng.normal(size=n),
            rng.uniform(0.2, 0.5, n))


@pytest.fixture
def finish_attempts(monkeypatch):
    """Weights of every pattern solve, as it returns them."""
    attempts = []
    original = pgmod._solve_pattern

    def record(*args, **kwargs):
        out = original(*args, **kwargs)
        attempts.append(out[0].copy())
        return out

    monkeypatch.setattr(pgmod, "_solve_pattern", record)
    return attempts


def single_exchanges(monkeypatch):
    """Force Kim & Park's backup rule from round one: every pivoting
    exchanges one violator per round."""
    original = pgmod.BackupRule.__init__

    def forced(self, k):
        original(self, k)
        self.least[:] = 0
        self.left[:] = 0

    monkeypatch.setattr(pgmod.BackupRule, "__init__", forced)


class TestSharedCopies:
    def test_identical_plates_reach_the_equilibrium(self):
        # two plates on the same nodes, each copy's position passed: the
        # free copies stay a forest, and the plates' sum is the unit
        # equilibrium measure of the nodes
        nodes = ball_volume_nodes((0, 0, 0), 1.0, 0.5)
        K = kernel_matrix(nodes, K15)
        m = len(nodes)
        res = pgmod.minimize_quadratic(
            packed(np.block([[K, K], [K, K]])), None,
            [slice(0, m), slice(m, 2 * m)], [0.5, 0.5],
            np.full(2 * m, np.inf), DEFAULT_TOLERANCES,
            positions=np.tile(np.arange(m), 2))
        assert res.converged and res.kkt_residual <= 1e-10
        _, cap = equilibrium_measure(nodes, K15, 1.0)
        assert abs(res.objective - 1.0 / cap) <= 1e-12 / cap

    def test_partial_overlap_converges_by_pivoting(self):
        # the reference energies are those of projected gradient, the
        # engine this pivoting replaced
        sc = partial_overlap_scenario()
        assert [len(p.nodes) for p in sc.spec.condenser.plates[:2]] == [81, 81]
        # either plate order meets the references: a shared node is one
        # cell, whichever plate comes first
        for spec in (sc.spec, swapped(sc.spec)):
            riesz = solve_riesz(spec)
            green = solve_green_reduced(spec, sc.green)
            for res, ref in ((riesz, 2.1436314587959022),
                             (green, 2.1433763081622996)):
                assert res.converged and res.iterations <= 30
                assert res.kkt_residual <= 1e-10 and res.shared_nodes == 39
                assert abs(res.energy - ref) <= 1e-12 * ref
                for comp, total in zip(res.solution.components, spec.totals):
                    assert abs(comp.weights.sum() - total) <= 1e-12
            assert_variational_inequality(riesz, spec,
                                          np.random.default_rng(3))

    def test_solves_read_the_condenser_position_index(self, monkeypatch):
        # the positive plates' rows of the condenser's index are the index
        # a merge of their nodes alone gives, and neither solve nor the
        # lift merges by position again
        sc = partial_overlap_scenario()
        cond = sc.spec.condenser
        n = cond.slices[-1].start
        _, alone = modelmod.merge_by_position(np.vstack(
            [p.nodes.positions for p in cond.plates[:-1]]))
        assert np.array_equal(cond.positions[:n], alone)
        assert np.count_nonzero(np.bincount(alone) > 1) == 39
        assert not hasattr(solvermod, "merge_by_position")
        callers = []
        merge = modelmod.merge_by_position

        def recording(positions):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return merge(positions)

        for module in (modelmod, kernelmod):
            monkeypatch.setattr(module, "merge_by_position", recording)
        green = solve_green_reduced(sc.spec, sc.green)
        lift_green_to_riesz(green, sc.spec, sc.green)
        solve_riesz(sc.spec)
        # the lift's energy reads the resultant, which merges its atoms
        assert callers and "condenser.gauss_solver" not in callers

    def test_fields_on_shared_copies(self):
        # different fields on the two plates make the split of each shared
        # node matter: a cycle of free copies is broken where mass moved
        # around it first reaches a bound
        spec = shared_node_spec()
        rng = np.random.default_rng(4)
        n0 = len(spec.condenser.plates[0].nodes)
        field = (rng.uniform(0, 0.3, n0), rng.uniform(0, 0.3, n0),
                 np.zeros(len(spec.condenser.plates[2].nodes)))
        for caps in (spec.constraint, (np.full(n0, 0.04),) * 2 + (None,)):
            fielded = ProblemSpec(spec.condenser, spec.totals, field, caps,
                                  spec.kernel)
            res = solve_riesz(fielded)
            assert res.converged and res.kkt_residual <= 1e-10
            assert kkt_report(res, fielded).max_violation <= 1e-10


class TestJointAssembly:
    @staticmethod
    def three_sets():
        # plates 0 and 1 share their first node, one cell with one radius
        rng = np.random.default_rng(7)
        a = rng.normal(size=(90, 3))
        b = np.vstack([a[:1], rng.normal(size=(70, 3)) + [1.5, 0, 0]])
        c = rng.normal(size=(110, 3)) + [5.0, 0, 0]
        radii = [rng.uniform(0.01, 0.03, len(p)) for p in (a, b, c)]
        radii[1][0] = radii[0][0]
        return [NodeSet(p, np.ones(len(p)), r)
                for p, r in zip((a, b, c), radii)]

    @classmethod
    def three_plates(cls):
        """A condenser of +1 plates on ``three_sets``."""
        return Condenser(tuple(Plate(sign=+1, nodes=ns)
                               for ns in cls.three_sets()))

    @pytest.mark.parametrize("entries", [None, 1000])
    def test_row_blocks_bit_identical(self, monkeypatch, entries):
        # the reference writes every plate-pair block whole and mirrors it
        # below the diagonal; the packed matrix is its lower triangle
        if entries is not None:
            monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", entries)
        cond = self.three_plates()
        sets = [p.nodes for p in cond.plates]
        K, slices = joint_kernel_matrix(cond, K15), cond.slices
        N = sum(len(ns) for ns in sets)
        assert K.shape == (N, N) and K.ap.shape == (N * (N + 1) // 2,)
        ref = np.empty((N, N))
        for i, si in enumerate(sets):
            for j, sj in enumerate(sets[i:], start=i):
                blk = _riesz_block(si.positions, sj.positions, K15,
                                   rho_q=sj.cell_radii)
                ref[slices[i], slices[j]] = blk
                ref[slices[j], slices[i]] = blk.T
        assert np.array_equal(K.ap, ref[np.tril_indices(N)])
        shared = K15.self_energy(sets[1].cell_radii[0])
        assert K.row(slices[1].start)[0] == shared

    def test_exterior_store_is_the_packed_writers_matrix(self, monkeypatch):
        # a context holds, in RFP form, the upper factor U of K_EE = U'U,
        # K_EE the packed writer's matrix
        monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", 1000)
        ns = self.three_sets()[2]
        P = kernelmod._packed_matrix(ns.positions, ns.cell_radii, K15)
        ctx = GreenContext(ns, K15)
        U = np.triu(dtfttr(len(ns), ctx._factor)[0])
        D = unpacked(P)
        assert np.abs(U.T @ U - D).max() <= 1e-14 * np.abs(D).max()

    def test_product_and_gathers_match_the_dense_matrix(self, monkeypatch):
        monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", 1000)
        K = joint_kernel_matrix(self.three_plates(), K15)
        D = unpacked(K)
        x = np.random.default_rng(3).normal(size=K.shape[0])
        assert np.abs(K @ x - D @ x).max() <= 1e-14 * np.abs(D @ x).max()
        assert np.array_equal(packed(D).ap, K.ap)
        for F in (np.arange(K.shape[0]), np.flatnonzero(x > 0.3)):
            out = np.zeros((len(F), len(F)))
            K.gather_lower(F, out)
            assert np.array_equal(out, np.tril(D[np.ix_(F, F)]))


def test_riesz_solve_peaks_near_one_dense_copy():
    # 825 joint nodes: packed float64 4N^2 plus RFP float32 2N^2 bytes, so
    # the traced peak is about three quarters of one dense copy
    sc = example_one(resolution=0.5, truncation=3.0)
    N = sum(len(p.nodes) for p in sc.spec.condenser.plates)
    assert N == 825
    tracemalloc.start()
    try:
        assert solve_riesz(sc.spec).converged
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.9 * 8.0 * N * N


class TestExactFinish:
    def test_zero_free_and_capped_nodes(self):
        spec, caps0 = fielded_capped_spec(2.0)
        res = solve_riesz(spec)
        assert res.converged
        assert res.kkt_residual <= 1e-10
        w = res.solution.components[0].weights
        margin = pgmod.FREE_MARGIN_REL
        zero, capped = w <= margin, w >= caps0 - margin
        assert zero.any() and capped.any() and (~zero & ~capped).any()
        assert_variational_inequality(res, spec, np.random.default_rng(2))

    def test_rejected_start_then_finish(self, finish_attempts):
        # the all-free start pattern puts more than their cap on some nodes;
        # pivoting from that solve ends the solve in a few pattern solves
        spec, caps0 = fielded_capped_spec(1.3)
        res = solve_riesz(spec)
        first = finish_attempts[0][:len(caps0)]
        assert np.any(first > caps0)
        assert res.converged and res.kkt_residual <= 1e-10
        assert res.iterations == len(finish_attempts) >= 2
        # the start's solve stops at its first correction: no trace row
        assert res.trace[-1, 0] == res.iterations
        assert len(res.trace) < res.iterations

    @pytest.mark.parametrize("name", ["capped-1.3", "capped-2.0", "ballinball"])
    def test_single_exchanges_match_block_pivoting(self, monkeypatch, name):
        spec = {"capped-1.3": lambda: fielded_capped_spec(1.3)[0],
                "capped-2.0": lambda: fielded_capped_spec(2.0)[0],
                "ballinball": lambda: ball_in_ball(
                    alpha=2.0, resolution=0.3, truncation=3.0).spec}[name]()
        block = solve_riesz(spec)
        single_exchanges(monkeypatch)
        single = solve_riesz(spec)
        assert block.converged and single.converged
        assert single.iterations > block.iterations
        for a, b in zip(block.solution.components,
                        single.solution.components):
            np.testing.assert_allclose(a.weights, b.weights, rtol=0,
                                       atol=1e-12)
        assert abs(block.energy - single.energy) <= 1e-14 * abs(single.energy)

    def test_dropped_node_freed_again(self, monkeypatch):
        A, b, caps = seeded_qp()
        moves = []
        original = pgmod._next_pattern

        def record(w, caps_, free, move, direction, forest):
            out = original(w, caps_, free, move, direction, forest)
            moves.append((free, *out))
            return out

        monkeypatch.setattr(pgmod, "_next_pattern", record)
        args = (A, b, [slice(0, len(b))], [1.0], caps, DEFAULT_TOLERANCES)
        res = pgmod.minimize_quadratic(*args)
        assert res.converged and res.kkt_residual <= 1e-10
        dropped = np.zeros(len(b), dtype=bool)
        freed_again = np.zeros(len(b), dtype=bool)
        for free, new, fixed in moves:
            freed_again |= new & ~free & dropped
            dropped |= free & ~new & (fixed == 0.0)
        assert freed_again.any()
        single_exchanges(monkeypatch)
        single = pgmod.minimize_quadratic(*args)
        np.testing.assert_allclose(res.w, single.w, rtol=0, atol=1e-12)
        assert abs(res.objective - single.objective) <= \
            1e-14 * abs(single.objective)

    @pytest.mark.parametrize("qp", ["seeded", "two-variable",
                                    "caps-realize-total"])
    def test_one_factor_per_pattern_solve(self, monkeypatch, qp):
        # a first correction that strands a plate's last free node outside
        # its bounds moves nothing, so the solve refines on that factor
        A, b, caps, total, expected = {
            "seeded": lambda: (*seeded_qp(), 1.0, None),
            "two-variable": lambda: (packed(np.eye(2)),
                                     -np.array([3.0, 0.0]),
                                     np.array([1.0, np.inf]), 2.0, [1.0, 1.0]),
            "caps-realize-total": lambda: (
                packed(np.eye(3)), -np.array([5.0, -1.0, 2.0]),
                np.array([0.25, 0.5, 0.25]), 1.0, [0.25, 0.5, 0.25])}[qp]()
        calls = []
        original = pgmod._free_block_solver

        def count(*solver_args):
            calls.append(solver_args)
            return original(*solver_args)

        monkeypatch.setattr(pgmod, "_free_block_solver", count)
        res = pgmod.minimize_quadratic(A, b, [slice(0, len(b))], [total],
                                       caps, DEFAULT_TOLERANCES)
        assert res.converged and res.kkt_residual <= 1e-10
        assert len(calls) == res.iterations
        if expected is not None:
            np.testing.assert_allclose(res.w, expected, rtol=0, atol=1e-14)

    def test_revisited_pattern_runs_out_of_rounds(self, monkeypatch):
        # every round points back to its own pattern, so the pivoting takes
        # its whole round budget and does not converge
        spec, _ = fielded_capped_spec(2.0)
        monkeypatch.setattr(pgmod, "_next_pattern",
                            lambda w, caps, free, move, direction, forest:
                            (free, np.where(free, 0.0, np.clip(w, 0.0, caps))))
        res = solve_riesz(replace(spec, tolerances=replace(
            DEFAULT_TOLERANCES, max_iters=7)))
        assert not res.converged and res.iterations == 7
        for comp, cap in zip(res.solution.components, spec.constraint):
            assert np.all((comp.weights >= 0.0) & (comp.weights <= cap))

    def test_plate_without_free_node_keeps_its_weights(self):
        # the minimizer (0.5, 0.5, 0) has every node at zero or at its cap;
        # its constant is the midpoint of the potentials (-0.5 at the caps,
        # 1 at zero)
        A, b = packed(np.eye(3)), np.array([-1.0, -1.0, 1.0])
        caps = np.full(3, 0.5)
        res = pgmod.minimize_quadratic(A, b, [slice(0, 3)], [1.0], caps,
                                       DEFAULT_TOLERANCES)
        assert res.converged and res.kkt_residual == 0.0
        assert res.w.tolist() == [0.5, 0.5, 0.0]
        assert res.constants.tolist() == [0.25]

    def test_indefinite_block_falls_back(self, finish_attempts):
        # the free block has no Cholesky factor (eigenvalues 3 and -1), yet
        # the QP is convex on the simplex, where q = 6 t^2 - 0.2 t + const
        # along w = (0.5 + t, 0.5 - t): the bordered LDL' solve takes it
        A = packed([[1.0, -2.0], [-2.0, 1.0]])
        b = np.array([-0.1, 0.0])
        res = pgmod.minimize_quadratic(A, b, [slice(0, 2)], [1.0],
                                       np.full(2, np.inf), DEFAULT_TOLERANCES)
        assert len(finish_attempts) == 1
        assert res.converged and res.kkt_residual <= 1e-10
        t = 0.1 / 6.0
        assert np.allclose(res.w, [0.5 + t, 0.5 - t], atol=1e-14)

    def test_nonconvex_face_raises(self):
        # q = -2 t^2 - 0.2 t + const along w = (0.5 + t, 0.5 - t): the
        # bordered solve alone would return its stationary maximum
        # (0.45, 0.55) as converged
        A = packed([[1.0, 2.0], [2.0, 1.0]])
        b = np.array([-0.1, 0.0])
        with pytest.raises(NonConvexError) as info:
            pgmod.minimize_quadratic(A, b, [slice(0, 2)], [1.0],
                                     np.full(2, np.inf), DEFAULT_TOLERANCES)
        assert info.value.exit_code == 5


class TestBorderedSolver:
    @staticmethod
    def random_spd(n=10):
        X = np.random.default_rng(12).normal(size=(n, n))
        return X @ X.T / n + 0.1 * np.eye(n)

    @pytest.mark.parametrize("copies", [False, True])
    def test_matches_the_dense_solve(self, copies):
        # with copies, node 9 repeats node 3 on the other plate: A_FF is
        # singular, the bordered matrix is not
        D = self.random_spd()
        if copies:
            D[9] = D[3]
            D[:, 9] = D[:, 3]
        F, fp = np.array([0, 2, 3, 5, 6, 9]), np.array([0, 0, 0, 1, 1, 1])
        n, q = len(F), 2
        M = np.zeros((n + q, n + q))
        M[:n, :n] = D[np.ix_(F, F)]
        M[np.arange(n), n + fp] = M[n + fp, np.arange(n)] = 1.0
        assert (np.linalg.matrix_rank(M[:n, :n]) < n) == copies
        rng = np.random.default_rng(13)
        r, m = rng.normal(size=n), rng.normal(size=q)
        dw, dc = pgmod._bordered_solver(packed(D), F, fp, q)(r, m)
        x = np.linalg.solve(M, np.concatenate([r, m]))
        np.testing.assert_allclose(np.concatenate([dw, -dc]), x, rtol=0,
                                   atol=1e-12 * np.abs(x).max())

    def test_indefinite_face_raises(self):
        D = self.random_spd()
        D[2, 2] = -5.0
        with pytest.raises(NonConvexError):
            pgmod._bordered_solver(packed(D), np.array([1, 2, 4]),
                                   np.zeros(3, dtype=int), 1)


class TestFreeBlockFactor:
    @staticmethod
    def random_symmetric(n, seed=14):
        X = np.random.default_rng(seed).normal(size=(n, n))
        return X @ X.T / n + np.eye(n)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_rfp_writer_matches_stpttf(self, n):
        # F whole reads each packed row as it lies; a strict subset reads
        # the rows of A[F][:, F], and both land where LAPACK's stpttf puts
        # them
        whole = self.random_symmetric(n)
        D = self.random_symmetric(n + 3)
        F = np.sort(np.random.default_rng(n).choice(n + 3, n, replace=False))
        for A, idx, sub in ((whole, np.arange(n), whole), (D, F, D[F][:, F])):
            ref, info = stpttf(n, packed(sub).ap.astype(np.float32),
                               transr="N", uplo="U")
            assert info == 0
            assert packed(A).gather_rfp(idx).tobytes() == ref.tobytes()

    def test_first_correction_matches_the_dense_solve(self, monkeypatch):
        # the RFP factor alone: a call of the bordered solver would fail
        monkeypatch.setattr(pgmod, "_bordered_solver", None)
        D = self.random_symmetric(12)
        F, fp = np.array([0, 1, 3, 4, 6, 8, 9, 11]), np.repeat([0, 1], 4)
        n, q = len(F), 2
        M = np.zeros((n + q, n + q))
        M[:n, :n] = D[np.ix_(F, F)]
        M[np.arange(n), n + fp] = M[n + fp, np.arange(n)] = 1.0
        rng = np.random.default_rng(15)
        r, m = rng.normal(size=n), rng.normal(size=q)
        dw, dc = pgmod._free_block_solver(packed(D), F, fp, q, False)(r, m)
        x = np.linalg.solve(M, np.concatenate([r, m]))
        bound = 10.0 * np.linalg.cond(M) * np.finfo(np.float32).eps
        np.testing.assert_allclose(np.concatenate([dw, -dc]), x, rtol=0,
                                   atol=bound * np.abs(x).max())

    @pytest.mark.parametrize("off", [2.0, 1.0 - 1e-9])
    def test_block_without_float32_factor_goes_bordered(self, monkeypatch,
                                                        off):
        # spftrf reports a failed factor through info, not an exception:
        # an indefinite block, and one positive definite in float64 whose
        # off-diagonal entries round to 1 in float32, have no factor
        D = np.array([[1.0, off], [off, 1.0]])
        assert (np.linalg.eigvalsh(D).min() > 0.0) == (off < 1.0)
        F, fp = np.arange(2), np.arange(2)
        assert pgmod._free_block_factor(packed(D), F) is None
        calls = []
        original = pgmod._bordered_solver

        def count(*solver_args):
            calls.append(solver_args)
            return original(*solver_args)

        monkeypatch.setattr(pgmod, "_bordered_solver", count)
        r, m = np.array([0.3, -0.2]), np.array([0.6, 0.4])
        dw, dc = pgmod._free_block_solver(packed(D), F, fp, 2, False)(r, m)
        assert len(calls) == 1
        # E is the identity here: dw = m and D dw - dc = r
        np.testing.assert_allclose(dw, m, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dc, D @ m - r, rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def small_green_setup():
    ball = ball_volume_nodes((0, 0, 0), 1.0, 0.3)
    exterior = ball_complement_nodes((0, 0, 0), 1.0, 12.0, 0.3)
    cond = Condenser(tuple(trim_across_plates([
        Plate(sign=1, nodes=ball,
              spec=PlateSpec(tag="ball", sign=1, radius=1.0)),
        Plate(sign=-1, nodes=exterior,
              spec=PlateSpec(tag="ball_complement", sign=-1, radius=1.0,
                             truncation=12.0))])))
    ctx = GreenContext(cond.plates[1].nodes, K15)
    return cond, ctx


class TestSolveGreen:
    def test_single_plate_equilibrium_and_constant_potential(self,
                                                             small_green_setup):
        cond, ctx = small_green_setup
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K15)
        res = solve_green_reduced(spec, ctx)
        assert res.converged
        # Green-kernel equilibrium: potential constant on carried nodes
        G, _ = ctx.green_matrix(cond.plates[0].nodes)
        w = res.solution.components[0].weights
        pot = G @ w
        carried = w > 1e-8
        spread = pot[carried].max() - pot[carried].min()
        assert spread <= 1e-5 * max(1.0, abs(np.median(pot[carried])))

    def test_case2_objective_identity(self, small_green_setup):
        # reduced objective with a swept field equals the grounded-norm form
        cond, ctx = small_green_setup
        ball = cond.plates[0].nodes
        rng = np.random.default_rng(11)
        zw = rng.random(len(ball)) * 0.3
        zeta = DiscreteMeasure(ball, zw)
        spec = ProblemSpec(cond, (1.0, 1.0), green_field(zeta, cond, ctx),
                           (None, None), K15)
        fvals = spec.field[0]
        G, _ = ctx.green_matrix(ball)
        for _ in range(4):
            w = rng.random(len(ball))
            lhs = float(w @ (G @ w)) + 2.0 * float(fvals @ w)
            # || R mu + zeta ||_g^2 - || zeta ||_g^2 via the Green matrix
            combo = w + zw
            rhs = float(combo @ (G @ combo)) - float(zw @ (G @ zw))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_plates_sharing_nodes(self):
        # two positive plates on the same nodes, unequal masses, in either
        # order: the Green matrix has a row and column per copy, and the
        # optimum is the Green equilibrium energy of their total mass
        shared = shared_node_spec()
        spec = ProblemSpec(shared.condenser, (0.3, 0.7, 1.0), None,
                           (None,) * 3, shared.kernel)
        nodes = spec.condenser.plates[0].nodes
        ctx = GreenContext(spec.condenser.plates[2].nodes, spec.kernel)
        energies = []
        for ordered in (spec, swapped(spec)):
            res = solve_green_reduced(ordered, ctx)
            assert res.converged and res.shared_nodes == len(nodes)
            energies.append(res.energy)
        assert abs(energies[1] - energies[0]) <= 1e-12 * energies[0]
        G, _ = ctx.green_matrix(nodes)
        _, cap = equilibrium_measure(nodes, spec.kernel, 1.0, matrix=G)
        assert energies[0] == pytest.approx(1.0 / cap, rel=1e-8)

    def test_riesz_green_chain_inequality(self, small_green_setup):
        cond, ctx = small_green_setup
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K15)
        riesz = solve_riesz(spec)
        green = solve_green_reduced(spec, ctx)
        assert riesz.energy >= green.energy - 1e-6 * max(1.0, abs(green.energy))
        lift = lift_green_to_riesz(green, spec, ctx)
        gap = abs(lift.energy - green.energy) / max(abs(green.energy), 1.0)
        assert gap <= max(1e-4, 3.0 * lift.balayage_residual) + \
            lift.lift_mass_defect

    def test_lift_needs_the_negative_plates_context(self,
                                                    small_green_setup):
        cond, ctx = small_green_setup
        spec = ProblemSpec(cond, (1.0, 1.0), None, (None, None), K15)
        green = solve_green_reduced(spec, ctx)
        other = GreenContext(sphere_surface_nodes((0, 0, 0), 2.0, 60), K15)
        with pytest.raises(AlignmentError):
            lift_green_to_riesz(green, spec, other)

    def test_lift_of_zero_positive_mass(self, small_green_setup):
        cond, ctx = small_green_setup
        zero = DiscreteMeasure(cond.plates[0].nodes,
                               np.zeros(len(cond.plates[0].nodes)))
        _, theta = ctx._potential_and_sweep(zero)
        assert np.allclose(theta, 0.0, atol=1e-300)


@pytest.fixture(scope="module")
def sigma_setup(small_green_setup):
    cond, _ = small_green_setup
    ctx2 = GreenContext(cond.plates[1].nodes, K2)
    lam, _ = equilibrium_measure(cond.plates[0].nodes, K2, 1.0)
    caps0 = 1.5 * lam.weights
    spec = ProblemSpec(cond, (1.0, 1.0), None,
                       (caps0, None), K2)
    xi_res = solve_riesz(spec)
    swept = swept_positive_caps(spec, ctx2)
    return cond, ctx2, caps0, spec, xi_res, swept


class TestSigmaVariant:
    def test_exact_balayage_cap_matches_xi_optimum(self, sigma_setup):
        cond, ctx2, caps0, spec, xi_res, swept = sigma_setup
        spec_sigma = ProblemSpec(cond, (1.0, 1.0), None,
                                 (caps0, swept), K2)
        check_sigma_domination(spec_sigma, ctx2)
        res = solve_riesz(spec_sigma)
        assert res.converged
        rel = abs(res.energy - xi_res.energy) / max(abs(xi_res.energy), 1.0)
        assert rel < 1e-6
        d = semimetric_distance(res.solution, xi_res.solution, K2)
        norm = math.sqrt(mutual_energy(xi_res.solution, xi_res.solution, K2))
        assert d <= 1e-4 * norm

    def test_slack_cap_same_optimum(self, sigma_setup):
        cond, ctx2, caps0, spec, xi_res, swept = sigma_setup
        spec_sigma = ProblemSpec(cond, (1.0, 1.0), None,
                                 (caps0, 2.0 * swept), K2)
        check_sigma_domination(spec_sigma, ctx2)
        res = solve_riesz(spec_sigma)
        rel = abs(res.energy - xi_res.energy) / max(abs(xi_res.energy), 1.0)
        assert rel < 1e-8

    def test_domination_failure_raises(self, sigma_setup):
        cond, ctx2, caps0, spec, xi_res, swept = sigma_setup
        # feasible total but nodewise below the swept caps at the peak
        sigma = 1.3 * swept
        sigma[np.argmax(swept)] = 0.1 * swept.max()
        assert sigma.sum() > 1.0
        bad = ProblemSpec(cond, (1.0, 1.0), None,
                          (caps0, sigma), K2)
        with pytest.raises(SigmaDominationError):
            check_sigma_domination(bad, ctx2)

    def test_uncapped_positive_plate_cannot_be_dominated(self, sigma_setup):
        cond, ctx2, caps0, spec, xi_res, swept = sigma_setup
        uncapped = ProblemSpec(cond, (1.0, 1.0), None,
                               (None, 2.0 * swept), K2)
        with pytest.raises(SigmaDominationError):
            check_sigma_domination(uncapped, ctx2)
