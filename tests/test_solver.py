import math
from dataclasses import replace

import numpy as np
import pytest

from condenser.balayage import GreenContext
from condenser.errors import (AlignmentError, DuplicateNodeError,
                              InfeasibleError, SigmaDominationError)
from condenser import _pg as pgmod
from condenser import model as modelmod
from condenser._pg import project_capped_simplex
from condenser.gauss_solver import (ProblemSpec, check_sigma_domination,
                                    joint_kernel_matrix, lift_green_to_riesz,
                                    solve_green_reduced, solve_riesz,
                                    swept_positive_caps)
from condenser.kernel import (_riesz_block, assemble_matrix,
                              equilibrium_measure, gauss_functional,
                              mutual_energy, potential)
from condenser.model import (Condenser, DiscreteMeasure, KernelSpec, NodeSet,
                             Plate, PlateSpec, VectorMeasure,
                             ball_complement_nodes, ball_volume_nodes,
                             semimetric_distance, sphere_surface_nodes,
                             trim_across_plates)
from condenser.scenarios import build_scenario
from condenser.tolerances import DEFAULT_TOLERANCES
from condenser.verify import kkt_report, weighted_potentials

from _probes import green_field

K2 = KernelSpec(3, 2.0)
K15 = KernelSpec(3, 1.5)


def shared_node_spec():
    """Two positive plates on the same toy-ball nodes against the ball's
    complement.  Their rows of the joint kernel matrix coincide, so the free
    block is singular, the exact finish never applies and projected gradient
    alone ends the solve."""
    ball = {"geometry": "ball", "sign": 1, "radius": 1.0}
    return build_scenario({
        "kernel": {"n": 3, "alpha": 1.5}, "resolution": 0.5,
        "truncation": 3.0, "totals": [0.5, 0.5, 1.0],
        "plates": [ball, ball, {"geometry": "ball_complement", "sign": -1,
                                "radius": 1.0}],
        "constraint": [{"mode": "unbounded"}] * 3}).spec


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


def assert_variational_inequality(res, spec, caps0, rng):
    """At the minimizer, sum_i <W^i, mu^i - lambda^i> >= 0 for feasible mu
    (unit masses, plate 0 capped by caps0, plate 1 uncapped)."""
    W = weighted_potentials(res.solution, spec)
    n1 = len(spec.condenser.plates[1].nodes)
    scale = max(1.0, float(np.abs(res.constants).max()))
    for _ in range(25):
        mu0 = project_capped_simplex(rng.random(len(caps0)) * caps0,
                                     caps0, 1.0)
        mup = project_capped_simplex(rng.random(n1), np.full(n1, np.inf), 1.0)
        val = float(W[0] @ (mu0 - res.solution.components[0].weights)) + \
            float(W[1] @ (mup - res.solution.components[1].weights))
        assert val >= -1e-6 * scale


class TestCappedSimplexProjection:
    def test_fixed_point(self):
        w = np.array([0.2, 0.3, 0.5])
        caps = np.array([1.0, 1.0, 1.0])
        assert np.allclose(project_capped_simplex(w, caps, 1.0), w, atol=1e-14)

    def test_uniform_from_zero(self):
        got = project_capped_simplex(np.zeros(5), np.full(5, np.inf), 2.0)
        assert np.allclose(got, 0.4)

    def test_two_variable_derived(self):
        got = project_capped_simplex(np.array([3.0, 0.0]),
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
        got = project_capped_simplex(w, caps, total)
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
        v = project_capped_simplex(w, caps, total)
        base = np.linalg.norm(w - v)
        for _ in range(50):
            u = rng.uniform(0, 1, m) * caps
            u = brute_force_projection(u, caps, total)
            assert np.linalg.norm(w - u) >= base - 1e-9

    def test_caps_exactly_realize_total(self):
        caps = np.array([0.25, 0.5, 0.25])
        got = project_capped_simplex(np.array([5.0, -1.0, 2.0]), caps, 1.0)
        assert np.allclose(got, caps, atol=1e-14)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            project_capped_simplex(np.zeros(3), np.full(3, 0.1), 1.0)


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
        exterior = ball_complement_nodes((0, 0, 0), 1.0, 8.0, 0.3)
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
        # mass stacked on the first node initially
        cond = small_condenser(seed=3)
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K2)
        res = solve_riesz(spec)
        K, slices = joint_kernel_matrix([p.nodes for p in cond.plates], K2)
        s = np.concatenate([np.full(len(p.nodes), float(p.sign))
                            for p in cond.plates])
        A = K * np.outer(s, s)
        L = 2.0 * np.linalg.eigvalsh(A)[-1]
        w = np.zeros(A.shape[0])
        w[slices[0].start] = 1.0
        w[slices[1].start] = 1.0
        for _ in range(30_000):
            g = 2.0 * (A @ w)
            w = w - g / L
            for sl in slices:
                w[sl] = project_capped_simplex(w[sl], np.full(sl.stop - sl.start,
                                                              np.inf), 1.0)
        ref_energy = float(w @ A @ w)
        assert abs(res.energy - ref_energy) / abs(ref_energy) < 1e-4

    def test_feasible_and_monotone_trace(self):
        cond = small_condenser(seed=4)
        rng = np.random.default_rng(0)
        caps0 = rng.uniform(0.05, 0.2, len(cond.plates[0].nodes))
        caps0 *= 1.7 / caps0.sum()
        capped = ProblemSpec(cond, (1.0, 1.0), None,
                             (caps0, None), K2)
        for spec in (capped, shared_node_spec()):
            res = solve_riesz(spec)
            assert res.converged
            for i, total in enumerate(spec.totals):
                w = res.solution.components[i].weights
                assert abs(w.sum() - total) <= 1e-10 * max(1.0, total)
                assert np.all((w >= 0) & (w <= spec.constraint[i] + 1e-12))
            obj = res.trace[:, 1]
            assert np.all(np.diff(obj) <=
                          1e-12 * np.maximum(np.abs(obj[:-1]), 1.0))
        # the shared-node trace is a long PG run, not a finish's few rows
        assert not res.exact_finish and len(res.trace) > 20

    def test_variational_inequality(self):
        cond = small_condenser(seed=5)
        rng = np.random.default_rng(2)
        caps0 = rng.uniform(0.05, 0.2, len(cond.plates[0].nodes))
        caps0 *= 2.0 / caps0.sum()
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (caps0, None), K2)
        assert_variational_inequality(solve_riesz(spec), spec, caps0, rng)

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
        # repeated inside one plate would make the joint matrix singular
        shared = NodeSet([[0, 0, 0], [1, 0, 0]], np.ones(2), np.full(2, 0.05))
        neg = NodeSet([[4, 0, 0], [4, 1, 0]], np.ones(2), np.full(2, 0.05))
        cond = Condenser((Plate(sign=+1, nodes=shared),
                          Plate(sign=+1, nodes=shared),
                          Plate(sign=-1, nodes=neg)))
        spec = ProblemSpec(cond, (0.5, 0.5, 1.0), None,
                           (None, None, None), K2)
        assert solve_riesz(spec).converged
        repeated = shared.subset([0, 1, 1])
        cond = Condenser((Plate(sign=+1, nodes=repeated),
                          Plate(sign=-1, nodes=neg)))
        spec = ProblemSpec(cond, (1.0, 1.0), None,
                           (None, None), K2)
        with pytest.raises(DuplicateNodeError):
            solve_riesz(spec)

    def test_max_iters_flagged_not_raised(self):
        # a KKT bound below double roundoff, which neither PG nor the exact
        # finish can meet
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


@pytest.fixture
def finish_attempts(monkeypatch):
    """Weights returned by every exact-finish attempt (None: no factor)."""
    attempts = []
    original = pgmod._exact_finish

    def record(*args):
        out = original(*args)
        attempts.append(out[0])
        return out

    monkeypatch.setattr(pgmod, "_exact_finish", record)
    return attempts


class TestBacktrackingFallback:
    def test_failed_bursts_fall_back_to_descent(self, monkeypatch,
                                                finish_attempts):
        # one BB step per burst, so a step that raises the objective fails
        # its burst; two plates on the same nodes make every free block
        # singular, so no exact finish ends the solve
        monkeypatch.setattr(pgmod, "BURST", 1)
        nodes = ball_volume_nodes((0, 0, 0), 1.0, 0.5)
        K = assemble_matrix(nodes, K15).entries
        m = len(nodes)
        res = pgmod.minimize_quadratic(
            np.block([[K, K], [K, K]]), None, [slice(0, m), slice(m, 2 * m)],
            [0.5, 0.5], np.full(2 * m, np.inf), DEFAULT_TOLERANCES)
        assert res.converged and not res.exact_finish
        assert finish_attempts and all(w is None for w in finish_attempts)
        # an outer iteration takes one matvec in its burst and one more
        # when it falls back; the start point takes one
        assert res.matvecs - 1 - res.iterations > 0
        assert np.all(np.diff(res.trace[:, 1]) <= 0.0)
        # the plates' sum is the unit equilibrium measure of the nodes
        _, cap = equilibrium_measure(nodes, K15, 1.0)
        assert abs(res.objective - 1.0 / cap) <= 1e-8 / cap


class TestJointAssembly:
    @pytest.mark.parametrize("entries", [None, 1000])
    def test_row_blocks_bit_identical(self, monkeypatch, entries):
        # plates 0 and 1 share their first node; the reference writes every
        # plate-pair block whole and mirrors it below the diagonal
        if entries is not None:
            monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(90, 3))
        b = np.vstack([a[:1], rng.normal(size=(70, 3)) + [1.5, 0, 0]])
        c = rng.normal(size=(110, 3)) + [5.0, 0, 0]
        sets = [NodeSet(p, np.ones(len(p)), rng.uniform(0.01, 0.03, len(p)))
                for p in (a, b, c)]
        K, slices = joint_kernel_matrix(sets, K15)
        ref = np.empty_like(K)
        for i, si in enumerate(sets):
            for j, sj in enumerate(sets[i:], start=i):
                blk = _riesz_block(si.positions, sj.positions, K15,
                                   rho_q=sj.cell_radii)
                ref[slices[i], slices[j]] = blk
                ref[slices[j], slices[i]] = blk.T
        assert np.array_equal(K, ref)
        shared = K15.self_energy(sets[1].cell_radii[0])
        assert K[0, slices[1].start] == K[slices[1].start, 0] == shared


class TestExactFinish:
    def test_zero_free_and_capped_nodes(self):
        spec, caps0 = fielded_capped_spec(2.0)
        res = solve_riesz(spec)
        assert res.converged and res.exact_finish
        assert res.kkt_residual <= 1e-10
        w = res.solution.components[0].weights
        margin = pgmod.FREE_MARGIN_REL
        zero, capped = w <= margin, w >= caps0 - margin
        assert zero.any() and capped.any() and (~zero & ~capped).any()
        assert_variational_inequality(res, spec, caps0,
                                      np.random.default_rng(2))

    def test_rejected_start_then_finish(self, finish_attempts):
        # the all-free start pattern puts more than their cap on some nodes
        spec, caps0 = fielded_capped_spec(1.3)
        res = solve_riesz(spec)
        first = finish_attempts[0][:len(caps0)]
        assert np.any(first > caps0)
        assert len(finish_attempts) >= 2
        assert res.converged and res.exact_finish
        assert res.kkt_residual <= 1e-10
        obj = res.trace[:, 1]
        assert np.all(np.diff(obj) <= 0.0)

    def test_plate_without_free_node_falls_back(self):
        # the minimizer (0.5, 0.5, 0) has every node at zero or at its cap
        A, b = np.eye(3), np.array([-1.0, -1.0, 1.0])
        caps = np.full(3, 0.5)
        res = pgmod.minimize_quadratic(A, b, [slice(0, 3)], [1.0], caps,
                                       DEFAULT_TOLERANCES)
        assert res.converged and not res.exact_finish
        assert np.allclose(res.w, [0.5, 0.5, 0.0], atol=1e-12)
        free, fixed = pgmod._pattern(res.w, caps, [slice(0, 3)], [1.0])
        assert not free.any()
        assert pgmod._exact_finish(A, b, [slice(0, 3)], [1.0], free,
                                   fixed)[0] is None

    def test_indefinite_block_falls_back(self, finish_attempts):
        # the free block has no Cholesky factor (eigenvalues 3 and -1), yet
        # the QP is convex on the simplex, where q = 6 t^2 - 0.2 t + const
        # along w = (0.5 + t, 0.5 - t)
        A = np.array([[1.0, -2.0], [-2.0, 1.0]])
        b = np.array([-0.1, 0.0])
        res = pgmod.minimize_quadratic(A, b, [slice(0, 2)], [1.0],
                                       np.full(2, np.inf), DEFAULT_TOLERANCES)
        assert finish_attempts == [None]
        assert res.converged and not res.exact_finish
        t = 0.1 / 6.0
        assert np.allclose(res.w, [0.5 + t, 0.5 - t], atol=1e-10)


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
            lhs = float(w @ G @ w) + 2.0 * float(fvals @ w)
            # || R mu + zeta ||_g^2 - || zeta ||_g^2 via the Green matrix
            combo = w + zw
            rhs = float(combo @ G @ combo) - float(zw @ G @ zw)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_plates_sharing_nodes(self):
        # two positive plates on the same nodes read the merged Green matrix
        # through the plate index; the optimum is the Green equilibrium
        # energy of their total mass
        spec = shared_node_spec()
        nodes = spec.condenser.plates[0].nodes
        ctx = GreenContext(spec.condenser.plates[2].nodes, spec.kernel)
        res = solve_green_reduced(spec, ctx)
        assert res.converged
        G, _ = ctx.green_matrix(nodes)
        _, cap = equilibrium_measure(nodes, spec.kernel, 1.0, matrix=G)
        assert res.energy == pytest.approx(1.0 / cap, rel=1e-8)

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

    def test_lift_of_zero_positive_mass(self, small_green_setup):
        cond, ctx = small_green_setup
        zero = DiscreteMeasure(cond.plates[0].nodes,
                               np.zeros(len(cond.plates[0].nodes)))
        theta = ctx.sweep_weights(zero)
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
