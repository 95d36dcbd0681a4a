import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, solve_triangular
from scipy.linalg.lapack import dpftrs, dtfttr
from scipy.optimize import nnls

from condenser import _pg as pgmod
from condenser import balayage as balayagemod
from condenser import model as modelmod
from condenser.balayage import (GreenContext, balayage_oracle_halfspace,
                                balayage_project)
from condenser.errors import UnsupportedKernel
from condenser.gauss_solver import lift_green_to_riesz, solve_green_reduced
from condenser.kernel import equilibrium_measure, mutual_energy, potential
from condenser.model import (DiscreteMeasure, KernelSpec, NodeSet,
                             _concat_nodesets, ball_complement_nodes,
                             ball_volume_nodes, graded_plane_nodes,
                             sphere_surface_nodes, trim_cell_radii)
from condenser.scenarios import ball_in_ball

from _probes import (green_energy_identity_check, kernel_matrix,
                     mass_conservation_probe, unpacked)

K2 = KernelSpec(3, 2.0)
K15 = KernelSpec(3, 1.5)


def point_measure(points, weights, radius=0.04):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    ns = NodeSet(pts, np.ones(len(w)), np.full(len(w), radius))
    return DiscreteMeasure(ns, w)


def exterior_matrix(ctx):
    """K_EE of a context, assembled afresh from its exterior nodes."""
    return kernel_matrix(ctx.exterior, ctx.riesz)


def unconstrained_sweep(ctx, B):
    """K_EE^-1 B by the context's own factor."""
    return dpftrs(len(B), ctx._factor, B)[0]


def factor_lower(ctx):
    """L of K_EE = LL': the context's RFP factor U = L', unpacked."""
    return np.triu(dtfttr(len(ctx.exterior), ctx._factor)[0]).T


def green_at(ctx, x, y):
    """g(x, y): the Green potential at x of a unit atom at y that has the
    smallest exterior cell radius."""
    atom = point_measure([y], [1.0], float(ctx.exterior.cell_radii.min()))
    return float(ctx.green_potential(atom, [x])[0])


def random_ball_sources(rng, count, rmax=0.8, radius=0.04):
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rmax * rng.random((count, 1)) ** (1.0 / 3.0)
    return point_measure(pts, rng.random(count) + 0.2, radius)


@pytest.fixture(scope="module")
def plane_ctx():
    # boundary plane of {x1 > 0}, fine under the sources used below
    plane = graded_plane_nodes((0.0, 0.1, -0.2), 0.07, 60.0, axis=0,
                               growth=1.18)
    return GreenContext(plane, K2)


class TestProjection:
    def test_fixed_point_on_exterior(self, ball_ctx):
        ext = ball_ctx.exterior
        w = np.zeros(len(ext))
        w[[3, 50, 200]] = (0.5, 1.0, 0.25)
        mu = DiscreteMeasure(ext, w)
        res = balayage_project(mu, ball_ctx)
        assert np.allclose(res.swept.weights, w, atol=1e-10)
        assert res.projection_gap < 1e-6
        assert res.mass_ratio == pytest.approx(1.0, abs=1e-12)

    def test_central_atom_matches_uniform_sphere(self, ball_ctx):
        mu = point_measure([[0.0, 0.0, 0.0]], [1.0])
        res = balayage_project(mu, ball_ctx)
        ext = ball_ctx.exterior
        first = ext.layer_index == 0
        oracle = np.where(first, ext.quad_weights / (4.0 * math.pi), 0.0)
        tv = 0.5 * np.abs(res.swept.weights - oracle).sum()
        assert tv < 0.01
        assert 0.99 <= res.mass_ratio <= 1.01

    def test_halfspace_matches_poisson_oracle(self, plane_ctx):
        y = np.array([0.7, 0.1, -0.2])
        mu = point_measure([y], [1.0])
        res = balayage_project(mu, plane_ctx)
        oracle = balayage_oracle_halfspace(y, plane_ctx.exterior, K2)
        tv = 0.5 * np.abs(res.swept.weights - oracle.weights).sum()
        assert tv < 0.02

    def test_projection_optimality_against_random_feasible(self, ball_ctx):
        rng = np.random.default_rng(0)
        mu = random_ball_sources(rng, 10)
        res = balayage_project(mu, ball_ctx)
        base = res.projection_gap
        kee = exterior_matrix(ball_ctx)
        B = ball_ctx._cross_matrix(mu.nodes)
        b = B @ mu.weights
        e_mu = mutual_energy(mu, mu, K2)

        def gap(theta):
            return math.sqrt(max(
                e_mu - 2.0 * float(theta @ b) + float(theta @ kee @ theta), 0.0))

        for _ in range(15):
            theta = res.swept.weights * rng.uniform(0.8, 1.2, len(kee))
            assert gap(theta) >= base - 1e-9
            theta = np.maximum(
                res.swept.weights + rng.normal(0, 1e-3, len(kee)), 0.0)
            assert gap(theta) >= base - 1e-9

    def test_linearity_in_the_source(self, ball_ctx):
        # alpha = 1.5 keeps the swept weights interior-positive, making the
        # cone projection exactly additive
        ctx = GreenContext(ball_ctx.exterior, K15)
        a = point_measure([[0.3, 0.0, 0.0]], [1.0])
        b = point_measure([[0.0, -0.4, 0.2]], [1.0])
        both = point_measure([[0.3, 0.0, 0.0], [0.0, -0.4, 0.2]], [0.7, 1.4])
        ra = balayage_project(a, ctx)
        rb = balayage_project(b, ctx)
        rab = balayage_project(both, ctx)
        combo = 0.7 * ra.swept.weights + 1.4 * rb.swept.weights
        scale = np.abs(rab.swept.weights).max()
        assert np.abs(rab.swept.weights - combo).max() < 1e-8 * scale

    def test_orthogonality(self, ball_ctx):
        rng = np.random.default_rng(1)
        mu = random_ball_sources(rng, 8)
        res = balayage_project(mu, ball_ctx)
        scale = res.projection_gap ** 2 + mutual_energy(mu, mu, K2)
        assert abs(res.orthogonality) < 1e-9 * scale

    def test_potential_residual_matches_the_dense_reference(self, ball_ctx):
        # kappa(., mu') is read from the kernel at the swept measure's
        # carried atoms; the dense K_EE theta gives the same residual (the
        # sweep clips at alpha = 2, so the residual is far from zero)
        mu = random_ball_sources(np.random.default_rng(6), 10)
        res = balayage_project(mu, ball_ctx)
        pot_mu = potential(mu, ball_ctx.exterior.positions, K2)
        pot_sw = exterior_matrix(ball_ctx) @ res.swept.weights
        ref = np.abs(pot_sw - pot_mu).max() / np.abs(pot_mu).max()
        assert res.clipped_nodes > 0 and ref > 1e-6
        assert abs(res.potential_residual - ref) <= 1e-14


class TestOracle:
    def test_total_mass_within_tolerance(self):
        y = np.array([0.7, 0.1, -0.2])
        fine = graded_plane_nodes((0.0, y[1], y[2]), 0.05, 2500.0, axis=0,
                                  growth=1.045)
        oracle = balayage_oracle_halfspace(y, fine, K2)
        assert abs(oracle.total_mass - 1.0) < 1e-3

    def test_rotational_symmetry(self):
        # density depends only on the distance to the foot of the perpendicular
        y = np.array([0.5, 0.0, 0.0])
        plane = graded_plane_nodes((0.0, 0.0, 0.0), 0.1, 30.0, axis=0)
        oracle = balayage_oracle_halfspace(y, plane, K2)
        r = np.linalg.norm(plane.positions[:, 1:], axis=1)
        dens = oracle.weights / plane.quad_weights
        order = np.argsort(r)
        rr, dd = r[order], dens[order]
        for i in range(len(rr) - 1):
            if abs(rr[i + 1] - rr[i]) < 1e-9:
                assert dd[i + 1] == pytest.approx(dd[i], rel=1e-12)

    def test_mirror_potential_identity(self):
        y = np.array([0.7, 0.1, -0.2])
        fine = graded_plane_nodes((0.0, y[1], y[2]), 0.05, 2500.0, axis=0,
                                  growth=1.045)
        oracle = balayage_oracle_halfspace(y, fine, K2)
        ystar = y.copy()
        ystar[0] = -y[0]
        got = potential(oracle, ystar[None, :], K2)[0]
        ref = 1.0 / np.linalg.norm(y - ystar)
        assert abs(got - ref) / ref < 1e-3

    def test_rejects_non_newtonian(self):
        plane = graded_plane_nodes((0, 0, 0), 0.2, 5.0, axis=0)
        with pytest.raises(UnsupportedKernel):
            balayage_oracle_halfspace([1.0, 0, 0], plane, K15)


class TestGreenKernel:
    def test_bounds(self, ball_ctx):
        x = np.array([0.3, 0.1, 0.0])
        y = np.array([-0.2, 0.4, 0.1])
        g = green_at(ball_ctx, x, y)
        kappa = 1.0 / np.linalg.norm(x - y)
        assert 0.0 < g < kappa

    def test_halfspace_reflection_formula(self):
        plane = graded_plane_nodes((0, 0, 0), 0.06, 80.0, axis=0, growth=1.15)
        ctx = GreenContext(plane, K2)
        x = np.array([0.5, -0.3, 0.4])
        y = np.array([0.7, 0.1, -0.2])
        ystar = y.copy()
        ystar[0] = -y[0]
        got = green_at(ctx, x, y)
        ref = 1.0 / np.linalg.norm(x - y) - 1.0 / np.linalg.norm(x - ystar)
        assert abs(got - ref) / abs(ref) < 0.01

    def test_matrix_symmetric_positive_definite(self, ball_ctx):
        rng = np.random.default_rng(3)
        mu = random_ball_sources(rng, 30)
        G, asym = ball_ctx.green_matrix(mu.nodes)
        assert asym < 1e-10
        D = unpacked(G)
        assert np.allclose(D, D.T)
        assert np.linalg.eigvalsh(D)[0] > 0

    def test_green_matrix_drives_equilibrium_and_energy(self, newton):
        # the Green matrix feeds the generic equilibrium solve, and the
        # whole-measure Green energy agrees with its minimum
        ext = trim_cell_radii(ball_complement_nodes((0, 0, 0), 1.0, 8.0, 0.3))
        ctx = GreenContext(ext, newton)
        rng = np.random.default_rng(6)
        mu = random_ball_sources(rng, 15)
        direct, _ = ctx.green_matrix(mu.nodes)
        lam, cap = equilibrium_measure(mu.nodes, newton, 1.0, matrix=direct)
        assert cap > 0
        assert float(lam.weights @ (direct @ lam.weights)) == \
            pytest.approx(1.0 / cap, rel=1e-10)
        # the energy sweeps the whole measure; under cone clipping it
        # differs from the per-atom matrix at the residual level only
        energy = lam.weights @ ctx.green_potential(lam, lam.nodes.positions)
        assert energy == pytest.approx(1.0 / cap, rel=1e-6)


class TestEnergyIdentities:
    def test_zero_measure(self, ball_ctx):
        mu = point_measure([[0.2, 0.0, 0.0]], [0.0])
        rep = green_energy_identity_check(mu, ball_ctx)
        assert rep["green_energy"] == pytest.approx(0.0, abs=1e-300)
        assert rep["projection_gap_sq"] == pytest.approx(0.0, abs=1e-300)
        assert rep["norm_difference"] == pytest.approx(0.0, abs=1e-300)

    def test_random_sources_agree(self, ball_ctx):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mu = random_ball_sources(rng, 12)
            rep = green_energy_identity_check(mu, ball_ctx)
            tol = max(1e-6, 3.0 * rep["potential_residual"])
            assert rep["max_deviation"] <= tol

    def test_green_norm_below_riesz_norm(self, ball_ctx):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mu = random_ball_sources(rng, 10)
            g2 = mu.weights @ ball_ctx.green_potential(mu, mu.nodes.positions)
            r2 = mutual_energy(mu, mu, K2)
            assert g2 <= r2 + 1e-12 * r2


def traced(call):
    """(bytes held by the result, peak bytes) of ``call()`` under
    tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()  # held while its bytes are counted
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before


class TestExteriorStorage:
    """A context holds only the Cholesky factor of K_EE, as one RFP
    triangle, and reads K_EE's columns from the kernel; the Green matrix is
    written as one packed triangle, a lower row block of K_DD at a time,
    corrected by the same rows of Theta' B up to the diagonal (and, when a
    column clipped, their mirror), with no dense K_DD and no n x n
    Theta' B."""

    def test_context_holds_one_matrix(self, ball_ctx):
        m = len(ball_ctx.exterior)
        held, _ = traced(lambda: GreenContext(ball_ctx.exterior, K2))
        assert held <= 4 * m * m + 64 * m

    def test_column_reader_reads_assembled_columns(self, ball_ctx):
        # exterior nodes idx read as sources give K_EE[:, idx], and the
        # cone projection's blocks K_EE[rows, idx] (its squares and held
        # row blocks) are the same entries; a node's own entry takes its
        # own self-energy
        kee = exterior_matrix(ball_ctx)
        ext = ball_ctx.exterior
        factor = ball_ctx._factor.copy()
        m = len(kee)
        scattered = np.sort(np.random.default_rng(4).choice(m, 60, False))
        for idx in (np.array([0]), np.array([m - 1]), scattered,
                    np.arange(m)):
            cols = ball_ctx._cross_matrix(NodeSet(
                ext.positions[idx], ext.quad_weights[idx],
                ext.cell_radii[idx]))
            assert np.array_equal(cols, kee[:, idx])
            assert np.array_equal(ball_ctx._exterior_block(idx, idx),
                                  kee[np.ix_(idx, idx)])
            held = np.flatnonzero(~np.isin(np.arange(m), idx))[:40]
            assert np.array_equal(ball_ctx._exterior_block(held, idx),
                                  kee[np.ix_(held, idx)])
        assert np.array_equal(ball_ctx._factor, factor)

    def test_indefinite_exterior_is_refused(self):
        # two nodes 0.1 apart with cell radii 1.0: at alpha = 2 the diagonal
        # is 1.5 and the off-diagonal 10, so K_EE has no Cholesky factor
        ext = NodeSet([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], np.ones(2),
                      np.ones(2))
        with pytest.raises(LinAlgError):
            GreenContext(ext, K2)

    def test_packed_green_matrix_matches_the_dense_reference(self,
                                                             monkeypatch):
        # every source clips on the coarse ball complement
        monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", 1000)
        ext = trim_cell_radii(ball_complement_nodes((0, 0, 0), 1.0, 3.0,
                                                    0.35))
        nodes = random_ball_sources(np.random.default_rng(9), 60,
                                    rmax=0.95).nodes
        clipped, _ = green_matches_references(ext, nodes)
        assert clipped == len(nodes)

    def test_packed_green_matrix_with_some_columns_clipped(self, monkeypatch,
                                                           plane_ctx):
        # sources close to the plane clip, the others do not
        monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", 1000)
        nodes = plane_sources(np.random.default_rng(9), 60, 0.02, 1.0)
        clipped, _ = green_matches_references(plane_ctx.exterior, nodes)
        assert 0 < clipped < len(nodes)

    def test_packed_green_matrix_with_no_column_clipped(self, monkeypatch,
                                                        plane_ctx):
        monkeypatch.setattr(modelmod, "BLOCK_ENTRIES", 1000)
        nodes = plane_sources(np.random.default_rng(9), 60, 0.2, 1.0)
        clipped, asym = green_matches_references(plane_ctx.exterior, nodes)
        assert clipped == 0
        assert asym < 1e-14

    @pytest.mark.parametrize("case, bound", [("ex2", 2.1), ("ex1", 5.6),
                                             ("ballinball", 4.5)])
    def test_green_matrix_peak(self, request, monkeypatch, case, bound):
        # unclipped: the sweep's B and Theta and at most two row blocks
        # beside G; 1.98 (ex2) and 5.33 (ex1) x 8 n^2, where the dense
        # n x n Theta' B read 2.19 and 5.38.  Clipped (ballinball, every
        # column, m = 1062, n = 123, largest free set F = 456): the sweep's
        # B and Theta, the cone's reads of B at a group's free and held
        # rows, a kernel row block and the square K[F, F], 3.83 x 8 m n +
        # 8 F^2, where copying the clipped columns of B and Theta for the
        # cone read 8.13
        built = request.getfixturevalue(case)
        nodes = built.spec.condenser.plates[0].nodes
        free = []

        def counted_cho_factor(a, **kw):
            free.append(len(a))
            return cho_factor(a, **kw)

        monkeypatch.setattr(balayagemod, "cho_factor", counted_cho_factor)
        _, peak = traced(lambda: built.green.green_matrix(nodes))
        n, m = len(nodes), len(built.green.exterior)
        clipped = case == "ballinball"
        assert bool(free) == clipped
        assert peak <= (8 * (bound * m * n + max(free) ** 2) if clipped
                        else bound * 8 * n ** 2)


@pytest.fixture
def ballinball():
    """A fresh toy ball in ball, whose sweep columns all clip."""
    return ball_in_ball(alpha=2.0, resolution=0.2, truncation=3.0)


def plane_sources(rng, count, near, far, radius=0.04):
    """Nodes at heights near to far above the plane x1 = 0, over a square
    of side 1."""
    pts = np.column_stack([rng.uniform(near, far, count),
                           rng.uniform(-0.5, 0.5, (count, 2))])
    return NodeSet(pts, np.ones(count), np.full(count, radius))


def blocked_green(K, B, theta, clipped, nodes):
    """K - sym(Theta' B) as its packed lower triangle, and its asymmetry
    relative to max |K|, from the products of each row block of
    ``row_blocks``: Theta[:, rows]' B[:, :b] and, when a column clipped,
    its mirror B[:, rows]' Theta[:, :b], read against it and averaged with
    it.  The asymmetry is the largest of the mirrored pairs and of each
    corrected block's diagonal square against its transpose."""
    G, asym = K.copy(), 0.0
    for rows in modelmod.row_blocks(nodes.positions, nodes.positions):
        block = theta[:, rows].T @ B[:, :rows.stop]
        if clipped:
            mirror = B[:, rows].T @ theta[:, :rows.stop]
            asym = max(asym, np.abs(block - mirror).max())
            block = 0.5 * (block + mirror)
        G[rows, :rows.stop] -= block
        square = G[rows, rows]
        asym = max(asym, np.abs(square - square.T).max())
    return G[np.tril_indices(len(nodes))], asym / np.abs(K).max()


def green_matches_references(ext, nodes):
    """Check the Green matrix of ``nodes`` over exterior ``ext`` bit for bit
    against ``blocked_green`` and within 1e-14 max |K_DD| of K_DD -
    sym(Theta' B) from one product; returns the clipped-column count and
    the asymmetry.  Two fresh contexts sweep from the same start."""
    G, asym = GreenContext(ext, K2).green_matrix(nodes)
    B, theta, clipped = GreenContext(ext, K2).sweep_columns(nodes)
    K = kernel_matrix(nodes, K2)
    ref, ref_asym = blocked_green(K, B, theta, clipped, nodes)
    assert np.array_equal(G.ap, ref)
    assert asym == ref_asym
    cross = theta.T @ B
    dense = K - 0.5 * (cross + cross.T)
    assert np.abs(unpacked(G) - dense).max() <= 1e-14 * np.abs(K).max()
    if clipped:
        # every pair is mirrored: the one product's asymmetry, up to rounding
        assert asym == pytest.approx(
            np.abs(cross - cross.T).max() / np.abs(K).max(), rel=1e-10)
    return clipped, asym


class TestClippedSweeps:
    def test_clipped_columns_solve_the_cone_qp(self):
        # Newtonian sweeps of atoms near the sphere onto a coarse complement
        # go negative unconstrained, so every column takes the cone projection
        ext = trim_cell_radii(ball_complement_nodes((0, 0, 0), 1.0, 3.0,
                                                    0.35))
        ctx = GreenContext(ext, K2)
        rng = np.random.default_rng(8)
        dirs = rng.normal(size=(6, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        src = NodeSet(dirs * rng.uniform(0.8, 0.95, (6, 1)), np.ones(6),
                      np.full(6, 0.04))
        B, theta, clipped = ctx.sweep_columns(src)
        unconstrained = unconstrained_sweep(ctx, B)
        neg = unconstrained.min(axis=0) < \
            -1e-12 * np.maximum(unconstrained.max(axis=0), 1e-300)
        assert clipped > 0
        assert clipped == int(neg.sum())
        lower = factor_lower(ctx)
        kee = exterior_matrix(ctx)
        for k in np.flatnonzero(neg):
            b, th = B[:, k], theta[:, k]
            # the same QP as nonnegative least squares on the Cholesky factor
            ref, _ = nnls(lower.T, solve_triangular(lower, b, lower=True))
            assert np.abs(th - ref).max() <= 1e-10 * np.abs(ref).max()
            # cone KKT: theta >= 0, gradient >= 0 on the zero set, ~0 off it
            grad = kee @ th - b
            scale = np.abs(b).max()
            zero = th == 0.0
            assert th.min() >= 0.0
            assert zero.any()
            assert grad[zero].min() >= -1e-10 * scale
            assert np.abs(grad[~zero]).max() <= 1e-10 * scale


@pytest.fixture(scope="module")
def toy_nodes():
    """The toy ball-in-ball's exterior and sources that mix clipped and
    unclipped columns: the 33 positive nodes, whose columns all clip with
    many distinct free sets, and three exterior nodes, exact fixed points
    that do not clip.  (On this coarse exterior every interior atom clips,
    however deep.)"""
    plates = ball_in_ball(alpha=2.0, resolution=0.3,
                          truncation=3.0).spec.condenser.plates
    ext = plates[-1].nodes
    idx = [0, 300, 700]
    src = _concat_nodesets([plates[0].nodes, NodeSet(
        ext.positions[idx], ext.quad_weights[idx], ext.cell_radii[idx],
        ext.layer_index[idx])])
    return ext, src


@pytest.fixture
def toy_sweep(toy_nodes):
    """A fresh context on the toy exterior, so that no test starts from
    the support another test's sweeps carried."""
    ext, src = toy_nodes
    return GreenContext(ext, K2), src


def clipped_of(ctx, B):
    """Indices of the columns of B whose unconstrained sweep clips."""
    unconstrained = unconstrained_sweep(ctx, B)
    return np.flatnonzero(unconstrained.min(axis=0) < -1e-12 * np.maximum(
        unconstrained.max(axis=0), 1e-300))


def assert_cone_solution(ctx, B, theta, ref, cols):
    """Columns ``cols`` of theta match those of ``ref`` and satisfy the
    cone KKT conditions, both within 1e-10."""
    grad = exterior_matrix(ctx) @ theta[:, cols] - B[:, cols]
    for i, k in enumerate(cols):
        assert np.abs(theta[:, k] - ref[:, k]).max() <= \
            1e-10 * np.abs(ref[:, k]).max()
        scale = np.abs(B[:, k]).max()
        zero = theta[:, k] == 0.0
        assert theta[:, k].min() >= 0.0
        assert grad[zero, i].min() >= -1e-10 * scale
        assert np.abs(grad[~zero, i]).max() <= 1e-10 * scale


class TestBatchedPivoting:
    def test_batching_couples_no_columns(self, toy_sweep):
        ctx, src = toy_sweep
        B, theta, clipped = ctx.sweep_columns(src)
        assert 0 < clipped < len(src)
        patterns = {(theta[:, j] > 0.0).tobytes() for j in range(len(src))}
        assert len(patterns) > 3
        clipped_cols = []
        for j in range(len(src)):
            _, th, c = ctx.sweep_columns(NodeSet(
                src.positions[[j]], src.quad_weights[[j]],
                src.cell_radii[[j]]))
            if c:
                clipped_cols.append(j)
            ref = th[:, 0]
            assert np.abs(theta[:, j] - ref).max() <= \
                1e-12 * np.abs(ref).max()
        assert len(clipped_cols) == clipped
        # cone KKT on every clipped column
        grad = exterior_matrix(ctx) @ theta - B
        scale = np.abs(B).max(axis=0)
        for k in clipped_cols:
            zero = theta[:, k] == 0.0
            assert theta[:, k].min() >= 0.0
            assert grad[zero, k].min() >= -1e-10 * scale[k]
            assert np.abs(grad[~zero, k]).max() <= 1e-10 * scale[k]

    def test_backup_rule_matches_nnls(self, toy_sweep, monkeypatch):
        # Kim & Park's backup rule forced from round one: every clipped
        # column exchanges one node per round, and still ends at the
        # nonnegative least-squares solution on the Cholesky factor (ten of
        # the toy's clipped columns keep the test short)
        ctx, src = toy_sweep
        src = NodeSet(src.positions[:10], src.quad_weights[:10],
                      src.cell_radii[:10])
        reads = []
        block = GreenContext._exterior_block

        def counting(self, rows, cols):
            # count the free-set squares the cone factors, one per free set
            # and round, not its held-row gradient blocks
            if rows is cols:
                reads.append(len(cols))
            return block(self, rows, cols)

        monkeypatch.setattr(GreenContext, "_exterior_block", counting)
        B, pivoted, clipped = GreenContext(ctx.exterior, K2).sweep_columns(src)
        block_reads = len(reads)
        original = pgmod.BackupRule.__init__

        def forced(self, k):
            original(self, k)
            self.least[:] = 0
            self.left[:] = 0

        monkeypatch.setattr(pgmod.BackupRule, "__init__", forced)
        _, theta, again = ctx.sweep_columns(src)
        assert again == clipped == 10
        assert len(reads) - block_reads > block_reads
        lower = factor_lower(ctx)
        y = solve_triangular(lower, B, lower=True)
        for k in clipped_of(ctx, B):
            ref = nnls(lower.T, y[:, k])[0]
            assert np.abs(theta[:, k] - ref).max() <= \
                1e-10 * np.abs(ref).max()
        assert np.abs(theta - pivoted).max() <= \
            1e-10 * np.abs(pivoted).max()

    def test_empty_start_matches_nnls(self, toy_sweep):
        # the projected columns start from an empty free set and are
        # written in place; the last one's b is nonpositive, so its empty
        # set is already optimal, and column 1 is left as it was
        ctx, src = toy_sweep
        idx = [0, 10, 20]
        B = ctx._cross_matrix(NodeSet(src.positions[idx],
                                      src.quad_weights[idx],
                                      src.cell_radii[idx]))
        B = np.column_stack([B, -B[:, 0]])
        theta = np.full(B.shape, -1.0)
        cols = np.array([0, 2, 3])
        settled = ctx._cone_project(B, theta, cols,
                                    np.zeros(len(B), dtype=bool))
        assert np.all(theta[:, 1] == -1.0)
        lower = factor_lower(ctx)
        y = solve_triangular(lower, B, lower=True)
        for j in cols:
            ref = nnls(lower.T, y[:, j])[0]
            assert np.abs(theta[:, j] - ref).max() <= \
                1e-10 * max(np.abs(ref).max(), 1.0)
        assert not theta[:, -1].any()
        assert np.array_equal(settled, (theta[:, cols] > 0.0).any(axis=1))


class TestStartRule:
    """A clipped column starts from the context's carried support, or from
    the seed column's settled set; the start changes the work, not the
    answer."""

    def test_swept_context_gives_the_fresh_answer(self, toy_sweep):
        ctx, src = toy_sweep
        mu = DiscreteMeasure(src, np.linspace(0.5, 1.5, len(src)))
        points = src.positions[:7] * 0.9
        fresh = GreenContext(ctx.exterior, K2)
        _, theta, _ = fresh.sweep_columns(src)
        pot = GreenContext(ctx.exterior, K2).green_potential(mu, points)
        ctx.sweep_columns(NodeSet(src.positions[3:6], src.quad_weights[3:6],
                                  src.cell_radii[3:6]))
        assert ctx._support is not None
        _, again, _ = ctx.sweep_columns(src)
        # bit-identical: both starts settle on the same free sets
        assert np.array_equal(again, theta)
        assert np.array_equal(ctx.green_potential(mu, points), pot)

    @pytest.mark.parametrize("carried", ["all", "one"])
    def test_wrong_carried_support_still_solves(self, toy_sweep, carried):
        # the reference sweep's columns are the NNLS solutions within 1e-10
        # (test_backup_rule_matches_nnls)
        ctx, src = toy_sweep
        _, ref, _ = GreenContext(ctx.exterior, K2).sweep_columns(src)
        support = np.full(len(ctx.exterior), carried == "all")
        support[0] = True
        ctx._support = support
        B, theta, clipped = ctx.sweep_columns(src)
        cols = clipped_of(ctx, B)
        assert clipped == cols.size > 0
        assert_cone_solution(ctx, B, theta, ref, cols)

    @pytest.mark.parametrize("resolution, own_start, factors", [
        (0.3, 4, 3), (0.2, 2, 1)])
    def test_lift_after_green_matrix_factors_once(self, monkeypatch,
                                                 resolution, own_start,
                                                 factors):
        # the lift's lone column starts from the support the green-matrix
        # sweep carried.  On the coarse toy (resolution 0.3) the 33 columns
        # settle on 32 distinct sets, so their union is a looser start than
        # at resolution 0.2, where every column settles on one set;
        # ``own_start`` is the count when the lift starts from its own
        # unconstrained positive set
        built = ball_in_ball(alpha=2.0, resolution=resolution, truncation=3.0)
        gres = solve_green_reduced(built.spec, built.green)
        calls = []

        def counted_cho_factor(a, **kw):
            calls.append(a.shape[0])
            return cho_factor(a, **kw)

        monkeypatch.setattr(balayagemod, "cho_factor", counted_cho_factor)
        lift_green_to_riesz(gres, built.spec, built.green)
        assert len(calls) == factors < own_start


class TestMassConservation:
    def test_ball_complement_ratios_increase_to_one(self):
        sources = point_measure([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]], [0.6, 0.4])

        def factory(radius):
            return GreenContext(trim_cell_radii(
                ball_complement_nodes((0, 0, 0), 1.0, radius, 0.25)), K15)

        table = mass_conservation_probe(factory, sources, [2, 4, 8, 16])
        ratios = [row["mass_ratio"] for row in table]
        assert all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
        assert ratios[-1] > 0.95
        assert all(r < 1.0 + 1e-6 for r in ratios)

    def test_compact_negative_set_loses_mass(self):
        # sweep onto a compact ball from outside: alpha-thin at infinity,
        # strictly sub-unit mass, stable under truncation (probe only)
        ball = ball_volume_nodes((0, 0, 0), 1.0, 0.22)
        surf = sphere_surface_nodes((0, 0, 0), 1.0, 300, layer=1)
        ctx = GreenContext(trim_cell_radii(_concat_nodesets([ball, surf])), K2)
        sources = point_measure([[3.0, 0.0, 0.0]], [1.0])

        def factory(radius):
            return ctx  # compact target does not grow with truncation

        table = mass_conservation_probe(factory, sources, [2, 4, 8])
        ratios = [row["mass_ratio"] for row in table]
        assert all(r < 0.95 for r in ratios)
        assert max(ratios) - min(ratios) < 1e-12
        # classical value: sweep of a point at distance d onto the unit ball
        # carries mass 1/d
        assert ratios[0] == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_source_already_on_target(self, ball_ctx):
        ext = ball_ctx.exterior
        w = np.zeros(len(ext))
        w[10] = 1.0
        mu = DiscreteMeasure(ext, w)

        def factory(radius):
            return ball_ctx

        table = mass_conservation_probe(factory, mu, [16])
        assert table[0]["mass_ratio"] == pytest.approx(1.0, abs=1e-9)
