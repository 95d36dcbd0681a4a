"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they go)."""

import math
import time

import numpy as np
import pytest

from condenser._pg import node_classes
from condenser.balayage import (GreenContext, balayage_oracle_halfspace,
                                balayage_project)
from condenser.gauss_solver import (ProblemSpec, check_sigma_domination,
                                    solve_riesz, swept_positive_caps)
from condenser.kernel import _riesz_block, mutual_energy, semimetric_distance
from condenser.model import (Condenser, DiscreteMeasure, KernelSpec, NodeSet,
                             Plate, VectorMeasure, graded_plane_nodes,
                             resultant)
from condenser.scenarios import build_sweep, example_one
from condenser.verify import (equivalence_check, kkt_report, loglog_slope,
                              scalar_zone_checks, support_report,
                              unsolvability_sweep, weighted_potentials)

from _probes import (green_energy_identity_check, kernel_matrix,
                     mass_transfer_probe)

K2 = KernelSpec(3, 2.0)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def jittered_cloud(rng, count, n, spacing=1.0):
    side = int(math.ceil(count ** (1.0 / n)))
    axes = [spacing * np.arange(side) for _ in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    pick = rng.choice(grid.shape[0], size=count, replace=False)
    pts = grid[pick] + rng.uniform(-0.3, 0.3, size=(count, n)) * spacing
    radii = rng.uniform(0.1, 0.2, size=count) * spacing
    return NodeSet(pts, np.full(count, spacing ** n), radii)


def overlap_condenser():
    shared = NodeSet([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]],
                     np.ones(4), np.full(4, 0.05))
    other = NodeSet([[0.5, 0.5, 0], [1, 1, 0]], np.ones(2), np.full(2, 0.05))
    neg = NodeSet([[4, 0, 0], [4, 1, 0], [4, 0, 1]], np.ones(3),
                  np.full(3, 0.05))
    return Condenser((Plate(sign=+1, nodes=shared),
                      Plate(sign=+1, nodes=other),
                      Plate(sign=-1, nodes=neg)))


def test_criterion_01_energy_principle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = math.inf
    for _ in range(200):
        n = int(rng.choice([3, 4, 5]))
        alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        count = int(rng.integers(2, 51))
        ns = jittered_cloud(rng, count, n)
        km = kernel_matrix(ns, KernelSpec(n, alpha))
        worst = min(worst, float(np.linalg.eigvalsh(km)[0]))
    elapsed = time.perf_counter() - start
    report(1, "energy principle surrogate", worst > 0 and elapsed < 10.0,
           f"min eigenvalue {worst:.3e} over 200 matrices in {elapsed:.1f}s")


def sign_matrix_expansion(mu, nu, a, b):
    """sum_ij s_i s_j <a_i, K_ij b_j> for weights a on mu's components and b
    on nu's, kernel blocks built per component pair: independent of the
    resultant."""
    total = 0.0
    for si, ci, ai in zip(mu.signs, mu.components, a):
        for sj, cj, bj in zip(nu.signs, nu.components, b):
            Kij = _riesz_block(ci.nodes.positions, cj.nodes.positions, K2,
                               rho_q=cj.nodes.cell_radii)
            total += si * sj * float(ai @ Kij @ bj)
    return total


def test_criterion_02_resultant_isometry():
    cond = overlap_condenser()
    rng = np.random.default_rng(7)
    worst_energy = 0.0
    worst_metric = 0.0
    for _ in range(100):
        mu = VectorMeasure.from_weights(
            cond, [rng.random(4), rng.random(2), rng.random(3)])
        nu = VectorMeasure.from_weights(
            cond, [rng.random(4), rng.random(2), rng.random(3)])
        wmu = [c.weights for c in mu.components]
        wnu = [c.weights for c in nu.components]
        expand = sign_matrix_expansion(mu, nu, wmu, wnu)
        rmu, rnu = resultant(mu), resultant(nu)
        K = _riesz_block(rmu.positions, rnu.positions, K2,
                         rho_q=rnu.cell_radii)
        via_blocks = float(rmu.weights @ K @ rnu.weights)
        scale = math.sqrt(sign_matrix_expansion(mu, mu, wmu, wmu) *
                          sign_matrix_expansion(nu, nu, wnu, wnu)) + 1e-300
        worst_energy = max(worst_energy,
                           abs(mutual_energy(mu, nu, K2) - expand) / scale,
                           abs(via_blocks - expand) / scale)
        # semimetric via the resultant norm vs the sign-matrix expansion
        d_isom = semimetric_distance(mu, nu, K2)
        deltas = [a - b for a, b in zip(wmu, wnu)]
        d_expand = math.sqrt(max(
            sign_matrix_expansion(mu, mu, deltas, deltas), 0.0))
        worst_metric = max(worst_metric,
                           abs(d_isom - d_expand) / max(d_isom, 1e-300))
    ok = worst_energy <= 1e-12 and worst_metric <= 1e-12
    report(2, "resultant isometry", ok,
           f"energy dev {worst_energy:.2e}, semimetric dev {worst_metric:.2e} "
           f"(tol 1e-12)")


def test_criterion_03_balayage_oracles(ball_ctx):
    start = time.perf_counter()
    mu = DiscreteMeasure(NodeSet([[0.0, 0.0, 0.0]], [1.0], [0.05]),
                         np.array([1.0]))
    res = balayage_project(mu, ball_ctx)
    ext = ball_ctx.exterior
    first = ext.layer_index == 0
    oracle = np.where(first, ext.quad_weights / (4.0 * math.pi), 0.0)
    tv_ball = 0.5 * np.abs(res.swept.weights - oracle).sum()
    t_ball = time.perf_counter() - start
    ok_ball = tv_ball < 0.01 and 0.99 <= res.mass_ratio <= 1.01 \
        and t_ball < 60.0
    report(3, "balayage: central atom in ball", ok_ball,
           f"TV {tv_ball:.4f} (tol 0.01), mass ratio {res.mass_ratio:.4f} "
           f"(in [0.99, 1.01]), {t_ball:.1f}s")

    start = time.perf_counter()
    y = np.array([0.7, 0.1, -0.2])
    plane = graded_plane_nodes((0.0, y[1], y[2]), 0.07, 60.0, axis=0,
                               growth=1.18)
    ctx = GreenContext(plane, K2)
    mu2 = DiscreteMeasure(NodeSet([y], [1.0], [0.05]), np.array([1.0]))
    res2 = balayage_project(mu2, ctx)
    poisson = balayage_oracle_halfspace(y, plane, K2)
    tv_half = 0.5 * np.abs(res2.swept.weights - poisson.weights).sum()
    t_half = time.perf_counter() - start
    ok_half = tv_half < 0.02 and t_half < 60.0
    report(3, "balayage: half-space Poisson oracle", ok_half,
           f"TV {tv_half:.4f} (tol 0.02), {t_half:.1f}s")


def test_criterion_04_energy_identities(ball_ctx):
    rng = np.random.default_rng(99)
    worst = 0.0
    worst_tol = 1e-6
    for _ in range(20):
        count = int(rng.integers(5, 20))
        dirs = rng.normal(size=(count, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * 0.85 * rng.random((count, 1)) ** (1.0 / 3.0)
        mu = DiscreteMeasure(NodeSet(pts, np.ones(count),
                                     np.full(count, 0.03)),
                             rng.random(count) + 0.1)
        rep = green_energy_identity_check(mu, ball_ctx)
        tol = max(1e-6, 3.0 * rep["potential_residual"])
        worst = max(worst, rep["max_deviation"])
        worst_tol = max(worst_tol, tol)
        assert rep["max_deviation"] <= tol
    report(4, "green energy identities", True,
           f"worst pairwise deviation {worst:.2e} (tol {worst_tol:.2e})")


def test_criterion_05_riesz_green_equivalence(ex1, ex1_riesz, ex1_green,
                                              ex1_lift):
    eq = equivalence_check(ex1_riesz, ex1_lift, ex1.spec, green_result=ex1_green)
    tol = max(1e-4, 3.0 * ex1_lift.balayage_residual)
    ok = eq["energy_gap_rel"] <= tol and eq["lift_mass_defect"] <= 1e-2
    report(5, "riesz/green equivalence on example one", ok,
           f"energy gap {eq['energy_gap_rel']:.2e} (tol {tol:.1e}), "
           f"lift mass defect {eq['lift_mass_defect']:.2e} (tol 1e-2)")


def test_criterion_06_kkt_characterization(ex1, ex1_riesz, ex2, ex2_riesz):
    for name, built, res in (("example one", ex1, ex1_riesz),
                             ("example two", ex2, ex2_riesz)):
        rep = kkt_report(res, built.spec)
        probe = mass_transfer_probe(res, built.spec, count=50, seed=17)
        ok = rep.kkt_pass and probe["passed"] and probe["trials"] >= 50
        report(6, f"first-order conditions on {name}", ok,
               f"max KKT violation {rep.max_violation:.2e} (tol 1e-6), "
               f"worst transfer rate {probe['worst_rate']:.2e} over "
               f"{probe['trials']} transfers")


@pytest.fixture(scope="module")
def ball_alpha2():
    from condenser.scenarios import ball_in_ball
    built = ball_in_ball(alpha=2.0)
    res = solve_riesz(built.spec)
    assert res.converged
    return built, res


def test_criterion_08_support_structure(ball_alpha2, ex1, ex1_riesz):
    built2, res2 = ball_alpha2
    rep2 = support_report(res2, built2.spec)
    ok2 = rep2.boundary_fraction >= 0.99
    report(8, "support structure, newtonian ball", ok2,
           f"boundary mass fraction {rep2.boundary_fraction:.4f} (>= 0.99)")
    rep15 = support_report(ex1_riesz, ex1.spec)
    ok15 = rep15.passed and len(rep15.layer_masses) >= 5
    report(8, "support structure, alpha = 1.5", ok15,
           f"{len(rep15.layer_masses)} radial layers all carry mass "
           f"(floor {rep15.floor:.1e}); empty layers: {rep15.empty_layers}")


def test_criterion_09_sigma_variant(ex1, ex1_riesz):
    swept = swept_positive_caps(ex1.spec, ex1.green)
    spec_sigma = ProblemSpec(
        condenser=ex1.spec.condenser, totals=ex1.spec.totals,
        field=ex1.spec.field,
        constraint=(ex1.spec.constraint[0], swept),
        kernel=ex1.spec.kernel, tolerances=ex1.spec.tolerances)
    check_sigma_domination(spec_sigma, ex1.green)
    res = solve_riesz(spec_sigma)
    assert res.converged
    rel = abs(res.energy - ex1_riesz.energy) / max(abs(ex1_riesz.energy), 1.0)
    d = semimetric_distance(res.solution, ex1_riesz.solution, ex1.spec.kernel)
    norm = math.sqrt(mutual_energy(ex1_riesz.solution, ex1_riesz.solution,
                                   ex1.spec.kernel))
    ok = rel <= 1e-6 and d <= 1e-4 * norm
    report(9, "sigma-variant identity", ok,
           f"energy gap {rel:.2e} (tol 1e-6), semimetric {d / norm:.2e} "
           f"(tol 1e-4)")


def test_criterion_10_unsolvability_trend():
    start = time.perf_counter()
    # the default `condenser sweep` problem: plane core of radius 8 in cells
    # of 0.33, tail to 30, stage disks of 220 nodes
    stages = [1, 2, 3, 4, 5, 6]
    _, disks, ctx, _, tol = build_sweep({"stages": stages})
    rows = unsolvability_sweep(disks, ctx, tolerances=tol)
    energies = [row["energy"] for row in rows]
    elapsed = time.perf_counter() - start
    decreasing = all(energies[i + 1] < energies[i]
                     for i in range(len(energies) - 1))
    slope = loglog_slope(stages, energies)
    floor = 1e-12
    ok = decreasing and slope < 0 and all(e > floor for e in energies) \
        and elapsed < 300.0
    report(10, "short-circuit exhaustion trend", ok,
           f"energies {[f'{e:.4f}' for e in energies]}, slope {slope:.2f}, "
           f"{elapsed:.1f}s")


def test_criterion_11_scalar_zone_checks(ex1, ex1_riesz):
    rep = scalar_zone_checks(ex1_riesz, ex1.spec, ex1.green, seed=3)
    ok = rep.overall_pass and rep.c1 > 0
    report(11, "scalar zone checks on example one", ok,
           f"c1 {rep.c1:.4f} > 0; residuals: identity {rep.identity_residual:.1e}, "
           f"level {rep.level_residual:.1e}, bound {rep.bound_residual:.1e} "
           f"(tol {rep.tol}); checks {rep.checks}")


def test_criterion_12_nodes_at_cap(ex2, ex2_riesz):
    # ex2's cap binds on most positive nodes; pivoting from the all-free
    # start reaches that pattern in a few pattern solves
    spec, res = ex2.spec, ex2_riesz
    w, cap = res.solution.components[0].weights, spec.constraint[0]
    carried, below = node_classes(w, cap, spec.totals[0])
    at_cap = carried & ~below
    rep = kkt_report(res, spec)
    c = rep.constants[0]
    W = weighted_potentials(res.solution, spec)[0]
    cap_upper = max(0.0, float((W[at_cap] - c).max())) / max(1.0, abs(c))
    ok = at_cap.sum() >= len(w) // 2 and res.kkt_residual <= 1e-10 and \
        cap_upper <= 1e-10 and rep.upper_violation.max() <= 1e-10 and \
        res.converged and res.iterations <= 5
    report(12, "nodes at their cap on example two", ok,
           f"{at_cap.sum()} of {len(w)} nodes at cap, KKT residual "
           f"{res.kkt_residual:.1e} (tol 1e-10), upper violation on them "
           f"{cap_upper:.1e}, {res.iterations} pattern solve(s)")
