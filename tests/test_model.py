import math
from dataclasses import replace

import numpy as np
import pytest

from condenser import model as modelmod
from condenser.errors import (AlignmentError, EmptyPlateError,
                              ZeroSeparationError)
from condenser.kernel import semimetric_distance
from condenser.model import (NEIGHBOR_TRIM, Condenser, DiscreteMeasure,
                             KernelSpec, NodeSet, Plate, PlateSpec, VectorMeasure,
                             _concat_nodesets, _nearest_neighbor_distances,
                             build_condenser,
                             disk_layer, plate_nodes, resultant,
                             sphere_surface_nodes, trim_across_plates,
                             trim_cell_radii)

K2 = KernelSpec(3, 2.0)


def cloud_plate(sign, positions, radius=0.05):
    m = len(positions)
    ns = NodeSet(np.asarray(positions, float), np.ones(m), np.full(m, radius))
    return Plate(sign=sign, nodes=ns)


def two_plus_one_condenser():
    """Two overlapping positive plates plus a separated negative plate."""
    shared = NodeSet([[0, 0, 0], [1, 0, 0], [0, 1, 0]], np.ones(3),
                     np.full(3, 0.05))
    p0 = Plate(sign=+1, nodes=shared)
    p1 = Plate(sign=+1, nodes=shared)
    p2 = cloud_plate(-1, [[4, 0, 0], [4, 1, 0], [4, 0, 1]])
    return Condenser((p0, p1, p2))


class TestBuildCondenser:
    def test_ball_volume_matches_analytic(self):
        cond = build_condenser(
            [PlateSpec(tag="ball", sign=+1, radius=1.0),
             PlateSpec(tag="ball_complement", sign=-1, radius=1.0,
                       truncation=8.0)], resolution=0.15)
        vol = cond.plates[0].nodes.quad_weights.sum()
        exact = 4.0 / 3.0 * math.pi
        assert abs(vol - exact) / exact < 0.02

    def test_zero_radius_is_empty(self):
        with pytest.raises(ValueError):
            PlateSpec(tag="ball", sign=+1, radius=0.0)

    def test_plate_without_nodes_rejected(self):
        with pytest.raises(EmptyPlateError):
            Plate(sign=+1, nodes=NodeSet(np.zeros((0, 3)), [], []))

    def test_touching_closures_are_allowed(self):
        # exterior boundary layer sits exactly on the sphere; interior grid
        # nodes stay strictly inside, so the point sets are disjoint even
        # though the closures touch
        cond = build_condenser(
            [PlateSpec(tag="ball", sign=+1, radius=1.0),
             PlateSpec(tag="ball_complement", sign=-1, radius=1.0,
                       truncation=4.0)], resolution=0.25)
        pos = cond.plates[0].nodes.positions
        neg = cond.plates[1].nodes.positions
        assert np.all(np.linalg.norm(pos, axis=1) < 1.0)
        assert np.isclose(np.linalg.norm(neg, axis=1).min(), 1.0)

    def test_coinciding_opposite_nodes_rejected(self):
        with pytest.raises(ZeroSeparationError):
            Condenser((cloud_plate(+1, [[0, 0, 0], [1, 0, 0]]),
                       cloud_plate(-1, [[1, 0, 0], [2, 0, 0]])))

    def test_signed_zeros_coincide_across_signs(self):
        # positions compare by value, so -0.0 and 0.0 are one point
        with pytest.raises(ZeroSeparationError):
            Condenser((cloud_plate(+1, [[0.0, 1.0, 0.0]]),
                       cloud_plate(-1, [[-0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])))

    def test_shared_node_of_different_radii_rejected(self):
        # a node shared by equally signed plates is one cell, of one radius
        with pytest.raises(ValueError, match="different cell radii"):
            Condenser((cloud_plate(+1, [[0, 0, 0], [1, 0, 0]], radius=0.05),
                       cloud_plate(+1, [[1, 0, 0], [2, 0, 0]], radius=0.02)))
        Condenser((cloud_plate(+1, [[0, 0, 0], [1, 0, 0]], radius=0.05),
                   cloud_plate(+1, [[1, 0, 0], [2, 0, 0]], radius=0.05),
                   cloud_plate(+1, [[3, 0, 0]], radius=0.02)))

    def test_volume_first_order_convergence(self):
        exact = 4.0 / 3.0 * math.pi
        ladder = (0.3, 0.2, 0.15, 0.1, 0.075)
        errs = []
        for h in ladder:
            cond = build_condenser([PlateSpec(tag="ball", sign=+1, radius=1.0)],
                                   resolution=h)
            vol = cond.plates[0].nodes.quad_weights.sum()
            errs.append(abs(vol - exact) / exact)
        # counting error oscillates; observed first-order behavior means the
        # error stays under C*h and the fine end beats the coarse end
        assert errs[-1] < errs[0]
        for h, e in zip(ladder, errs):
            assert e < 0.5 * h

    def test_one_node_plate_trimmed_against_other_plates(self):
        one = NodeSet([[0.0, 0.0, 0.0]], [1.0], [0.5])
        other = NodeSet([[0.4, 0.0, 0.0], [2.0, 0.0, 0.0]], np.ones(2),
                        np.full(2, 0.5))
        cond = Condenser(trim_across_plates(
            [Plate(sign=+1, nodes=one), Plate(sign=-1, nodes=other)]))
        assert cond.plates[0].nodes.cell_radii[0] == NEIGHBOR_TRIM * 0.4
        assert np.array_equal(cond.plates[1].nodes.cell_radii,
                              [NEIGHBOR_TRIM * 0.4, 0.5])

    def test_shared_node_trimmed_against_nearest_distinct_node(self):
        # two positive plates share the origin, the same cell; its trim
        # reads the nearest other node, 0.3 away, not the zero distance
        shared = NodeSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], np.ones(2),
                         np.full(2, 0.4))
        other = NodeSet([[0.0, 0.3, 0.0]], [1.0], [0.4])
        plates = trim_across_plates([Plate(sign=+1, nodes=shared),
                                     Plate(sign=+1, nodes=shared),
                                     Plate(sign=+1, nodes=other)])
        for plate in plates[:2]:
            assert np.array_equal(plate.nodes.cell_radii,
                                  [NEIGHBOR_TRIM * 0.3, 0.4])
        assert plates[2].nodes.cell_radii[0] == NEIGHBOR_TRIM * 0.3

    def test_one_node_reference_leaves_the_radius(self):
        one = NodeSet([[1.0, 2.0, 3.0]], [1.0], [0.7])
        assert np.array_equal(_nearest_neighbor_distances(one.positions,
                                                          one.positions),
                              [np.inf])
        assert trim_cell_radii(one).cell_radii[0] == 0.7

    def test_truncation_recorded(self):
        cond = build_condenser(
            [PlateSpec(tag="ball", sign=+1, radius=1.0),
             PlateSpec(tag="half_space", sign=-1, center=(-2.0, 0.0, 0.0),
                       side=-1, truncation=6.0)], resolution=0.3)
        assert cond.plates[1].spec.truncation == 6.0
        assert cond.plates[0].spec.truncation is None

    @pytest.mark.parametrize("kwargs", [
        dict(tag="ball", radius=-1.0),
        dict(tag="disk", radius=0.0),
        dict(tag="ball_complement", radius=1.0),
        dict(tag="half_space"),
        dict(tag="ball", radius=1.0, truncation=3.0),
        dict(tag="ball_complement", radius=1.0, truncation=0.5),
        dict(tag="ball_complement", radius=1.0, truncation=-1.0),
        dict(tag="half_space", truncation=0.0),
        dict(tag="disk", radius=1.0, axis=7),
        dict(tag="half_space", truncation=6.0, side=3),
        dict(tag="ball", radius=1.0, center=(0.0, 0.0)),
        dict(tag="explicit_cloud"),
        dict(tag="ball", radius=1.0, axis=2),
        dict(tag="disk", radius=1.0, side=1),
        dict(tag="half_space", truncation=6.0, radius=1.0),
        dict(tag="ball_complement", radius=1.0, truncation=6.0, count=10),
        dict(tag="disk", radius=1.0, count=0),
    ], ids=["negative-radius", "zero-disk-radius", "complement-no-truncation",
            "half-space-no-truncation", "bounded-truncation",
            "truncation-inside-radius", "negative-truncation",
            "zero-half-space-truncation", "axis", "side", "center-2d",
            "unknown-tag", "ball-axis", "disk-side", "half-space-radius",
            "complement-count", "zero-count"])
    def test_plate_spec_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PlateSpec(sign=-1, **kwargs)

    def test_boundary_zone(self):
        ball = PlateSpec(tag="ball", sign=+1, center=(1.0, 0.0, 0.0), radius=2.0)
        plane = PlateSpec(tag="half_space", sign=-1, axis=2,
                          center=(0.0, 0.0, -1.0), truncation=6.0)
        disk = PlateSpec(tag="disk", sign=+1, radius=1.0)
        # sphere distances 2, sqrt(9.25) - 2 and sqrt(4.25) - 2, plane
        # distances 1, 1.5 and 0.5: a distance equal to the cell radius is
        # outside the zone
        nodes = NodeSet([[1.0, 0.0, 0.0], [4.0, 0.0, 0.5], [3.0, 0.0, -0.5]],
                        np.ones(3), [2.0, 1.1, 0.5])
        assert ball.boundary_zone(nodes).tolist() == [False, True, True]
        assert plane.boundary_zone(nodes).tolist() == [True, False, False]
        assert disk.boundary_zone(nodes).tolist() == [True, True, True]

    @pytest.mark.parametrize("backing", [False, True])
    def test_half_space_plane_passes_through_center(self, backing):
        origin = PlateSpec(tag="half_space", sign=-1, axis=2, truncation=4.0,
                           backing=backing)
        moved = replace(origin, center=(0.0, 2.0, -1.0))
        a, b = plate_nodes(origin, 0.5), plate_nodes(moved, 0.5)
        assert np.allclose(b.positions, a.positions + moved.center,
                           rtol=0.0, atol=1e-12)
        assert np.array_equal(b.quad_weights, a.quad_weights)
        assert np.allclose(b.cell_radii, a.cell_radii, rtol=1e-12, atol=0.0)
        assert np.array_equal(moved.boundary_zone(b), origin.boundary_zone(a))


class TestOneTrim:
    """Layouts only lay cells out; ``build_condenser`` trims them once,
    across all plates."""

    @pytest.mark.parametrize("specs, resolution", [
        ((PlateSpec(tag="ball", sign=+1, radius=1.0),
          PlateSpec(tag="ball_complement", sign=-1, radius=1.0,
                    truncation=3.0)), 0.5),
        ((PlateSpec(tag="disk", sign=+1, radius=1.0, stack_count=4,
                    count=40),
          PlateSpec(tag="half_space", sign=-1, truncation=12.0,
                    backing=False)), 0.3),
    ], ids=["ex1", "ex2"])
    def test_condenser_radii_are_one_trim_of_the_layouts(
            self, monkeypatch, specs, resolution):
        layouts = [plate_nodes(s, resolution) for s in specs]
        raw = np.concatenate([ns.cell_radii for ns in layouts])
        trimmed = trim_cell_radii(_concat_nodesets(layouts)).cell_radii
        built = build_condenser(specs, resolution)
        assert np.array_equal(
            np.concatenate([p.nodes.cell_radii for p in built.plates]),
            trimmed)
        assert np.any(trimmed < raw)
        # every layout keeps its cell rule's radii: with no trim in force
        # it lays out the same radii
        monkeypatch.setattr(modelmod, "NEIGHBOR_TRIM", np.inf)
        for spec, nodes in zip(specs, layouts):
            assert np.array_equal(plate_nodes(spec, resolution).cell_radii,
                                  nodes.cell_radii)


class TestDiskCellCount:
    @pytest.mark.parametrize("radius, cell", [(1.0, 0.15), (8.0, 0.33),
                                              (0.2, 0.3)])
    def test_disk_layer_count(self, radius, cell):
        count = max(12, round(math.pi * radius ** 2 / cell ** 2))
        layer = disk_layer((0.0, 0.0, 0.0), radius, cell, axis=2, layer=3)
        assert len(layer) == count
        assert np.all(layer.positions[:, 2] == 0.0)
        assert np.all(layer.layer_index == 3)

    def test_disk_plates_count_by_disk_layer(self):
        # a single disk and each disk of a stack take at least 12 cells; an
        # explicit count wins
        small = PlateSpec(tag="disk", sign=+1, radius=0.2)
        assert len(plate_nodes(small, 0.3)) == 12
        assert len(plate_nodes(replace(small, count=3), 0.3)) == 3
        stack = plate_nodes(replace(small, radius=0.4, stack_count=3), 0.3)
        counts = [int(np.sum(stack.layer_index == k)) for k in range(3)]
        assert counts == [max(12, round(math.pi * (0.4 * k) ** 2 / 0.09))
                          for k in (1, 2, 3)]


class TestNodeValidation:
    def test_node_requires_positive_weight(self):
        with pytest.raises(ValueError):
            NodeSet([[0.0, 0.0, 0.0]], [0.0], [0.1])
        with pytest.raises(ValueError):
            NodeSet([[0.0, 0.0, 0.0]], [1.0], [-0.1])

    @pytest.mark.parametrize("field", ["positions", "quad_weights",
                                       "cell_radii"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_node_set_refuses_non_finite_values(self, field, bad):
        arrays = {"positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                  "quad_weights": [1.0, 1.0], "cell_radii": [0.1, 0.1]}
        arrays[field] = np.array(arrays[field])
        arrays[field].flat[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            NodeSet(**arrays)

    def test_measure_weights_nonnegative(self):
        ns = NodeSet([[0, 0, 0]], [1.0], [0.1])
        with pytest.raises(ValueError):
            DiscreteMeasure(ns, np.array([-1.0]))

    def test_kernel_spec_domain(self):
        with pytest.raises(ValueError):
            KernelSpec(2, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(3, 2.5)
        with pytest.raises(ValueError):
            KernelSpec(3, 0.0)


class TestResultant:
    def test_single_positive_plate_identity(self):
        cond = Condenser((cloud_plate(+1, [[0.5, 0, 0]]),))
        mu = VectorMeasure.from_weights(cond, [np.array([1.0])])
        r = resultant(mu)
        assert len(r) == 1
        assert r.weights[0] == 1.0
        assert np.allclose(r.positions[0], [0.5, 0, 0])

    def test_r_equivalent_shuffle(self):
        # moving mass between equally signed plates at a shared node leaves
        # the resultant unchanged
        cond = two_plus_one_condenser()
        w0 = np.array([0.5, 0.3, 0.2])
        w1 = np.array([0.1, 0.1, 0.3])
        wp = np.array([0.5, 0.5, 0.5])
        tau = 0.25
        mu_a = VectorMeasure.from_weights(cond, [w0, w1, wp])
        mu_b = VectorMeasure.from_weights(
            cond, [w0 - np.array([tau, 0, 0]), w1 + np.array([tau, 0, 0]), wp])
        ra = resultant(mu_a)
        rb = resultant(mu_b)
        assert np.array_equal(ra.positions, rb.positions)
        assert np.allclose(ra.weights, rb.weights, rtol=0, atol=1e-15)

    def test_zero_measure_empty(self):
        cond = two_plus_one_condenser()
        r = resultant(VectorMeasure.from_weights(
            cond, [np.zeros(len(p.nodes)) for p in cond.plates]))
        assert len(r) == 0
        assert r.total == 0.0

    def test_linearity_exact(self):
        cond = two_plus_one_condenser()
        rng = np.random.default_rng(0)
        wa = [rng.random(3) for _ in range(3)]
        wb = [rng.random(3) for _ in range(3)]
        a, b = 0.7, 1.3
        mu = VectorMeasure.from_weights(cond, wa)
        nu = VectorMeasure.from_weights(cond, wb)
        combo = VectorMeasure.from_weights(
            cond, [a * x + b * y for x, y in zip(wa, wb)])
        rc = resultant(combo)
        ra = resultant(mu)
        rb = resultant(nu)
        assert np.array_equal(ra.positions, rc.positions)
        assert np.allclose(a * ra.weights + b * rb.weights, rc.weights,
                           rtol=1e-15, atol=0)


class TestSemimetric:
    def test_reflexivity(self):
        cond = two_plus_one_condenser()
        rng = np.random.default_rng(1)
        mu = VectorMeasure.from_weights(cond, [rng.random(3) for _ in range(3)])
        assert semimetric_distance(mu, mu, K2) == 0.0

    def test_r_equivalent_pair_has_zero_distance(self):
        cond = two_plus_one_condenser()
        # dyadic weights keep the shuffled sums bitwise identical
        w0 = np.array([0.5, 0.375, 0.25])
        w1 = np.array([0.125, 0.125, 0.375])
        wp = np.array([0.5, 0.5, 0.5])
        mu = VectorMeasure.from_weights(cond, [w0, w1, wp])
        nu = VectorMeasure.from_weights(
            cond, [w0 - np.array([0.25, 0, 0]), w1 + np.array([0.25, 0, 0]), wp])
        assert not np.array_equal(mu.components[0].weights,
                                  nu.components[0].weights)
        assert semimetric_distance(mu, nu, K2) == 0.0

    def test_measures_on_different_condensers_refused(self):
        cond = two_plus_one_condenser()
        moved = Condenser(cond.plates[:2] +
                          (cloud_plate(-1, [[5, 0, 0], [5, 1, 0], [5, 0, 1]]),))
        weights = [np.ones(3)] * 3
        mu = VectorMeasure.from_weights(cond, weights)
        for other in (moved, Condenser(cond.plates[1:])):
            nu = VectorMeasure.from_weights(other, weights[:len(other.plates)])
            with pytest.raises(AlignmentError):
                semimetric_distance(mu, nu, K2)

    def test_two_atom_hand_formula(self):
        # d(mu, nu)^2 = k11 + k22 - 2 k12 for unit atoms on disjoint plates
        rho1, rho2 = 0.05, 0.08
        p0 = cloud_plate(+1, [[0.0, 0, 0]], radius=rho1)
        p1 = cloud_plate(+1, [[2.0, 0, 0]], radius=rho2)
        cond = Condenser((p0, p1))
        mu = VectorMeasure.from_weights(cond, [np.array([1.0]), np.array([0.0])])
        nu = VectorMeasure.from_weights(cond, [np.array([0.0]), np.array([1.0])])
        k11 = K2.self_energy(rho1)
        k22 = K2.self_energy(rho2)
        k12 = 0.5  # |x-y| = 2
        expect = math.sqrt(k11 + k22 - 2 * k12)
        got = semimetric_distance(mu, nu, K2)
        assert abs(got - expect) < 1e-12 * expect

    def test_symmetry_and_triangle_on_random_triples(self):
        cond = two_plus_one_condenser()
        rng = np.random.default_rng(2)
        for _ in range(20):
            ms = [VectorMeasure.from_weights(cond,
                                             [rng.random(3) for _ in range(3)])
                  for _ in range(3)]
            dab = semimetric_distance(ms[0], ms[1], K2)
            dba = semimetric_distance(ms[1], ms[0], K2)
            dbc = semimetric_distance(ms[1], ms[2], K2)
            dac = semimetric_distance(ms[0], ms[2], K2)
            assert abs(dab - dba) <= 1e-12 * max(dab, 1.0)
            assert dac <= dab + dbc + 1e-10

    def test_zero_iff_equal_resultants(self):
        cond = two_plus_one_condenser()
        rng = np.random.default_rng(3)
        for _ in range(10):
            wa = [rng.random(3) for _ in range(3)]
            wb = [rng.random(3) for _ in range(3)]
            mu = VectorMeasure.from_weights(cond, wa)
            nu = VectorMeasure.from_weights(cond, wb)
            d = semimetric_distance(mu, nu, K2)
            ra = resultant(mu)
            rb = resultant(nu)
            same = (np.array_equal(ra.positions, rb.positions)
                    and np.allclose(ra.weights, rb.weights, atol=1e-15))
            if same:
                assert d == 0.0
            else:
                assert d > 1e-8


class TestLayouts:
    def test_sphere_layout_equal_areas(self):
        ns = sphere_surface_nodes((0, 0, 0), 2.0, 500)
        assert len(ns) == 500
        assert np.allclose(ns.quad_weights, 4 * math.pi * 4.0 / 500)
        assert np.allclose(np.linalg.norm(ns.positions, axis=1), 2.0)
