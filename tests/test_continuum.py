"""Discrete answers against closed-form continuum values.

Each test prints its observed relative error (``pytest -s`` shows the lines)
and holds it below a loose bound that the current discretization meets, so a
loss of accuracy fails while a gain passes."""

import math

import pytest

from condenser.gauss_solver import solve_riesz
from condenser.kernel import equilibrium_measure
from condenser.model import KernelSpec, ball_volume_nodes
from condenser.scenarios import ball_in_ball


def landkof_ball_capacity(n, alpha, radius=1.0):
    """alpha-Riesz capacity of a ball in R^n (Landkof):
    r^(n-alpha) Gamma(n/2) / (Gamma(alpha/2) Gamma(1 + (n-alpha)/2))."""
    return radius ** (n - alpha) * math.gamma(n / 2.0) / (
        math.gamma(alpha / 2.0) * math.gamma(1.0 + (n - alpha) / 2.0))


@pytest.mark.parametrize("alpha, bound", [(2.0, 0.08), (1.5, 0.10)])
def test_ball_capacity_against_landkof(alpha, bound):
    ref = landkof_ball_capacity(3, alpha)
    nodes = ball_volume_nodes((0.0, 0.0, 0.0), 1.0, 0.18)
    _, cap = equilibrium_measure(nodes, KernelSpec(3, alpha), 1.0)
    err = (cap - ref) / ref
    print(f"unit-ball capacity, alpha {alpha}, h 0.18: {cap:.5f} vs "
          f"{ref:.5f} ({err:+.1%}, bound {bound:.0%})")
    assert abs(err) < bound


def test_ball_in_ball_energy_against_green_sphere():
    # alpha = 2: the continuum solution is the uniform unit measure on the
    # inner sphere r0 (the 1.5 x equilibrium cap does not bind), whose Green
    # energy in the unit ball's complement problem is 1/r0 - 1
    r0 = 0.62
    built = ball_in_ball(alpha=2.0, inner=r0, resolution=0.2)
    res = solve_riesz(built.spec)
    assert res.converged
    ref = 1.0 / r0 - 1.0
    err = (res.energy - ref) / ref
    print(f"ball in ball, alpha 2, h 0.2: energy {res.energy:.5f} vs "
          f"{ref:.5f} ({err:+.1%}, bound 30%)")
    assert abs(err) < 0.30
