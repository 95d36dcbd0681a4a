import pytest

from condenser.balayage import GreenContext
from condenser.gauss_solver import (lift_green_to_riesz, solve_green_reduced,
                                    solve_riesz)
from condenser.model import (KernelSpec, ball_complement_nodes,
                             trim_cell_radii)
from condenser.scenarios import example_one, example_two


@pytest.fixture(scope="session")
def newton():
    return KernelSpec(3, 2.0)


@pytest.fixture(scope="session")
def ex1():
    return example_one(resolution=0.18)


@pytest.fixture(scope="session")
def ex1_riesz(ex1):
    res = solve_riesz(ex1.spec)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def ex1_green(ex1):
    res = solve_green_reduced(ex1.spec, ex1.green)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def ex1_lift(ex1, ex1_green):
    return lift_green_to_riesz(ex1_green, ex1.spec, ex1.green)


@pytest.fixture(scope="session")
def ex2():
    return example_two()


@pytest.fixture(scope="session")
def ex2_riesz(ex2):
    res = solve_riesz(ex2.spec)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def ex2_green(ex2):
    res = solve_green_reduced(ex2.spec, ex2.green)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def ex2_lift(ex2, ex2_green):
    return lift_green_to_riesz(ex2_green, ex2.spec, ex2.green)


@pytest.fixture(scope="session")
def ball_ctx(newton):
    """Complement of the unit ball, Newtonian kernel, truncated at 16."""
    exterior = ball_complement_nodes((0.0, 0.0, 0.0), 1.0, 16.0, 0.14)
    return GreenContext(trim_cell_radii(exterior), newton)
