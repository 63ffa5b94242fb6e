import numpy as np
import pytest

from emlab import grids
from emlab.angular import angular_spectrum, build_potential


@pytest.fixture(scope="session")
def ab_spectrum():
    """Aharonov-Bohm alpha = 0.3, a0 = 0, first 8 modes."""
    pot = build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})
    return angular_spectrum(pot, count=8)


@pytest.fixture(scope="session")
def free_circle_spectrum():
    pot = build_potential({"kind": "fourier", "magnetic": 0.0, "electric": 0.0})
    return angular_spectrum(pot, count=8)


@pytest.fixture(scope="session")
def dipole_spectrum():
    pot = build_potential({"kind": "dipole", "strength": 1.0, "axis": [0, 0, 1]})
    return angular_spectrum(pot, count=8, truncation=16)


@pytest.fixture(scope="session")
def radial_grid():
    return grids.log_grid(1e-8, 1.0, 3000)


@pytest.fixture(scope="session")
def exterior_grid():
    return grids.log_grid(1.0, 1e8, 3000)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def ab_perturbed(ab_spectrum, radial_grid):
    """Self-consistent perturbed solution, c = 0.05, eps = 0.5, ground mode."""
    from emlab.modal import PerturbationSpec, solve_perturbed_field

    h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
    field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
    assert info["converged"]
    return field, h


@pytest.fixture(scope="session")
def ab_exterior_perturbed(ab_spectrum, exterior_grid):
    from emlab.modal import PerturbationSpec, solve_perturbed_field

    h = PerturbationSpec(amplitude=0.05, epsilon=0.5, side="exterior")
    field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, exterior_grid)
    assert info["converged"]
    return field, h
