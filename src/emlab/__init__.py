"""Numerical laboratory for Schroedinger operators with singular homogeneous
electromagnetic potentials: angular spectra, radial modal solutions, Almgren
frequency traces, asymptotic profiles, and inequality verification.

The root exports the names of the README's library tour and the scenario
API; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .angular import angular_spectrum, build_potential, closed_form_ab_spectrum
from .asymptotics import extract_coefficients
from .frequency import frequency_trace
from .grids import log_grid
from .modal import PerturbationSpec, solve_perturbed_field, synthesize_field
from .scenario import (
    Scenario,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    verify_suite,
)

__all__ = [
    "PerturbationSpec",
    "Scenario",
    "angular_spectrum",
    "build_potential",
    "closed_form_ab_spectrum",
    "extract_coefficients",
    "frequency_trace",
    "log_grid",
    "parse_scenario",
    "run_scenario",
    "scenario_from_dict",
    "solve_perturbed_field",
    "synthesize_field",
    "verify_suite",
    "__version__",
]
