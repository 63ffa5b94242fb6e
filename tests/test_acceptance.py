"""End-to-end acceptance checks, one printed pass/fail line per criterion."""

import numpy as np
import pytest

from emlab import grids
from emlab.angular import angular_spectrum, build_potential
from emlab.asymptotics import (
    blowup_profile,
    extract_coefficients,
    gradient_blowup_profile,
    kelvin_transform,
)
from emlab.frequency import (
    check_height_derivative,
    frequency_trace,
    height_scaling_limit,
    pohozaev_residual,
)
from emlab.inequalities import (
    hardy_2d_constant_check,
    inequality_sweep,
    mu1_comparison,
)
from emlab.modal import (
    PerturbationSpec,
    homogeneous_solutions,
    solve_perturbed_field,
    synthesize_field,
)

RADII = np.geomspace(1e-5, 0.5, 20)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def dense_grid():
    # the steep second dipole mode needs a fine step for 1e-10 constancy
    return grids.log_grid(1e-6, 1.0, 16000)


@pytest.fixture(scope="module")
def eps10_perturbed(ab_spectrum, radial_grid):
    h = PerturbationSpec(amplitude=0.05, epsilon=1.0)
    field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
    assert info["converged"]
    return field, h


def test_ac01_ab_spectrum_oracle():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    n = 0
    while n < 20:
        alpha = rng.uniform(-1.0, 1.0)
        if abs(alpha - np.round(2 * alpha) / 2) < 1e-3:
            continue
        a0 = rng.uniform(-1.0, 1.0)
        n += 1
        pot = build_potential({"kind": "aharonov_bohm", "alpha": alpha, "a0": a0})
        sp = angular_spectrum(pot, count=10)
        exact = np.sort([(alpha - j) ** 2 - a0 for j in range(-40, 41)])[:10]
        worst = max(worst, float(np.abs(sp.eigenvalues - exact).max()))
    _report("AC01 Galerkin spectrum vs closed form", worst <= 1e-10,
            f"max defect {worst:.2e}, tol 1e-10, 20 random circulations")


def test_ac02_hardy_2d_constant():
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5, 1.2):
        pot = build_potential({"kind": "aharonov_bohm", "alpha": alpha, "a0": 0.0})
        out = hardy_2d_constant_check(pot)
        worst = max(worst, out["agreement"])
    _report("AC02 sharp 2-d magnetic Hardy constant", worst <= 1e-9,
            f"max |mu1 - closed form| {worst:.2e}, tol 1e-9")


def test_ac03_frequency_constancy(ab_spectrum, radial_grid, dense_grid,
                                  free_circle_spectrum, dipole_spectrum):
    cases = [
        # (spectrum, k0, grid); mode 1 of the zero potential has mu = 0 and
        # no admissible exponent, so the first curved mode is probed instead
        (free_circle_spectrum, 2, dense_grid),
        (ab_spectrum, 1, radial_grid),
        (dipole_spectrum, 1, dense_grid),
        (dipole_spectrum, 2, dense_grid),
    ]
    worst = 0.0
    for sp, k0, grid in cases:
        sols = homogeneous_solutions(sp, {k0: 1.0}, grid)
        field = synthesize_field(sp, sols)
        gamma = sols[k0].exponents.sigma_plus
        tr = frequency_trace(field, None, RADII)
        worst = max(worst, float(np.abs(tr.N - gamma).max()))
    _report("AC03 frequency constancy on homogeneous modes", worst <= 1e-10,
            f"max |N(r) - gamma| {worst:.2e}, tol 1e-10, 4 potential/mode cases")


def test_ac04_perturbed_limit_and_rate(ab_perturbed, eps10_perturbed):
    worst_g, worst_e = 0.0, 0.0
    for field, h in (ab_perturbed, eps10_perturbed):
        tr = frequency_trace(field, h, RADII)
        worst_g = max(worst_g, abs(tr.gamma_hat - 0.3))
        worst_e = max(worst_e, abs(tr.eps_hat - h.epsilon) / h.epsilon)
    ok = worst_g <= 1e-5 and worst_e <= 0.1
    _report("AC04 perturbed frequency limit and rate", ok,
            f"|gamma_hat - 0.3| {worst_g:.2e} (tol 1e-5), "
            f"rel eps defect {worst_e:.2e} (tol 0.1), eps in {{0.5, 1.0}}")


def test_ac05_beta_radius_independence(ab_spectrum, radial_grid, ab_perturbed):
    field, h = ab_perturbed
    p1 = extract_coefficients(field, 0.3, 1.0, h)
    p2 = extract_coefficients(field, 0.3, 0.5, h)
    drift = float(np.abs(p1.beta - p2.beta).max())
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
    hom = synthesize_field(ab_spectrum, sols)
    unit = abs(extract_coefficients(hom, 0.3, 1.0).beta[0] - 1.0)
    ok = drift <= 1e-8 and unit <= 1e-10
    _report("AC05 coefficient extraction R-independence", ok,
            f"R vs R/2 drift {drift:.2e} (tol 1e-8), "
            f"homogeneous beta defect {unit:.2e} (tol 1e-10)")


def test_ac06_blowup_profiles(ab_perturbed):
    field, h = ab_perturbed
    lams = np.geomspace(1e-6, 1e-2, 12)
    rate_u = blowup_profile(field, 0.3, lams, h)["rate"]
    rate_g = gradient_blowup_profile(field, 0.3, lams, h)["rate"]
    du = abs(rate_u - h.epsilon) / h.epsilon
    dg = abs(rate_g - h.epsilon) / h.epsilon
    ok = du <= 0.1 and dg <= 0.1
    _report("AC06 blow-up profile convergence rates", ok,
            f"value rate defect {du:.2e}, gradient rate defect {dg:.2e}, tol 0.1")


def test_ac07_identities(ab_spectrum, dipole_spectrum, radial_grid,
                         ab_perturbed, ab_exterior_perturbed, rng):
    fields = []
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0, 2: 0.5}, radial_grid)
    fields.append((synthesize_field(ab_spectrum, sols), None, 0.3))
    dsols = homogeneous_solutions(dipole_spectrum, {2: 1.0}, radial_grid)
    fields.append((synthesize_field(dipole_spectrum, dsols), None, 0.3))
    fields.append((*ab_perturbed, 0.3))
    fields.append((*ab_exterior_perturbed, 140.0))
    worst_h, worst_p = 0.0, 0.0
    for field, h, r_poh in fields:
        worst_h = max(worst_h, check_height_derivative(field, h))
        worst_p = max(worst_p, pohozaev_residual(field, h, r_poh))
    field, h = ab_perturbed
    noisy = pohozaev_residual(field.corrupted(0.01, rng), h, 0.3)
    ok = worst_h <= 1e-6 and worst_p <= 1e-6 and noisy > 1e-2
    _report("AC07 derivative and Pohozaev identities", ok,
            f"D=rH'/2 residual {worst_h:.2e}, Pohozaev {worst_p:.2e} (tol 1e-6); "
            f"1% noise raises Pohozaev to {noisy:.2e} (> 1e-2)")


def test_ac08_height_scaling(ab_spectrum, radial_grid, ab_perturbed):
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
    hom = synthesize_field(ab_spectrum, sols)
    worst_slope, worst_drift = 0.0, 0.0
    for field, h in ((hom, None), ab_perturbed):
        tr = frequency_trace(field, h, RADII)
        out = height_scaling_limit(tr, 0.3)
        worst_slope = max(worst_slope, out["slope_defect"])
        worst_drift = max(worst_drift, out["drift"])
    ok = worst_slope <= 1e-3 and worst_drift <= 0.01
    _report("AC08 boundary mass power scaling", ok,
            f"log-log slope defect {worst_slope:.2e} (tol 1e-3), "
            f"r^-2gamma H drift {worst_drift:.2e} (tol 0.01)")


def test_ac09_kelvin_conjugacy(ab_exterior_perturbed, dipole_spectrum, exterior_grid):
    cases = []
    field2, _ = ab_exterior_perturbed
    cases.append((field2, 0))
    dsols = homogeneous_solutions(dipole_spectrum, {2: 1.0}, exterior_grid,
                                  side="exterior")
    cases.append((synthesize_field(dipole_spectrum, dsols), 1))
    worst_c, worst_i = 0.0, 0.0
    for field, shift in cases:
        v = kelvin_transform(field)
        back = kelvin_transform(v)
        inv = float(np.abs(back.values - field.values).max()
                    / np.abs(field.values).max())
        worst_i = max(worst_i, inv)
        tr_u = frequency_trace(field, None, np.geomspace(2.0, 1e4, 20))
        tr_v = frequency_trace(v, None, np.sort(1.0 / tr_u.r))
        conj = float(np.abs(np.sort(tr_v.N) - (np.sort(tr_u.N) - shift)).max())
        worst_c = max(worst_c, conj)
    ok = worst_c <= 1e-8 and worst_i <= 1e-12
    _report("AC09 inversion conjugacy of the frequency", ok,
            f"conjugacy residual {worst_c:.2e} (tol 1e-8, 20 radii, N in {{2,3}}), "
            f"double-inversion defect {worst_i:.2e} (tol 1e-12)")


def test_ac10_exterior_limit(ab_exterior_perturbed):
    field, h = ab_exterior_perturbed
    tr = frequency_trace(field, h, np.geomspace(2.0, 1e5, 20))
    gamma_t = 0.3  # (N-2)/2 + sqrt(((N-2)/2)^2 + mu_1) for N = 2
    dg = abs(tr.gamma_hat - gamma_t)
    p1 = extract_coefficients(field, gamma_t, 1.0, h)
    p2 = extract_coefficients(field, gamma_t, 2.0, h)
    drift = float(np.abs(p1.beta - p2.beta).max())
    ok = dg <= 1e-5 and drift <= 1e-8
    _report("AC10 decay exponent and coefficients at infinity", ok,
            f"|gamma_tilde fit - exact| {dg:.2e} (tol 1e-5), "
            f"beta_tilde R-drift {drift:.2e} (tol 1e-8)")


def test_ac11_inequality_sweeps():
    ab = build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})
    dip = build_potential({"kind": "dipole", "strength": 1.0, "axis": [0, 0, 1]})
    worst = np.inf
    for pot, checks in ((ab, ("hardy", "diamagnetic", "hardy2d")),
                        (dip, ("hardy", "diamagnetic"))):
        for name in checks:
            out = inequality_sweep(pot, name, count=50, rng=42)
            worst = min(worst, out["min_margin"])
    gap = mu1_comparison(ab)
    grad = build_potential({"kind": "fourier", "magnetic": {"cos": [0.5]},
                            "electric": 0.0})
    eq = abs(mu1_comparison(grad))
    ok = worst >= -1e-8 and gap >= -1e-10 and eq <= 1e-9
    _report("AC11 inequality margin sweeps", ok,
            f"min margin {worst:.2e} (tol -1e-8, 50 functions per potential); "
            f"mu1 gap {gap:.2e} >= -1e-10, gradient-field equality {eq:.2e} <= 1e-9")


def test_ac12_regularity_classification(ab_spectrum, radial_grid):
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
    holder = extract_coefficients(
        synthesize_field(ab_spectrum, sols), 0.3, 1.0
    ).regularity
    sols3 = homogeneous_solutions(ab_spectrum, {3: 1.0}, radial_grid)
    lipschitz = extract_coefficients(
        synthesize_field(ab_spectrum, sols3), 1.3, 1.0
    ).regularity
    ok = (holder["label"] == "holder"
          and holder["exponent"] == pytest.approx(0.3, abs=1e-12)
          and lipschitz["label"] == "lipschitz")
    _report("AC12 regularity classification", ok,
            f"gamma 0.3 -> {holder['label']}({holder['exponent']}), "
            f"gamma 1.3 -> {lipschitz['label']}")
