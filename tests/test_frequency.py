import numpy as np
import pytest
from numpy.testing import assert_allclose

from emlab import grids
from emlab.errors import DegenerateSolutionError
from emlab.frequency import (
    FrequencyTrace,
    check_height_derivative,
    frequency_trace,
    height_scaling_limit,
    pohozaev_residual,
)
from emlab.modal import (
    characteristic_exponents,
    homogeneous_solutions,
    synthesize_field,
)

RADII = np.geomspace(1e-5, 0.5, 20)


@pytest.fixture(scope="module")
def ab_single(ab_spectrum, radial_grid):
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
    return synthesize_field(ab_spectrum, sols)


@pytest.fixture(scope="module")
def ab_two_mode(ab_spectrum, radial_grid):
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0, 2: 0.5}, radial_grid)
    return synthesize_field(ab_spectrum, sols)


def constant_field(spectrum, r, value=1.0):
    """u identically equal to value, sampled without modal attachment."""
    from emlab.modal import FieldSample

    t, w = spectrum.basis.grid()
    values = np.full((len(r), len(t)), complex(value))
    return FieldSample(
        dimension=2, r=r, angular_nodes=(t,), angular_weights=w,
        values=values, spectrum=spectrum,
    )


def grid_radius(field, r):
    return field.r[grids.nearest_index(field.r, r)]


class TestHeight:
    def test_homogeneous_power(self, ab_single):
        # normalized angular profile: H(r) = r^(2 gamma)
        for r in (0.5, 1e-4):
            rr = grid_radius(ab_single, r)
            H = frequency_trace(ab_single, None, [rr]).H[0]
            assert H == pytest.approx(rr**0.6, rel=1e-10)

    def test_parseval_two_modes(self, ab_two_mode):
        rr = grid_radius(ab_two_mode, 0.25)
        expect = rr**0.6 + 0.25 * rr**1.4
        H = frequency_trace(ab_two_mode, None, [rr]).H[0]
        assert H == pytest.approx(expect, rel=1e-9)

    def test_constant_field_free_circle(self, free_circle_spectrum, radial_grid):
        # u = 1: the scaled boundary mass is the circle length at every radius
        field = constant_field(free_circle_spectrum, radial_grid)
        H = frequency_trace(field, None, [0.3]).H[0]
        assert H == pytest.approx(2 * np.pi, rel=1e-12)


class TestDirichlet:
    def test_homogeneous_mode(self, ab_single):
        # D(r) = gamma r^(2 gamma)
        rr = grid_radius(ab_single, 0.25)
        D = frequency_trace(ab_single, None, [rr]).D[0]
        assert D == pytest.approx(0.3 * rr**0.6, rel=1e-9)

    def test_constant_field_zero_energy(self, free_circle_spectrum, radial_grid):
        field = constant_field(free_circle_spectrum, radial_grid)
        assert abs(frequency_trace(field, None, [0.25]).D[0]) < 1e-12

    def test_perturbed_matches_mode_integral(self, ab_perturbed):
        # 1d oracle: independent quadrature of the modal energy density
        field, h = ab_perturbed
        r = field.r
        i = grids.nearest_index(r, 0.25)
        sol = field.modal[1]
        mu1 = field.spectrum.mu(1)
        dens = np.abs(sol.dphi) ** 2 + mu1 * np.abs(sol.phi) ** 2 / r**2
        dens = dens - np.real(sol.zeta * np.conj(sol.phi))
        for k, s in field.modal.items():
            if k == 1:
                continue
            dens += np.abs(s.dphi) ** 2 + field.spectrum.mu(k) * np.abs(s.phi) ** 2 / r**2
            dens -= np.real(s.zeta * np.conj(s.phi))
        f = r * dens
        cum = grids.cumulative_integral(f, r)
        tail = grids.tail_integral(r, f, side="lower", scale=float(np.abs(f).max()))
        oracle = complex(tail).real + cum[i]
        assert frequency_trace(field, h, [r[i]]).D[0] == pytest.approx(oracle, rel=1e-8)


class TestFrequencyTrace:
    def test_constant_on_homogeneous_mode(self, ab_single):
        tr = frequency_trace(ab_single, None, RADII)
        assert np.abs(tr.N - 0.3).max() < 1e-10
        assert tr.gamma_hat == pytest.approx(0.3, abs=1e-8)

    def test_interior_ordering_is_decreasing(self, ab_single):
        tr = frequency_trace(ab_single, None, RADII)
        assert np.all(np.diff(tr.r) < 0)

    def test_perturbed_limit_and_rate(self, ab_perturbed):
        field, h = ab_perturbed
        tr = frequency_trace(field, h, RADII)
        assert tr.gamma_hat == pytest.approx(0.3, abs=1e-5)
        assert tr.eps_hat == pytest.approx(0.5, rel=0.1)

    def test_lower_bound(self, ab_perturbed):
        field, h = ab_perturbed
        tr = frequency_trace(field, h, RADII)
        assert np.all(tr.N > -(field.dimension - 2) / 2)

    def test_zero_field_rejected(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 0.0}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        with pytest.raises(DegenerateSolutionError):
            frequency_trace(field, None, RADII)

    def test_csv_export(self, ab_single, tmp_path):
        tr = frequency_trace(ab_single, None, RADII)
        path = tmp_path / "trace.csv"
        text = tr.to_csv(path)
        lines = text.strip().splitlines()
        assert lines[0] == "r,H,D,N"
        assert len(lines) == len(RADII) + 1
        assert path.read_text() == text

    def test_fit_summary_keys(self, ab_single):
        tr = frequency_trace(ab_single, None, RADII)
        assert set(tr.fit_summary()) == {"gamma_hat", "eps_hat", "drift"}


class TestHeightDerivativeIdentity:
    def test_homogeneous(self, ab_single):
        assert check_height_derivative(ab_single) < 1e-8

    def test_two_mode(self, ab_two_mode):
        assert check_height_derivative(ab_two_mode) < 1e-6

    def test_perturbed(self, ab_perturbed):
        field, h = ab_perturbed
        assert check_height_derivative(field, h) < 1e-6

    def test_exterior(self, ab_exterior_perturbed):
        field, h = ab_exterior_perturbed
        assert check_height_derivative(field, h) < 1e-6


class TestPohozaev:
    @pytest.mark.parametrize("r", [1e-4, 1e-2, 0.3])
    def test_homogeneous(self, ab_single, r):
        assert pohozaev_residual(ab_single, None, r) < 1e-8

    def test_constant_field_trivial(self, free_circle_spectrum, radial_grid):
        field = constant_field(free_circle_spectrum, radial_grid)
        assert pohozaev_residual(field, None, 0.3) < 1e-10

    @pytest.mark.parametrize("r", [1e-3, 0.3])
    def test_perturbed(self, ab_perturbed, r):
        field, h = ab_perturbed
        assert pohozaev_residual(field, h, r) < 1e-6

    def test_dipole_homogeneous(self, dipole_spectrum, radial_grid):
        sols = homogeneous_solutions(dipole_spectrum, {2: 1.0}, radial_grid)
        field = synthesize_field(dipole_spectrum, sols)
        assert pohozaev_residual(field, None, 0.3) < 1e-8

    def test_noise_sensitivity(self, ab_perturbed, rng):
        field, h = ab_perturbed
        bad = field.corrupted(0.01, rng)
        assert pohozaev_residual(bad, h, 0.3) > 1e-2


class TestHeightScaling:
    def test_homogeneous_unit_limit(self, ab_single):
        tr = frequency_trace(ab_single, None, RADII)
        out = height_scaling_limit(tr, 0.3)
        assert out["limit"] == pytest.approx(1.0, rel=1e-10)
        assert out["drift"] < 1e-10
        assert out["slope_defect"] < 1e-10

    def test_perturbed(self, ab_perturbed):
        field, h = ab_perturbed
        tr = frequency_trace(field, h, RADII)
        out = height_scaling_limit(tr, 0.3)
        assert out["limit"] > 0
        assert out["drift"] < 0.01
        assert out["slope_defect"] < 1e-3

    def test_two_dim_block_limit(self, ab_spectrum, radial_grid):
        # half-integer circulation: beta = (0.6, 0.8) on the double eigenspace
        from emlab.angular import angular_spectrum, build_potential

        sp = angular_spectrum(
            build_potential({"kind": "aharonov_bohm", "alpha": 0.5, "a0": 0.0}), count=4
        )
        sols = homogeneous_solutions(sp, {1: 0.6, 2: 0.8}, radial_grid)
        field = synthesize_field(sp, sols)
        tr = frequency_trace(field, None, RADII)
        out = height_scaling_limit(tr, 0.5)
        assert out["limit"] == pytest.approx(1.0, rel=1e-10)


class TestExterior:
    def test_homogeneous_constancy(self, ab_spectrum, exterior_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, exterior_grid, side="exterior")
        field = synthesize_field(ab_spectrum, sols)
        tr = frequency_trace(field, None, np.geomspace(2.0, 1e5, 20))
        assert np.abs(tr.N - 0.3).max() < 1e-10
        assert np.all(np.diff(tr.r) > 0)

    def test_perturbed_limit(self, ab_exterior_perturbed):
        field, h = ab_exterior_perturbed
        tr = frequency_trace(field, h, np.geomspace(2.0, 1e5, 20))
        gamma_t = (field.dimension - 2) / 2 + np.sqrt(
            ((field.dimension - 2) / 2) ** 2 + field.spectrum.mu(1)
        )
        assert tr.gamma_hat == pytest.approx(gamma_t, abs=1e-5)


def monotone_drift_correction(trace: FrequencyTrace, tol: float = 1e-8) -> dict:
    """Smallest C2 >= 0 making N(r) + (2 C2/eps) r^eps nondecreasing.

    Discrete version of the frequency drift bound: a finite correction with
    nonnegative increments (within tol) must exist on the resolved window.
    """
    eps = trace.eps_hat
    if not np.isfinite(eps):
        return {"C2": 0.0, "monotone": bool(np.all(np.diff(trace.dense_N) >= -tol))}
    r_w = trace.dense_r
    n_w = trace.dense_N
    corr = 2.0 / eps * r_w**eps if trace.side == "interior" else -2.0 / eps * r_w ** (-eps)
    dN = np.diff(n_w)
    dC = np.diff(corr)
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(dN < 0, -dN / dC, 0.0)
    C2 = float(np.nanmax(need)) if len(need) else 0.0
    ok = bool(np.all(dN + C2 * dC >= -tol))
    return {"C2": C2, "monotone": ok}


class TestDriftCorrection:
    def test_homogeneous_needs_no_correction(self, ab_single):
        tr = frequency_trace(ab_single, None, RADII)
        out = monotone_drift_correction(tr)
        assert out["monotone"]

    def test_perturbed_finite_correction(self, ab_perturbed):
        field, h = ab_perturbed
        tr = frequency_trace(field, h, RADII)
        out = monotone_drift_correction(tr)
        assert out["monotone"]
        assert np.isfinite(out["C2"])
