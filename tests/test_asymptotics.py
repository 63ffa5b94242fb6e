import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from emlab import grids
from emlab.angular import angular_spectrum, build_potential
from emlab.asymptotics import (
    blowup_profile,
    classify_regularity,
    extract_coefficients,
    gradient_blowup_profile,
    kelvin_transform,
    match_block,
)
from emlab.errors import DegenerateExponentError, NoEigenvalueMatchError
from emlab.frequency import frequency_trace
from emlab.modal import homogeneous_solutions, synthesize_field
from oracles import Sampled, from_samples, samples_of
from oracles import kelvin_transform as nodal_kelvin


@pytest.fixture(scope="module")
def half_spectrum():
    """Half-integer circulation: lowest eigenvalue 1/4 with multiplicity 2."""
    pot = build_potential({"kind": "aharonov_bohm", "alpha": 0.5, "a0": 0.0})
    return angular_spectrum(pot, count=6)


@pytest.fixture(scope="module")
def ab_single(ab_spectrum, radial_grid):
    sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
    return synthesize_field(ab_spectrum, sols)


class TestRegularity:
    @pytest.mark.parametrize(
        "gamma,label",
        [
            (0.3, "holder"),
            (0.999, "holder"),
            (1.0, "lipschitz"),
            (2.7, "lipschitz"),
            (0.0, "bounded"),
            (-0.2, "unbounded-at-origin"),
        ],
    )
    def test_labels(self, gamma, label):
        out = classify_regularity(gamma, 2, "interior")
        assert out["label"] == label
        assert out["exponent"] == gamma
        assert out["strong_unique_continuation"] is True


class TestBlockMatch:
    def test_simple_block(self, ab_spectrum):
        k0, j0, m = match_block(ab_spectrum, 0.3, 2)
        assert (k0, j0, m) == (1, 1, 1)

    def test_double_block(self, half_spectrum):
        k0, j0, m = match_block(half_spectrum, 0.5, 2)
        assert (j0, m) == (1, 2)

    def test_no_match(self, ab_spectrum):
        with pytest.raises(NoEigenvalueMatchError):
            match_block(ab_spectrum, 0.456, 2)

    def test_skips_indefinite_modes(self, free_circle_spectrum):
        # mu = 0 modes have no admissible exponent in 2d; higher ones do
        k0, j0, m = match_block(free_circle_spectrum, 1.0, 2)
        assert free_circle_spectrum.mu(k0) == pytest.approx(1.0, abs=1e-10)
        assert m == 2


class TestInteriorCoefficients:
    def test_homogeneous_unit(self, ab_single):
        prof = extract_coefficients(ab_single, 0.3, 1.0)
        assert prof.k0 == 1
        assert prof.m == 1
        assert abs(prof.beta[0] - 1.0) < 1e-10
        assert prof.regularity["label"] == "holder"

    def test_double_block_values(self, half_spectrum, radial_grid):
        sols = homogeneous_solutions(half_spectrum, {1: 0.6, 2: 0.8j}, radial_grid)
        field = synthesize_field(half_spectrum, sols)
        prof = extract_coefficients(field, 0.5, 1.0)
        assert_allclose(prof.beta, [0.6, 0.8j], atol=1e-10)

    def test_radius_independence_perturbed(self, ab_perturbed):
        field = ab_perturbed[0]
        p1 = extract_coefficients(field, 0.3, 1.0)
        p2 = extract_coefficients(field, 0.3, 0.5)
        assert np.abs(p1.beta - p2.beta).max() < 1e-8

    def test_quadrature_path_matches_modal(self, ab_perturbed):
        field, h = ab_perturbed
        p1 = extract_coefficients(field, 0.3, 0.9)
        p2 = extract_coefficients(from_samples(samples_of(field), field.spectrum, h), 0.3, 0.9)
        assert np.abs(p1.beta - p2.beta).max() < 1e-10

    def test_degenerate_exponent(self, ab_single):
        with pytest.raises(DegenerateExponentError):
            extract_coefficients(ab_single, 0.0, 1.0)

    def test_phase_covariance(self, half_spectrum, radial_grid):
        # re-phasing eigenvectors rotates beta but keeps |beta|
        sols = homogeneous_solutions(half_spectrum, {1: 0.6, 2: 0.8}, radial_grid)
        samples = samples_of(synthesize_field(half_spectrum, sols))
        field = from_samples(samples, half_spectrum)
        vecs = half_spectrum.eigenvectors.copy()
        phases = np.exp(1j * np.array([0.7, -1.1, 0.2, 0.5, 1.3, -0.4]))
        rotated = replace(half_spectrum, eigenvectors=vecs * phases[None, :])
        field_rot = from_samples(samples, rotated)
        p = extract_coefficients(field, 0.5, 1.0)
        p_rot = extract_coefficients(field_rot, 0.5, 1.0)
        assert_allclose(np.abs(p_rot.beta), np.abs(p.beta), atol=1e-10)

    def test_to_json(self, ab_perturbed):
        field = ab_perturbed[0]
        prof = extract_coefficients(field, 0.3, 1.0)
        doc = prof.to_json()
        assert set(doc) == {"gamma", "k0", "block", "beta", "R", "side", "regularity"}
        assert doc["block"] == [1, 1]
        assert doc["side"] == "interior"
        assert doc["beta"][0][0] == prof.beta[0].real
        assert doc["beta"][0][1] == prof.beta[0].imag


class TestExteriorCoefficients:
    def test_homogeneous_unit(self, ab_spectrum, exterior_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, exterior_grid, side="exterior")
        field = synthesize_field(ab_spectrum, sols)
        gamma_t = 0.3  # -sigma_minus for N = 2
        prof = extract_coefficients(field, gamma_t, 1.0)
        assert abs(prof.beta[0] - 1.0) < 1e-10
        assert prof.side == "exterior"

    def test_radius_independence_perturbed(self, ab_exterior_perturbed):
        field = ab_exterior_perturbed[0]
        p1 = extract_coefficients(field, 0.3, 1.0)
        p2 = extract_coefficients(field, 0.3, 2.0)
        assert np.abs(p1.beta - p2.beta).max() < 1e-8

    def test_matches_the_exterior_formula(self, ab_exterior_perturbed):
        # beta = R^gamma phi(R) + int_R^inf zeta/(2 gamma - N + 2)
        #        (s^{gamma+1} - R^{2 gamma-N+2} s^{-gamma+N-1}) ds
        field = ab_exterior_perturbed[0]
        gamma, N, r = 0.3, 2, field.r
        assert field.modes == (1,)
        (phi,), (zeta,) = field.phi, field.zeta
        denom = 2 * gamma - N + 2
        for R in (1.0, 2.0, 50.0):
            i = grids.nearest_index(r, R)
            w = zeta / denom * (r ** (gamma + 1) - r[i] ** denom * r ** (-gamma + N - 1))
            want = r[i] ** gamma * phi[i] + grids.singular_integral(w, r, "exterior")[i]
            got = extract_coefficients(field, gamma, R).beta[0]
            assert abs(got - want) <= 1e-12 * abs(want)


class TestBlowup:
    def test_homogeneous_is_exact(self, ab_single):
        out = blowup_profile(ab_single, 0.3, np.geomspace(1e-6, 1e-3, 8))
        assert out["distances"].max() < 1e-10

    def test_perturbed_rate(self, ab_perturbed):
        field = ab_perturbed[0]
        out = blowup_profile(field, 0.3, np.geomspace(1e-6, 1e-2, 12))
        assert np.all(np.diff(out["distances"]) > 0)
        assert out["rate"] == pytest.approx(0.5, rel=0.1)

    def test_gradient_rate(self, ab_perturbed):
        field = ab_perturbed[0]
        out = gradient_blowup_profile(field, 0.3, np.geomspace(1e-6, 1e-2, 12))
        assert out["rate"] == pytest.approx(0.5, rel=0.1)

    def test_exterior_rate(self, ab_exterior_perturbed):
        field = ab_exterior_perturbed[0]
        out = blowup_profile(field, 0.3, np.geomspace(1e2, 1e6, 12))
        assert out["rate"] == pytest.approx(0.5, rel=0.1)

    def test_sphere_homogeneous(self, dipole_spectrum, radial_grid):
        sols = homogeneous_solutions(dipole_spectrum, {2: 1.0}, radial_grid)
        field = synthesize_field(dipole_spectrum, sols)
        gamma = sols[2].exponents.sigma_plus
        out = blowup_profile(field, gamma, np.geomspace(1e-6, 1e-3, 6))
        assert out["distances"].max() < 1e-9
        assert out["profile"].m == 2


class TestBlowupRows:
    """blowup_profile sums the rows it reads from the modal profiles; the
    rows of the nodal array are the oracle."""

    @pytest.fixture(params=["interior", "exterior", "dipole"])
    def case(self, request, ab_perturbed, ab_exterior_perturbed, dipole_spectrum,
             radial_grid):
        if request.param == "dipole":
            sols = homogeneous_solutions(dipole_spectrum, {1: 1.0, 2: 0.3, 4: 0.2j},
                                         radial_grid)
            return (synthesize_field(dipole_spectrum, sols),
                    sols[1].exponents.sigma_plus, np.geomspace(1e-6, 1e-3, 8))
        field, h = ab_perturbed if request.param == "interior" else ab_exterior_perturbed
        lams = (np.geomspace(1e-4, 1e-2, 8) if request.param == "interior"
                else np.geomspace(1e2, 1e4, 8))
        # a fresh field whose nodal arrays are not built yet
        return replace(field), 0.3, lams

    def test_rows_equal_the_nodal_rows(self, case):
        field, gamma, lams = case
        out = blowup_profile(field, gamma, lams)
        assert "values" not in vars(field)
        g = gamma if field.side == "interior" else -gamma
        for p, lam in zip(out["profiles"], lams, strict=True):
            i = grids.nearest_index(field.r, lam)
            assert np.array_equal(p, field.r[i] ** (-g) * field.values[i])
        assert np.array_equal(out["distances"],
                              [np.abs(p - out["target"]).max() for p in out["profiles"]])


class TestKelvin:
    def test_modal_involution(self, ab_perturbed):
        field = ab_perturbed[0]
        v = kelvin_transform(field)
        assert v.side == "exterior"
        back = kelvin_transform(v)
        assert_allclose(back.r, field.r, rtol=1e-14)
        assert np.abs(back.values - field.values).max() < 1e-12
        assert np.abs(back.du_dr - field.du_dr).max() < 1e-12 * np.abs(field.du_dr).max()

    def test_quadrature_involution(self, ab_single):
        field = samples_of(ab_single)
        v = nodal_kelvin(field)
        assert isinstance(v, Sampled)
        back = nodal_kelvin(v)
        assert np.abs(back.values - field.values).max() < 1e-12
        assert np.abs(back.angular_gradient[0] - field.angular_gradient[0]).max() < 1e-12

    @pytest.mark.parametrize("nodal", [False, True], ids=["modal", "nodal"])
    def test_image_carries_the_flipped_perturbation(self, ab_perturbed, nodal):
        field, h = ab_perturbed
        if nodal:
            # a field projected from samples is transformed through its profiles
            field = from_samples(samples_of(field), field.spectrum, h)
        v = kelvin_transform(field)
        assert v.perturbation == replace(h, side="exterior")
        assert kelvin_transform(v).perturbation == h

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_nodal_image_solves_the_flipped_problem(self, side, ab_perturbed,
                                                     ab_exterior_perturbed):
        # D and beta of a sampled image read the forcing of the flipped
        # perturbation; with h = 0 instead, D is 12.5% off here
        field = (ab_perturbed if side == "interior" else ab_exterior_perturbed)[0]
        modal = kelvin_transform(field)
        nodal = from_samples(nodal_kelvin(samples_of(field)), field.spectrum, modal.perturbation)
        radii = (np.geomspace(2.0, 1e5, 20) if modal.side == "exterior"
                 else np.geomspace(1e-5, 0.5, 20))
        D_modal, D_nodal = (frequency_trace(v, radii).D for v in (modal, nodal))
        assert np.abs(D_nodal - D_modal).max() <= 1e-12 * np.abs(D_modal).max()
        b_modal, b_nodal = (extract_coefficients(v, 0.3, 1.0).beta for v in (modal, nodal))
        assert np.abs(b_nodal - b_modal).max() <= 1e-12 * np.abs(b_modal).max()

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_image_holds_the_carried_modes(self, side, ab_perturbed, ab_exterior_perturbed):
        # constant g forces the data's mode alone: the other seven are zero,
        # and the image holds only the one it carries
        field = (ab_perturbed if side == "interior" else ab_exterior_perturbed)[0]
        v = kelvin_transform(field)
        assert v.modes == (1,) == kelvin_transform(v).modes
        t = 1.0 / field.r[::-1]
        assert np.array_equal(v.phi, field.phi[:, ::-1])
        assert np.array_equal(v.zeta, t ** -4 * field.zeta[:, ::-1])

    def test_image_of_a_zero_field_keeps_its_modes(self, ab_spectrum, radial_grid):
        field = synthesize_field(
            ab_spectrum, homogeneous_solutions(ab_spectrum, {1: 0.0, 3: 0.0}, radial_grid))
        v = kelvin_transform(field)
        assert v.modes == (1, 3) and v.side == "exterior"
        assert_allclose(v.r, 1.0 / radial_grid[::-1], rtol=0)
        assert not (v.phi.any() or v.dphi.any())

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_image_lives_on_a_read_only_grid(self, side, ab_perturbed, ab_exterior_perturbed):
        # a read-only grid keeps its log r and Simpson rule, so the image's
        # frequency trace builds them once
        field = (ab_perturbed if side == "interior" else ab_exterior_perturbed)[0]
        for v in (kelvin_transform(field), kelvin_transform(kelvin_transform(field))):
            assert isinstance(v.r, grids.RadialGrid) and not v.r.flags.writeable
            assert v.r.log is v.r.log and v.r.simpson is v.r.simpson
            assert not (v.phi.flags.writeable or v.dphi.flags.writeable
                        or v.zeta.flags.writeable)
        assert np.array_equal(kelvin_transform(field).r, 1.0 / field.r[::-1])

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_image_derivative_equals_the_nodal_rule(self, dimension, ab_perturbed,
                                                     dipole_spectrum, radial_grid):
        # v' = (2 - N) t^(1-N) u(1/t) - t^-N u'(1/t), sample by sample; the
        # involution cannot tell the sign of the second term, which squares
        if dimension == 2:
            field = ab_perturbed[0]
        else:
            sols = homogeneous_solutions(dipole_spectrum, {1: 1.0, 2: 0.3}, radial_grid)
            field = synthesize_field(dipole_spectrum, sols)
        got, want = kelvin_transform(field).du_dr, nodal_kelvin(samples_of(field)).du_dr
        assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_pointwise_rule_2d(self, ab_perturbed):
        # N = 2: v(t, theta) = u(1/t, theta)
        field = ab_perturbed[0]
        v = kelvin_transform(field)
        assert_allclose(v.r, 1.0 / field.r[::-1], rtol=1e-14)
        assert np.abs(v.values - field.values[::-1]).max() < 1e-13

    def test_pointwise_rule_3d(self, dipole_spectrum, radial_grid):
        sols = homogeneous_solutions(dipole_spectrum, {1: 1.0}, radial_grid)
        field = synthesize_field(dipole_spectrum, sols)
        v = kelvin_transform(field)
        t = v.r
        expect = (t ** (-1))[:, None] * field.values[::-1]
        assert np.abs(v.values - expect).max() < 1e-12 * np.abs(expect).max()

    def test_frequency_conjugacy_2d(self, ab_exterior_perturbed):
        # N_v(s) = N_u(1/s) - N + 2 at matching radii
        field = ab_exterior_perturbed[0]
        radii = np.geomspace(1e-5, 0.5, 20)
        v = kelvin_transform(field)
        tr_v = frequency_trace(v, radii)
        tr_u = frequency_trace(field, np.sort(1.0 / radii))
        assert np.abs(np.sort(tr_v.N) - np.sort(tr_u.N)).max() < 1e-8

    def test_frequency_conjugacy_3d(self, dipole_spectrum, exterior_grid):
        sols = homogeneous_solutions(
            dipole_spectrum, {2: 1.0}, exterior_grid, side="exterior"
        )
        field = synthesize_field(dipole_spectrum, sols)
        radii = np.geomspace(1e-5, 0.5, 10)
        v = kelvin_transform(field)
        tr_v = frequency_trace(v, radii)
        tr_u = frequency_trace(field, np.sort(1.0 / radii))
        assert np.abs(np.sort(tr_v.N) - (np.sort(tr_u.N) - 1.0)).max() < 1e-8

    def test_exterior_coefficients_via_kelvin(self, ab_perturbed):
        # interior coefficients of u equal exterior coefficients of its image
        field = ab_perturbed[0]
        p_int = extract_coefficients(field, 0.3, 1.0)
        v = kelvin_transform(field)
        p_ext = extract_coefficients(v, 0.3, 1.0)
        assert np.abs(p_int.beta - p_ext.beta).max() < 1e-8
