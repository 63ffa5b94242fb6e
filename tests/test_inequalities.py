import numpy as np
import pytest

from emlab import grids, inequalities
from emlab.angular import build_potential
from emlab.errors import UnsupportedConfigurationError
from emlab.modal import FieldSample
from emlab.inequalities import (
    TOL_QUAD,
    boundary_mass,
    diamagnetic_margin,
    hardy_2d_constant_check,
    hardy_boundary_margin,
    inequality_sweep,
    lambda1_from_mu1,
    mu1_comparison,
    positivity_check,
    quadratic_form,
    radial_bump,
    radial_bump_derivative,
    random_test_function,
    singular_mass,
    profile_test_function,
)

GRID = grids.log_grid(1e-6, 1.0, 2400)


@pytest.fixture(scope="module")
def zero_pot():
    return build_potential({"kind": "fourier", "magnetic": 0.0, "electric": 0.0})


@pytest.fixture(scope="module")
def ab_pot():
    return build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})


@pytest.fixture(scope="module")
def sphere_pot():
    # strength 0 leaves the plain Laplace-Beltrami operator on S^2
    return build_potential({"kind": "dipole", "strength": 0.0, "axis": [0, 0, 1]})


def bump_tf(dimension=2, r=GRID, mode=0):
    if mode == 0:
        return profile_test_function(
            dimension, r, lambda s: radial_bump(s), lambda s: radial_bump_derivative(s)
        )

    def angular(t):
        return np.exp(1j * mode * t), (1j * mode * np.exp(1j * mode * t),)

    return profile_test_function(
        dimension, r, lambda s: radial_bump(s), lambda s: radial_bump_derivative(s),
        angular=angular,
    )


class TestClosedForms:
    @pytest.mark.parametrize("N,mu1,expect", [(2, 0.09, 0.09), (3, 0.0, 0.25), (4, -0.5, 0.5)])
    def test_lambda1(self, N, mu1, expect):
        assert lambda1_from_mu1(N, mu1) == pytest.approx(expect, abs=1e-15)

    def test_positivity_true(self):
        out = positivity_check(3, -0.24)
        assert out["positive"]
        assert out["margin"] == pytest.approx(0.01, abs=1e-12)

    def test_positivity_boundary_case_is_false(self):
        assert not positivity_check(2, 0.0)["positive"]

    def test_positivity_ab(self, ab_pot):
        from emlab.inequalities import mu1_of

        out = positivity_check(2, mu1_of(ab_pot))
        assert out["positive"]
        assert out["margin"] == pytest.approx(0.09, abs=1e-9)


class TestQuadraticForm:
    def test_radial_bump_dirichlet_energy(self, zero_pot):
        # zero potential, radial u: Q reduces to the 1d Dirichlet energy
        tf = bump_tf()
        w = radial_bump_derivative(GRID)
        f = GRID * w**2
        oracle = 2 * np.pi * (grids.cumulative_integral(f, GRID)[-1]
                              + grids.tail_integral(GRID, f, side="lower"))
        assert quadratic_form(zero_pot, tf) == pytest.approx(float(oracle), rel=1e-9)

    @pytest.mark.parametrize("mode", [1, 3])
    def test_ab_mode_weight(self, ab_pot, mode):
        # u = bump * e^{i j t}: the angular term adds (j + alpha)^2 / r^2
        tf = bump_tf(mode=mode)
        w = radial_bump(GRID)
        dw = radial_bump_derivative(GRID)
        dens = GRID * (dw**2 + (mode + 0.3) ** 2 * w**2 / GRID**2)
        oracle = 2 * np.pi * (grids.cumulative_integral(dens, GRID)[-1]
                              + grids.tail_integral(GRID, dens, side="lower"))
        assert quadratic_form(ab_pot, tf) == pytest.approx(float(oracle), rel=1e-9)

    def test_scaling_homogeneity(self, ab_pot):
        # u(x/s) has Q scaled by s^{N-2}; trivial for N = 2
        tf = bump_tf(mode=1)
        scaled = profile_test_function(
            2, 4.0 * GRID, lambda s: radial_bump(s / 4.0),
            lambda s: radial_bump_derivative(s / 4.0) / 4.0,
            angular=lambda t: (np.exp(1j * t), (1j * np.exp(1j * t),)),
        )
        assert quadratic_form(ab_pot, scaled) == pytest.approx(
            quadratic_form(ab_pot, tf), rel=1e-9
        )

    def test_support_violation(self, ab_pot):
        with pytest.raises(ValueError):
            quadratic_form(ab_pot, bump_tf(mode=1), r=0.3)

    def test_cartesian_cross_check(self, ab_pot):
        # independent assembly: sample u on a Cartesian grid, differentiate
        # by second order finite differences, Richardson-extrapolate
        def q_cartesian(n):
            x = np.linspace(-1.0, 1.0, n)
            hx = x[1] - x[0]
            X, Y = np.meshgrid(x, x, indexing="ij")
            R = np.hypot(X, Y)
            T = np.arctan2(Y, X)
            U = radial_bump(R) * np.exp(1j * T)
            dUx, dUy = np.gradient(U, hx, hx)
            with np.errstate(invalid="ignore", divide="ignore"):
                Ax = -np.sin(T) * 0.3 / R
                Ay = np.cos(T) * 0.3 / R
            gx = dUx + 1j * Ax * U
            gy = dUy + 1j * Ay * U
            dens = np.abs(gx) ** 2 + np.abs(gy) ** 2
            dens[R == 0] = 0.0
            return np.trapezoid(np.trapezoid(dens, dx=hx), dx=hx)

        q1, q2 = q_cartesian(801), q_cartesian(1601)
        richardson = (4 * q2 - q1) / 3
        tf = bump_tf(mode=1)
        assert quadratic_form(ab_pot, tf) == pytest.approx(richardson, abs=1e-6)


class TestHardyBoundary:
    def test_constant_on_unit_ball_3d(self, sphere_pot):
        # u = 1, N = 3, r = 1: LHS = 2 pi, RHS = pi
        tf = profile_test_function(
            3, GRID, lambda s: np.ones_like(s), lambda s: np.zeros_like(s)
        )
        margin = hardy_boundary_margin(sphere_pot, tf, 1.0, mu1_value=0.0)
        assert margin == pytest.approx(np.pi, rel=1e-6)

    def test_near_extremal_profile(self, ab_pot):
        # u = r^{0.3} psi_1 on B_r: margin = gamma^2 r^{2 gamma}/(2 gamma) * 2 pi-norm
        tf = profile_test_function(
            2, GRID, lambda s: s**0.3, lambda s: 0.3 * s ** (-0.7),
            angular=lambda t: (np.exp(1j * t) * 0 + 1.0, (np.zeros_like(t),)),
        )
        # psi_1 for alpha = 0.3 is e^{i 0 t}-free constant profile with the
        # (0 + 0.3)^2 angular weight; emulate with the constant profile and
        # check against the closed form with mu1 = 0.09
        margin = hardy_boundary_margin(ab_pot, tf, 1.0, mu1_value=0.09)
        expect = 2 * np.pi * 0.09 / 0.6
        assert margin == pytest.approx(expect, rel=1e-6)
        assert margin > 0

    def test_sweep_ab(self, ab_pot):
        out = inequality_sweep(ab_pot, "hardy", count=50, rng=1)
        assert out["status"] == "pass"
        assert out["min_margin"] >= -TOL_QUAD
        assert out["count"] == 50

    def test_sweep_sphere(self, sphere_pot):
        out = inequality_sweep(sphere_pot, "hardy", count=50, rng=2)
        assert out["status"] == "pass"


class TestDiamagnetic:
    def test_real_function_zero_potential(self, zero_pot):
        tf = bump_tf()
        assert diamagnetic_margin(zero_pot, tf) == pytest.approx(0.0, abs=1e-14)

    def test_gauge_equivalent_phase(self):
        # u = e^{i phi(t)} w(r), A = phi': covariant gradient equals the
        # gradient of |u| in modulus, margin 0
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"cos": [0.5]}, "electric": 0.0}
        )

        def angular(t):
            # phase phi(t) = 0.5 sin t so that phi'(t) = 0.5 cos t = alpha(t)
            ph = np.exp(-1j * 0.5 * np.sin(t))
            return ph, (-1j * 0.5 * np.cos(t) * ph,)

        tf = profile_test_function(
            2, GRID, lambda s: radial_bump(s), lambda s: radial_bump_derivative(s),
            angular=angular,
        )
        assert abs(diamagnetic_margin(pot, tf)) < 1e-10

    def test_sweep_ab(self, ab_pot):
        out = inequality_sweep(ab_pot, "diamagnetic", count=50, rng=3)
        assert out["status"] == "pass"
        assert out["min_margin"] >= -1e-10

    def test_sweep_sphere(self, sphere_pot):
        out = inequality_sweep(sphere_pot, "diamagnetic", count=50, rng=4)
        assert out["status"] == "pass"


class TestMu1Comparison:
    def test_ab_positive_gap(self, ab_pot):
        assert mu1_comparison(ab_pot) == pytest.approx(0.09, abs=1e-9)

    def test_gradient_field_equality(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"cos": [0.5]}, "electric": 0.0}
        )
        assert abs(mu1_comparison(pot)) < 1e-9

    def test_electric_only_identity(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": 0.0, "electric": {"mean": -0.1, "cos": [0.2]}}
        )
        assert mu1_comparison(pot) == pytest.approx(0.0, abs=1e-12)

    def test_needs_circle(self, sphere_pot):
        with pytest.raises(UnsupportedConfigurationError):
            mu1_comparison(sphere_pot)


class TestHardy2d:
    @pytest.mark.parametrize("alpha,expect", [(0.1, 0.01), (0.3, 0.09), (0.5, 0.25), (1.2, 0.04)])
    def test_closed_form_agreement(self, alpha, expect):
        pot = build_potential({"kind": "aharonov_bohm", "alpha": alpha, "a0": -0.2})
        out = hardy_2d_constant_check(pot)
        assert not out["degenerate"]
        assert out["closed_form"] == pytest.approx(expect, abs=1e-12)
        assert out["agreement"] < 1e-9

    def test_integer_flux_degenerate(self):
        pot = build_potential({"kind": "aharonov_bohm", "alpha": 2.0, "a0": 0.0})
        out = hardy_2d_constant_check(pot)
        assert out["degenerate"]
        assert out["closed_form"] == 0.0
        sweep = inequality_sweep(pot, "hardy2d", count=5, rng=5)
        assert sweep["status"] == "degenerate"

    def test_sweep(self, ab_pot):
        out = inequality_sweep(ab_pot, "hardy2d", count=50, rng=6)
        assert out["status"] == "pass"


class TestTestFunctions:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_consistency(self, dim, rng):
        tf = random_test_function(dim, rng, GRID)
        assert tf.gradient_defect() < 1e-6

    def test_support_vanishing(self, rng):
        tf = random_test_function(2, rng, GRID)
        assert abs(tf.field.values[-1]).max() == 0.0

    def test_rayleigh_quotient_above_lambda1(self, rng):
        # N = 3, A = 0: Q / int |u|^2/|x|^2 >= 1/4
        pot = build_potential({"kind": "dipole", "strength": 0.0, "axis": [0, 0, 1]})
        for _ in range(5):
            tf = random_test_function(3, rng, GRID)
            q = quadratic_form(pot, tf)
            mass = singular_mass(tf, 1.0)
            assert q / mass >= lambda1_from_mu1(3, 0.0) - 1e-6

    def test_unknown_check_rejected(self, ab_pot):
        with pytest.raises(ValueError):
            inequality_sweep(ab_pot, "bogus", count=1, rng=0)


FOURIER = {"kind": "fourier", "magnetic": {"mean": 0.2, "cos": [0.3], "sin": [-0.1]},
           "electric": {"mean": -0.05, "cos": [0.1]}}
DIPOLE = {"kind": "dipole", "strength": 0.8, "axis": [1, 1, 1]}


def _separated_cases():
    rng = np.random.default_rng(7)
    cases = []
    for desc in ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": -0.1}, FOURIER):
        cases += [(desc, random_test_function(2, rng, GRID)) for _ in range(3)]
        cases.append((desc, bump_tf(mode=2)))
    cases += [(DIPOLE, random_test_function(3, rng, GRID)) for _ in range(3)]
    cases.append((DIPOLE, profile_test_function(
        3, GRID, radial_bump, radial_bump_derivative,
        angular=lambda th, ph: (np.cos(th) + 0.5j, (-np.sin(th), np.zeros_like(ph))),
    )))
    return cases


class TestSeparatedForm:
    """A product test function reduced in separated form agrees with the
    nodal quadrature of its samples, the oracle."""

    @pytest.mark.parametrize("desc,tf", _separated_cases())
    def test_against_sampled_path(self, desc, tf):
        pot = build_potential(desc)
        assert tf.product is not None
        oracle = inequalities.TestFunction(field=tf.field, support=tf.support, tag=tf.tag)
        assert oracle.product is None
        for form in (lambda t: quadratic_form(pot, t), lambda t: singular_mass(t, 1.0),
                     lambda t: singular_mass(t, 0.4), lambda t: boundary_mass(t, 0.4)):
            assert form(tf) == pytest.approx(form(oracle), rel=1e-12, abs=0)
        f = oracle.field
        grad_scale = float((np.abs(f.du_dr) ** 2 + sum(np.abs(g) ** 2 for g in f.angular_gradient)
                            / f.r[:, None] ** 2).max())
        assert abs(diamagnetic_margin(pot, tf) - diamagnetic_margin(pot, oracle)) \
            <= 1e-12 * grad_scale

    def test_field_is_built_on_first_read(self, rng):
        tf = random_test_function(2, rng, GRID)
        assert tf.__dict__["field"] is None
        assert tf.field is tf.field
        assert np.array_equal(tf.field.values, np.outer(tf.product.w, tf.product.g))

    @pytest.mark.parametrize("desc,checks", [
        ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0}, ("hardy", "diamagnetic", "hardy2d")),
        (DIPOLE, ("hardy", "diamagnetic")),
    ], ids=["circle", "sphere"])
    def test_sweep_builds_no_nodal_field(self, monkeypatch, desc, checks):
        def no_field(self):
            raise AssertionError("nodal FieldSample built")

        pot = build_potential(desc)
        monkeypatch.setattr(FieldSample, "__post_init__", no_field)
        for check in checks:
            out = inequality_sweep(pot, check, count=3, rng=0, mu1_value=0.0)
            assert out["count"] == 3
