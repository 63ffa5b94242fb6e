from dataclasses import replace

import numpy as np
import pytest

from emlab import grids
from emlab.angular import angular_spectrum, build_potential
from emlab.errors import UnsupportedConfigurationError
from emlab.modal import FieldSample
from emlab.inequalities import (
    TOL_QUAD,
    ZERO_CUTOFF,
    Product,
    _hardy_2d_closed_form,
    _random_products,
    _shared_bump,
    _sorted_search,
    _sweep_grid,
    _test_table,
    boundary_mass,
    diamagnetic_margin,
    hardy_2d_constant_check,
    hardy_boundary_margin,
    inequality_sweep,
    lambda1_from_mu1,
    mu1_comparison,
    mu1_of,
    quadratic_form,
    radial_bump,
    radial_bump_derivative,
    random_test_function,
    singular_mass,
    profile_test_function,
)
import oracles
from oracles import product_samples

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

    # the form is positive definite exactly when lambda1 = mu1 + ((N-2)/2)^2 > 0
    def test_positivity_true(self):
        margin = lambda1_from_mu1(3, -0.24)
        assert margin > 0
        assert margin == pytest.approx(0.01, abs=1e-12)

    def test_positivity_boundary_case_is_false(self):
        assert not lambda1_from_mu1(2, 0.0) > 0

    def test_positivity_ab(self, ab_pot):
        from emlab.inequalities import mu1_of

        margin = lambda1_from_mu1(2, mu1_of(ab_pot))
        assert margin > 0
        assert margin == pytest.approx(0.09, abs=1e-9)


class TestQuadraticForm:
    def test_radial_bump_dirichlet_energy(self, zero_pot):
        # zero potential, radial u: Q reduces to the 1d Dirichlet energy
        tf = bump_tf()
        w = radial_bump_derivative(GRID)
        f = GRID * w**2
        oracle = 2 * np.pi * grids.singular_integral(f, GRID, "interior")[-1]
        assert quadratic_form(zero_pot, tf) == pytest.approx(float(oracle), rel=1e-9)

    @pytest.mark.parametrize("mode", [1, 3])
    def test_ab_mode_weight(self, ab_pot, mode):
        # u = bump * e^{i j t}: the angular term adds (j + alpha)^2 / r^2
        tf = bump_tf(mode=mode)
        w = radial_bump(GRID)
        dw = radial_bump_derivative(GRID)
        dens = GRID * (dw**2 + (mode + 0.3) ** 2 * w**2 / GRID**2)
        oracle = 2 * np.pi * grids.singular_integral(dens, GRID, "interior")[-1]
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

    @pytest.mark.parametrize("dimension,count", [(2, 50), (3, 20)])
    def test_sorted_search_equals_the_unsorted_one(self, dimension, count):
        # the keys of a sweep batch (-cutoff / |g|), with ties and the -inf
        # key of a node where g vanishes, against the prefix of sorted -|w|
        tf = _random_products(dimension, np.random.default_rng(7), _sweep_grid(), count)
        with np.errstate(divide="ignore"):
            keys = -ZERO_CUTOFF / np.abs(tf.g)
        keys[0, :5] = keys[1, :5]
        keys[-1, 3] = keys[0, 0]
        keys[1, 2] = keys[2, 7] = -np.inf
        aw = np.abs(tf.w)
        a = -aw[np.argsort(-aw, kind="stable")]
        keys[2, :4] = a[[0, 1, 1, -1]]  # on the searched values themselves
        n = _sorted_search(a, keys)
        assert n.dtype == np.intp and n.shape == keys.shape
        assert np.array_equal(n, np.searchsorted(a, keys, side="left"))
        assert np.array_equal(_sorted_search(a, keys[0]), np.searchsorted(a, keys[0]))


class TestMu1Comparison:
    def test_ab_positive_gap(self, ab_pot):
        assert mu1_comparison(angular_spectrum(ab_pot, count=1)) == pytest.approx(0.09, abs=1e-9)

    def test_gradient_field_equality(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"cos": [0.5]}, "electric": 0.0}
        )
        assert abs(mu1_comparison(angular_spectrum(pot, count=1))) < 1e-9

    def test_electric_only_identity(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": 0.0, "electric": {"mean": -0.1, "cos": [0.2]}}
        )
        assert mu1_comparison(angular_spectrum(pot, count=1)) == pytest.approx(0.0, abs=1e-12)

    def test_needs_circle(self, sphere_pot):
        with pytest.raises(UnsupportedConfigurationError):
            mu1_comparison(angular_spectrum(sphere_pot, count=1, truncation=4))


class TestHardy2d:
    @pytest.mark.parametrize("alpha,expect", [(0.1, 0.01), (0.3, 0.09), (0.5, 0.25), (1.2, 0.04)])
    def test_closed_form_agreement(self, alpha, expect):
        pot = build_potential({"kind": "aharonov_bohm", "alpha": alpha, "a0": -0.2})
        out = hardy_2d_constant_check(angular_spectrum(pot, count=1))
        assert not out["degenerate"]
        assert out["closed_form"] == pytest.approx(expect, abs=1e-12)
        assert out["agreement"] < 1e-9

    def test_integer_flux_degenerate(self):
        pot = build_potential({"kind": "aharonov_bohm", "alpha": 2.0, "a0": 0.0})
        out = hardy_2d_constant_check(angular_spectrum(pot, count=1))
        assert out["degenerate"]
        assert out["closed_form"] == 0.0
        sweep = inequality_sweep(pot, "hardy2d", count=5, rng=5)
        assert sweep["status"] == "degenerate"

    def test_sweep(self, ab_pot):
        out = inequality_sweep(ab_pot, "hardy2d", count=50, rng=6)
        assert out["status"] == "pass"


def gradient_defect(tf: Product) -> float:
    """Sup-norm disagreement between du_dr samples and a finite difference
    of the values, relative to the gradient scale."""
    field = product_samples(tf)
    fd = grids.log_derivative(field.values, field.r)
    scale = float(np.abs(field.du_dr).max())
    if scale == 0:
        return float(np.abs(fd[5:-5]).max())
    return float(np.abs(fd - field.du_dr)[5:-5].max() / scale)


class TestTestFunctions:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_consistency(self, dim, rng):
        tf = random_test_function(dim, rng, GRID)
        assert gradient_defect(tf) < 1e-6

    def test_support_vanishing(self, rng):
        tf = random_test_function(2, rng, GRID)
        assert abs(product_samples(tf).values[-1]).max() == 0.0

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


def _form_pairs(pot, tf, samples):
    """(separated, nodal) values of Q, the singular mass at two radii and the
    boundary mass, for a product and its samples."""
    return [(quadratic_form(pot, tf), oracles.quadratic_form(pot, samples)),
            *((singular_mass(tf, r), oracles.singular_mass(samples, r)) for r in (1.0, 0.4)),
            (boundary_mass(tf, 0.4), oracles.boundary_mass(samples, 0.4))]


class TestSeparatedForm:
    """A product test function reduced in separated form agrees with the
    nodal quadrature of its samples, the oracle."""

    @pytest.mark.parametrize("desc,tf", _separated_cases())
    def test_against_sampled_path(self, desc, tf):
        pot = build_potential(desc)
        assert isinstance(tf, Product)
        oracle = product_samples(tf)
        assert not isinstance(oracle, Product)
        for got, want in _form_pairs(pot, tf, oracle):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        grad_scale = float((np.abs(oracle.du_dr) ** 2
                            + sum(np.abs(g) ** 2 for g in oracle.angular_gradient)
                            / oracle.r[:, None] ** 2).max())
        assert abs(diamagnetic_margin(pot, tf) - oracles.diamagnetic_margin(pot, oracle)) \
            <= 1e-12 * grad_scale

    @pytest.mark.parametrize("desc,angular", [
        (FOURIER, lambda t: (np.exp(2j * t) + 0.5, (2j * np.exp(2j * t),))),
        (DIPOLE, lambda th, ph: (np.cos(th) + 0.5j, (-np.sin(th), np.zeros_like(ph)))),
    ], ids=["circle", "sphere"])
    def test_constant_phase_radial_factor_is_sampled(self, desc, angular):
        # e^{i theta0} w(r) g(theta) differs from w(r) g(theta) by a constant
        # phase only, so every form agrees with the real product's
        # a product takes a real radial factor only; the oracle samples the other
        pot = build_potential(desc)
        phase = np.exp(0.7j)
        real = profile_test_function(pot.dimension, GRID, radial_bump, radial_bump_derivative,
                                     angular=angular)
        with pytest.raises(ValueError, match="must be real"):
            profile_test_function(pot.dimension, GRID, lambda r: phase * radial_bump(r),
                                  lambda r: phase * radial_bump_derivative(r), angular=angular)
        tf = product_samples(replace(real, w=phase * real.w, dw=phase * real.dw))
        assert isinstance(real, Product) and np.iscomplexobj(tf.values)
        for want, got in _form_pairs(pot, real, tf):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(oracles.diamagnetic_margin(pot, tf) - diamagnetic_margin(pot, real)) \
            <= 1e-12 * _grad_scale(tf)

    def test_samples_are_the_outer_product(self, rng):
        tf = random_test_function(2, rng, GRID)
        assert np.array_equal(product_samples(tf).values, np.outer(tf.w, tf.g))

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


SWEEP_CASES = [
    ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": -0.1}, GRID),
    (FOURIER, GRID),
    (DIPOLE, GRID),
    ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": -0.1}, grids.log_grid(1e-4, 2.5, 1500)),
]
SWEEP_IDS = ["ab", "fourier_electric", "dipole", "ab_explicit_grid"]


def _oracle_margin(pot, check, tf, r, mu1):
    """The margin of a product, or of each product of a batch, by the
    public forms."""
    if check == "hardy":
        return hardy_boundary_margin(pot, tf, r, mu1_value=mu1)
    if check == "hardy2d":
        return quadratic_form(pot, tf, r) - _hardy_2d_closed_form(pot)[0] * singular_mass(tf, r)
    return diamagnetic_margin(pot, tf)


def _grad_scale(field) -> float:
    return float((np.abs(field.du_dr) ** 2 + sum(np.abs(g) ** 2 for g in field.angular_gradient)
                  / field.r[:, None] ** 2).max())


class TestBatchedSweep:
    """A sweep reduces all its test functions together through the public
    forms; each margin is the one those forms give the single product, and
    the draw is that of successive ``random_test_function`` calls."""

    @pytest.mark.parametrize("desc,r", SWEEP_CASES, ids=SWEEP_IDS)
    def test_each_margin_equals_the_per_product_forms(self, desc, r):
        pot = build_potential(desc)
        R, mu1 = float(r[-1]), mu1_of(pot)
        # the sharp Hardy constant is a 2-d statement
        checks = ("hardy", "diamagnetic") + (("hardy2d",) if pot.dimension == 2 else ())
        for check in checks:
            batch = _random_products(pot.dimension, np.random.default_rng(11), r, 6)
            got = _oracle_margin(pot, check, batch, R, mu1)
            singles = np.random.default_rng(11)
            tfs = [random_test_function(pot.dimension, singles, r) for _ in range(6)]
            for margin, tf in zip(got, tfs):
                if check == "diamagnetic":
                    oracle = product_samples(tf)
                    assert abs(margin - oracles.diamagnetic_margin(pot, oracle)) \
                        <= 1e-12 * _grad_scale(oracle)
                else:
                    assert margin == pytest.approx(_oracle_margin(pot, check, tf, R, mu1),
                                                   rel=1e-12, abs=0)
            out = inequality_sweep(pot, check, count=6, rng=11, r=r, mu1_value=mu1)
            assert out["min_margin"] == float(got.min())

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_batch_is_the_draw_of_successive_single_functions(self, dimension):
        batched, singles = np.random.default_rng(3), np.random.default_rng(3)
        batch = _random_products(dimension, batched, GRID, 5)
        tfs = [random_test_function(dimension, singles, GRID) for _ in range(5)]
        assert batched.bit_generator.state == singles.bit_generator.state
        for row, tf in enumerate(tfs):
            for got, want in ((batch.g[row], tf.g), *zip((d[row] for d in batch.dg), tf.dg)):
                assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_each_function_draws_its_moduli_then_its_angles(self):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        j = np.arange(-8, 9)
        for _ in range(3):
            tf = random_test_function(2, rng, GRID)
            c = np.sqrt(ref.uniform(0, 1, j.size)) * np.exp(1j * ref.uniform(0, 2 * np.pi, j.size))
            modes = np.exp(1j * np.outer(tf.angular_nodes[0], j))
            assert np.allclose(tf.g, modes @ c, rtol=0, atol=1e-13)
            assert np.allclose(tf.dg[0], modes @ (1j * j * c), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("check", ["hardy", "diamagnetic", "hardy2d"])
    def test_sweep_leaves_the_generator_where_single_draws_do(self, ab_pot, check):
        swept, singles = np.random.default_rng(9), np.random.default_rng(9)
        inequality_sweep(ab_pot, check, count=7, rng=swept, mu1_value=0.09)
        for _ in range(7):
            random_test_function(2, singles, GRID)
        assert swept.bit_generator.state == singles.bit_generator.state

    def test_run_sweeps_draw_in_pipeline_order(self):
        # hardy, diamagnetic and hardy2d share one generator: each takes the
        # next sweep_count functions of the scenario seed's stream
        from emlab.scenario import scenario_from_dict, verify_suite

        desc = {"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0}
        count, seed = 4, 5
        scn = scenario_from_dict({"potential": desc, "sweep_count": count, "seed": seed})
        report = verify_suite(scn, names=["hardy2d", "diamagnetic", "hardy"])
        pot = build_potential(desc)
        rng = np.random.default_rng(seed)
        for check in ("hardy", "diamagnetic", "hardy2d"):
            tfs = [random_test_function(2, rng, GRID) for _ in range(count)]
            want = min(_oracle_margin(pot, check, tf, 1.0, 0.09) for tf in tfs)
            got = report["margins"][check]["min_margin"]
            if check == "diamagnetic":
                scale = max(_grad_scale(product_samples(tf)) for tf in tfs)
                assert abs(got - want) <= 1e-12 * scale
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestSweepWork:
    """The first sweep on a grid integrates the shared bump twice, whatever
    its count; later sweeps of the dimension on that grid read the kept
    moments, and a diamagnetic sweep reads none."""

    @pytest.fixture
    def quadratures(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integral(*args, **kwargs)

        integral = grids.singular_integral
        monkeypatch.setattr(grids, "singular_integral", counting)
        _shared_bump.cache_clear()
        yield calls
        _shared_bump.cache_clear()

    @pytest.mark.parametrize("count", [1, 50])
    @pytest.mark.parametrize("desc,check", [
        ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0}, "hardy"),
        ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0}, "hardy2d"),
        (DIPOLE, "hardy"),
    ], ids=["ab_hardy", "ab_hardy2d", "dipole_hardy"])
    def test_two_radial_quadratures_per_sweep(self, quadratures, desc, check, count):
        out = inequality_sweep(build_potential(desc), check, count=count, rng=0,
                               mu1_value=0.0)
        assert out["count"] == count
        assert len(quadratures) == 2

    @pytest.mark.parametrize("desc,check", [
        ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0}, "hardy2d"),
        (DIPOLE, "hardy"),
    ], ids=["ab_hardy2d", "dipole_hardy"])
    def test_later_sweeps_on_the_grid_integrate_nothing(self, quadratures, desc, check):
        pot = build_potential(desc)
        inequality_sweep(pot, "hardy", count=5, rng=0, mu1_value=0.0)
        assert len(quadratures) == 2
        out = inequality_sweep(pot, check, count=17, rng=3, mu1_value=0.0)
        assert out["count"] == 17
        inequality_sweep(pot, "diamagnetic", count=9, rng=4)
        assert len(quadratures) == 2

    @pytest.mark.parametrize("desc", [{"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0},
                                      DIPOLE], ids=["ab", "dipole"])
    def test_diamagnetic_sweep_integrates_nothing(self, quadratures, desc):
        inequality_sweep(build_potential(desc), "diamagnetic", count=50, rng=0)
        assert quadratures == []


def _uncached_moments(dimension, r, w, dw):
    """The two radial moments by the quadrature a product integrates itself."""
    return (grids.singular_integral(r ** (dimension - 1) * dw**2, r, "interior"),
            grids.singular_integral(r ** (dimension - 3) * w**2, r, "interior"))


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSweepInvariants:
    """The bump, its moments, the default grid and the angular tables of a
    sweep are built once, kept read-only and equal bit for bit to what each
    sweep used to build; the uncached quadrature is the oracle."""

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_moments_are_the_uncached_quadrature(self, dimension):
        batch = _random_products(dimension, np.random.default_rng(0), GRID, 3)
        assert _same_bits(batch.w, radial_bump(GRID / GRID[-1]))
        assert _same_bits(batch.dw, radial_bump_derivative(GRID / GRID[-1]) / GRID[-1])
        energy, mass = _uncached_moments(dimension, GRID, batch.w, batch.dw)
        assert _same_bits(batch.energy_moment, energy)
        assert _same_bits(batch.mass_moment, mass)
        # a plain product of the same arrays integrates its own
        fields = {k: getattr(batch, k) for k in ("dimension", "r", "angular_nodes",
                                                 "angular_weights", "w", "dw", "g", "dg")}
        plain = Product(**fields)
        assert _same_bits(plain.energy_moment, energy) and _same_bits(plain.mass_moment, mass)

    def test_a_grid_with_the_same_ends_and_length_gets_its_own_moments(self):
        other = GRID.copy()
        other[1:-1] *= 1 + 1e-3 * np.sin(np.arange(1, len(GRID) - 1))
        assert np.all(np.diff(other) > 0)
        assert (other[0], other[-1], len(other)) == (GRID[0], GRID[-1], len(GRID))
        base = _random_products(2, np.random.default_rng(0), GRID, 2)
        moved = _random_products(2, np.random.default_rng(0), other, 2)
        energy, mass = _uncached_moments(2, other, moved.w, moved.dw)
        assert _same_bits(moved.energy_moment, energy) and _same_bits(moved.mass_moment, mass)
        assert not np.array_equal(moved.mass_moment, base.mass_moment)
        assert not np.array_equal(moved.w, base.w)

    def test_shared_arrays_are_read_only(self):
        grid = _sweep_grid()
        assert _same_bits(grid, grids.log_grid(1e-6, 1.0, 2400)) and _sweep_grid() is grid
        shared = [grid]
        for dimension in (2, 3):
            batch = _random_products(dimension, np.random.default_rng(0), grid, 2)
            nodes, weights, values, grads = _test_table(dimension)
            shared += [batch.r, batch.w, batch.dw, batch.energy_moment, batch.mass_moment,
                       *nodes, weights, values, *grads]
        for a in shared:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_the_bump_cache_is_bounded(self):
        maxsize = _shared_bump.cache_info().maxsize
        assert maxsize == 8
        for n in range(100, 100 + 2 * maxsize):
            r = grids.log_grid(1e-6, 1.0, n)
            _random_products(2, np.random.default_rng(0), r, 1).mass_moment
            assert _shared_bump.cache_info().currsize <= maxsize

    def test_sweeps_agree_with_a_cleared_cache(self, ab_pot):
        first = inequality_sweep(ab_pot, "hardy", count=8, rng=2, mu1_value=0.09)
        _shared_bump.cache_clear()
        again = inequality_sweep(ab_pot, "hardy", count=8, rng=2, mu1_value=0.09)
        assert first == again


class TestSweepCount:
    @pytest.mark.parametrize("count", [0, -3, 2.5, True],
                             ids=["zero", "negative", "fraction", "boolean"])
    def test_bad_count_is_named(self, ab_pot, count):
        with pytest.raises(ValueError, match="count"):
            inequality_sweep(ab_pot, "hardy", count=count, rng=0, mu1_value=0.09)

    def test_numpy_integer_count(self, ab_pot):
        out = inequality_sweep(ab_pot, "diamagnetic", count=np.int64(3), rng=0)
        assert out["count"] == 3
