from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emlab import frequency, grids
from emlab.asymptotics import extract_coefficients, kelvin_transform
from emlab.errors import DegenerateSolutionError, EmlabError, NumericalFailureError
from emlab.frequency import (
    FrequencyTrace,
    check_height_derivative,
    frequency_trace,
    height_scaling_limit,
    pohozaev_residual,
)
from emlab.modal import (
    PerturbationSpec,
    characteristic_exponents,
    homogeneous_solutions,
    solve_perturbed_field,
    synthesize_field,
)
from emlab.scenario import Pipeline, scenario_from_dict
from oracles import (
    Sampled,
    corrupted,
    fit_frequency_limit,
    from_samples,
    padded,
    samples_of,
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
    """u identically equal to value, projected from its samples."""
    t, w = spectrum.basis.grid()
    values = np.full((len(r), len(t)), complex(value))
    return from_samples(Sampled(dimension=2, r=r, angular_nodes=(t,), angular_weights=w,
                                values=values), spectrum)


def grid_radius(field, r):
    return field.r[grids.nearest_index(field.r, r)]


class TestHeight:
    def test_homogeneous_power(self, ab_single):
        # normalized angular profile: H(r) = r^(2 gamma)
        for r in (0.5, 1e-4):
            rr = grid_radius(ab_single, r)
            H = frequency_trace(ab_single, [rr]).H[0]
            assert H == pytest.approx(rr**0.6, rel=1e-10)

    def test_parseval_two_modes(self, ab_two_mode):
        rr = grid_radius(ab_two_mode, 0.25)
        expect = rr**0.6 + 0.25 * rr**1.4
        H = frequency_trace(ab_two_mode, [rr]).H[0]
        assert H == pytest.approx(expect, rel=1e-9)

    def test_constant_field_free_circle(self, free_circle_spectrum, radial_grid):
        # u = 1: the scaled boundary mass is the circle length at every radius
        field = constant_field(free_circle_spectrum, radial_grid)
        H = frequency_trace(field, [0.3]).H[0]
        assert H == pytest.approx(2 * np.pi, rel=1e-12)


class TestDirichlet:
    def test_homogeneous_mode(self, ab_single):
        # D(r) = gamma r^(2 gamma)
        rr = grid_radius(ab_single, 0.25)
        D = frequency_trace(ab_single, [rr]).D[0]
        assert D == pytest.approx(0.3 * rr**0.6, rel=1e-9)

    def test_constant_field_zero_energy(self, free_circle_spectrum, radial_grid):
        field = constant_field(free_circle_spectrum, radial_grid)
        assert abs(frequency_trace(field, [0.25]).D[0]) < 1e-12

    def test_perturbed_matches_mode_integral(self, ab_perturbed):
        # 1d oracle: independent quadrature of the modal energy density
        field = ab_perturbed[0]
        r = field.r
        i = grids.nearest_index(r, 0.25)
        rows = list(zip(field.modes, field.phi, field.dphi, field.zeta))
        (k, phi, dphi, zeta), *rest = rows
        assert k == 1
        mu1 = field.spectrum.mu(1)
        dens = np.abs(dphi) ** 2 + mu1 * np.abs(phi) ** 2 / r**2
        dens = dens - np.real(zeta * np.conj(phi))
        for k, phi, dphi, zeta in rest:
            dens += np.abs(dphi) ** 2 + field.spectrum.mu(k) * np.abs(phi) ** 2 / r**2
            dens -= np.real(zeta * np.conj(phi))
        f = r * dens
        oracle = grids.singular_integral(f, r, "interior")[i]
        assert frequency_trace(field, [r[i]]).D[0] == pytest.approx(oracle, rel=1e-8)


class TestFrequencyTrace:
    def test_constant_on_homogeneous_mode(self, ab_single):
        tr = frequency_trace(ab_single, RADII)
        assert np.abs(tr.N - 0.3).max() < 1e-10
        assert tr.gamma_hat == pytest.approx(0.3, abs=1e-8)

    def test_interior_ordering_is_decreasing(self, ab_single):
        tr = frequency_trace(ab_single, RADII)
        assert np.all(np.diff(tr.r) < 0)

    def test_perturbed_limit_and_rate(self, ab_perturbed):
        field = ab_perturbed[0]
        tr = frequency_trace(field, RADII)
        assert tr.gamma_hat == pytest.approx(0.3, abs=1e-5)
        assert tr.eps_hat == pytest.approx(0.5, rel=0.1)

    def test_lower_bound(self, ab_perturbed):
        field = ab_perturbed[0]
        tr = frequency_trace(field, RADII)
        assert np.all(tr.N > -(field.dimension - 2) / 2)

    def test_zero_field_rejected(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 0.0}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        with pytest.raises(DegenerateSolutionError):
            frequency_trace(field, RADII)

    def test_csv_export(self, ab_single, tmp_path):
        tr = frequency_trace(ab_single, RADII)
        path = tmp_path / "trace.csv"
        text = tr.to_csv(path)
        lines = text.strip().splitlines()
        assert lines[0] == "r,H,D,N"
        assert len(lines) == len(RADII) + 1
        assert path.read_text() == text

    def test_fit_summary_keys(self, ab_single):
        tr = frequency_trace(ab_single, RADII)
        assert set(tr.fit_summary()) == {"gamma_hat", "eps_hat", "drift"}


class TestHeightDerivativeIdentity:
    def test_homogeneous(self, ab_single):
        assert check_height_derivative(frequency_trace(ab_single, RADII)) < 1e-8

    def test_two_mode(self, ab_two_mode):
        assert check_height_derivative(frequency_trace(ab_two_mode, RADII)) < 1e-6

    def test_perturbed(self, ab_perturbed):
        field = ab_perturbed[0]
        assert check_height_derivative(frequency_trace(field, RADII)) < 1e-6

    def test_exterior(self, ab_exterior_perturbed):
        field = ab_exterior_perturbed[0]
        tr = frequency_trace(field, np.geomspace(2.0, 1e5, 20))
        assert check_height_derivative(tr) < 1e-6


class TestPohozaev:
    @pytest.mark.parametrize("r", [1e-4, 1e-2, 0.3])
    def test_homogeneous(self, ab_single, r):
        assert pohozaev_residual(ab_single, r) < 1e-8

    def test_constant_field_trivial(self, free_circle_spectrum, radial_grid):
        field = constant_field(free_circle_spectrum, radial_grid)
        assert pohozaev_residual(field, 0.3) < 1e-10

    @pytest.mark.parametrize("r", [1e-3, 0.3])
    def test_perturbed(self, ab_perturbed, r):
        field = ab_perturbed[0]
        assert pohozaev_residual(field, r) < 1e-6

    def test_dipole_homogeneous(self, dipole_spectrum, radial_grid):
        sols = homogeneous_solutions(dipole_spectrum, {2: 1.0}, radial_grid)
        field = synthesize_field(dipole_spectrum, sols)
        assert pohozaev_residual(field, 0.3) < 1e-8

    def test_noise_sensitivity(self, ab_perturbed, rng):
        field, h = ab_perturbed
        bad = from_samples(corrupted(samples_of(field), 0.01, rng), field.spectrum, h)
        assert pohozaev_residual(bad, 0.3) > 1e-2


class TestHeightScaling:
    def test_homogeneous_unit_limit(self, ab_single):
        tr = frequency_trace(ab_single, RADII)
        out = height_scaling_limit(tr, 0.3)
        assert out["limit"] == pytest.approx(1.0, rel=1e-10)
        assert out["drift"] < 1e-10
        assert out["slope_defect"] < 1e-10

    def test_perturbed(self, ab_perturbed):
        field = ab_perturbed[0]
        tr = frequency_trace(field, RADII)
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
        tr = frequency_trace(field, RADII)
        out = height_scaling_limit(tr, 0.5)
        assert out["limit"] == pytest.approx(1.0, rel=1e-10)


class TestExterior:
    def test_homogeneous_constancy(self, ab_spectrum, exterior_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, exterior_grid, side="exterior")
        field = synthesize_field(ab_spectrum, sols)
        tr = frequency_trace(field, np.geomspace(2.0, 1e5, 20))
        assert np.abs(tr.N - 0.3).max() < 1e-10
        assert np.all(np.diff(tr.r) > 0)

    def test_perturbed_limit(self, ab_exterior_perturbed):
        field = ab_exterior_perturbed[0]
        tr = frequency_trace(field, np.geomspace(2.0, 1e5, 20))
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
        tr = frequency_trace(ab_single, RADII)
        out = monotone_drift_correction(tr)
        assert out["monotone"]

    def test_perturbed_finite_correction(self, ab_perturbed):
        field = ab_perturbed[0]
        tr = frequency_trace(field, RADII)
        out = monotone_drift_correction(tr)
        assert out["monotone"]
        assert np.isfinite(out["C2"])


def _homogeneous(sp, r):
    return synthesize_field(sp, homogeneous_solutions(sp, {3: 1.0, 5: 0.3 - 0.7j}, r))


def _picard(angular, mode):
    def solve(sp, r):
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular=angular)
        return solve_perturbed_field(sp, h, {mode: 1.0}, r)[0]
    return solve


CARRIED = {"homogeneous": _homogeneous, "constant_g": _picard(None, 2),
           "cos": _picard({"cos": [1.0]}, 1)}


class TestCarriedModes:
    """The analysis reads only the modes a synthesized field carries, and
    gives what the field zero-padded to all K modes gives, bit for bit."""

    @pytest.fixture(scope="class", params=[False, True], ids=["field", "kelvin_image"])
    def kelvin(self, request):
        return request.param

    @pytest.fixture(scope="class", params=sorted(CARRIED))
    def field(self, request, kelvin, ab_spectrum, radial_grid):
        field = CARRIED[request.param](ab_spectrum, radial_grid)
        return kelvin_transform(field) if kelvin else field

    def _both(self, field, analysis):
        """The analysis on the carried modes and on the padded field; an
        error stands for its type and message."""
        def outcome(f):
            try:
                return analysis(f)
            except EmlabError as exc:
                return type(exc), str(exc)

        return outcome(field), outcome(padded(field))

    def test_carries_the_nonzero_profiles(self, field):
        ks = field.modes
        nonzero = [k for k, p in zip(ks, field.phi) if p.any()]
        assert list(ks) == sorted(ks) == nonzero and len(ks) < field.spectrum.count
        assert field.phi.shape == field.dphi.shape == field.zeta.shape == (len(ks), len(field.r))

    def test_frequency_trace(self, field):
        radii = RADII if field.side == "interior" else np.sort(1.0 / RADII)
        fast, slow = self._both(field, lambda f: frequency_trace(f, radii))
        for name in ("H", "D", "N", "grid_H", "grid_D", "dense_N"):
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
        assert np.array([fast.gamma_hat, fast.eps_hat]).tobytes() == \
            np.array([slow.gamma_hat, slow.eps_hat]).tobytes()

    @pytest.mark.parametrize("r", [1e-3, 0.1])
    def test_pohozaev_residual(self, field, r):
        r = r if field.side == "interior" else 1.0 / r
        fast, slow = self._both(field, lambda f: pohozaev_residual(f, r))
        assert np.array([fast]).tobytes() == np.array([slow]).tobytes()

    @pytest.mark.parametrize("mode", [1, 2, 3, 5])
    def test_extract_coefficients(self, field, mode):
        # a mode the field does not carry contributes a zero coefficient; the
        # exponent of another mode than the field's may leave the integral
        # divergent, which both stacks then report alike
        exp = characteristic_exponents(2, field.spectrum.mu(mode), mode)
        gamma = exp.limit_exponent(field.side)
        own = mode == min(k for k, p in zip(field.modes, field.phi) if p.any())
        for R in ((1.0, 0.1) if field.side == "interior" else (1.0, 10.0)):
            fast, slow = self._both(field, lambda f: extract_coefficients(f, gamma, R))
            if isinstance(slow, tuple):
                assert not own and fast == slow
                continue
            assert fast.beta.tobytes() == slow.beta.tobytes()
            assert (fast.k0, fast.j0, fast.m, fast.R) == (slow.k0, slow.j0, slow.m, slow.R)


def _ab_doc(side, alpha, amplitude, epsilon, mode, nodes):
    return {"potential": {"kind": "aharonov_bohm", "alpha": alpha}, "side": side,
            "perturbation": {"amplitude": amplitude, "epsilon": epsilon, "side": side},
            "boundary": {"values": {str(mode): 1.0}}, "grid": {"nodes": nodes}}


def _tail(side, epsilon, c, noise=0.0):
    """N = 0.3 + c r^(+-epsilon) on a decade of 40 nodes, plus a wiggle of
    size ``noise``: a window whose fit runs into a bound of eps when epsilon
    lies near or beyond it."""
    r = np.geomspace(0.05, 0.5, 40) if side == "interior" else np.geomspace(2.0, 20.0, 40)
    sign = 1.0 if side == "interior" else -1.0
    return r, 0.3 + c * r ** (sign * epsilon) + noise * np.sin(7 * np.log(r))


def _bits(fit):
    return np.array(fit, dtype=float).tobytes()


class TestCallerOrder:
    """The same modal solutions, given to ``synthesize_field`` in any order,
    make one field: its modes ascend and its stacks, frequency trace,
    Pohozaev residual and coefficients are the same bits."""

    @staticmethod
    def _bits(field, radii, gamma) -> list:
        tr = frequency_trace(field, radii)
        return [
            field.modes,
            *(getattr(field, name).tobytes() for name in ("phi", "dphi", "zeta")),
            *(getattr(tr, name).tobytes() for name in ("H", "D", "N", "grid_H", "grid_D")),
            np.array([tr.gamma_hat, tr.eps_hat, *(pohozaev_residual(field, radii[i])
                                                  for i in (0, 10, -1))]).tobytes(),
            extract_coefficients(field, gamma, 1.0).beta.tobytes(),
        ]

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_any_order_gives_the_same_field(self, side, ab_spectrum, radial_grid,
                                            exterior_grid):
        r = radial_grid if side == "interior" else exterior_grid
        sols = homogeneous_solutions(ab_spectrum, {5: 0.2 - 0.3j, 1: 1.0, 3: 0.5}, r, side=side)
        gamma = characteristic_exponents(2, ab_spectrum.mu(1), 1).limit_exponent(side)
        radii = RADII if side == "interior" else np.sort(1.0 / RADII)
        fields = [synthesize_field(ab_spectrum, {k: sols[k] for k in order})
                  for order in permutations(sols)]
        want = self._bits(fields[0], radii, gamma)
        assert want[0] == (1, 3, 5)
        for field in fields[1:]:
            assert self._bits(field, radii, gamma) == want


class TestLimitFit:
    """The trust-region fit of N's limit against scipy's ``curve_fit``,
    which it reproduces bit for bit: (gamma, eps) as float64 bytes."""

    @pytest.fixture(scope="class")
    def windows(self):
        docs = [_ab_doc("interior", 0.3, 0.05, 0.5, 1, 600),
                _ab_doc("exterior", 0.3, 0.05, 0.5, 1, 600),
                _ab_doc("interior", 0.45, 0.08, 0.8, 2, 400),
                _ab_doc("exterior", 0.25, 0.02, 0.6, 2, 400)]
        traces = [Pipeline(scenario_from_dict(doc)).trace for doc in docs]
        return [(tr.dense_r, tr.dense_N, tr.side) for tr in traces]

    @staticmethod
    def _reflections(monkeypatch) -> list:
        """Record, for every step the fit selects, whether it is the
        reflected one: neither the trust-region step, which is returned as
        the very array it was given, nor a multiple of the gradient."""
        taken, select = [], frequency._select_step

        def spy(x, J_h, diag_h, g_h, p, p_h, *rest):
            step, step_h, value = select(x, J_h, diag_h, g_h, p, p_h, *rest)
            along_g = np.allclose(step_h / np.linalg.norm(step_h),
                                  -g_h / np.linalg.norm(g_h), rtol=0, atol=1e-12)
            taken.append(step_h is not p_h and not along_g)
            return step, step_h, value

        monkeypatch.setattr(frequency, "_select_step", spy)
        return taken

    def test_vector_norm_is_numpys(self):
        # the fit's 2-norm is numpy's own formula for a real vector
        rng = np.random.default_rng(3)
        for v in rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-150, 150, (2000, 1)):
            assert frequency._norm(v) == np.linalg.norm(v)

    def test_scenario_windows(self, windows):
        for r_w, n_w, side in windows:
            fit = frequency._fit_frequency_limit(r_w, n_w, side)
            assert np.isfinite(fit).all()
            assert _bits(fit) == _bits(fit_frequency_limit(r_w, n_w, side))

    def test_ulp_perturbed_windows(self, windows):
        rng = np.random.default_rng(27)
        for r_w, n_w, side in windows:
            for _ in range(3):
                noisy = n_w + rng.integers(-3, 4, n_w.size) * np.spacing(n_w)
                assert _bits(frequency._fit_frequency_limit(r_w, noisy, side)) == \
                    _bits(fit_frequency_limit(r_w, noisy, side))

    # on the wiggled tails the fit steps on after a Jacobian taken next to a
    # bound, its step turned back into the box, or the layout of V matters
    @pytest.mark.parametrize("side, epsilon, c, noise", [
        ("interior", 1e-3, 0.05, 0), ("exterior", 1e-3, -0.05, 0), ("interior", 1.2e-3, 0.5, 0),
        ("exterior", 1.2e-3, 0.5, 0), ("interior", 12.0, 0.5, 0), ("exterior", 12.0, -0.5, 0),
        ("interior", 12.0, -0.05, 0), ("exterior", 12.0, 0.05, 0),
        ("interior", 13.0, -0.5, 1e-7), ("exterior", 13.0, 0.5, 1e-9),
        ("interior", 1e-3, 0.5, 1e-9), ("exterior", 1e-3, 0.5, 1e-9),
    ])
    def test_tails_at_the_bounds_of_eps(self, monkeypatch, side, epsilon, c, noise):
        r, n = _tail(side, epsilon, c, noise)
        taken = self._reflections(monkeypatch)
        fit = frequency._fit_frequency_limit(r, n, side)
        assert _bits(fit) == _bits(fit_frequency_limit(r, n, side))
        assert 1e-3 < fit[1] < 10.0 and any(taken)

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    @pytest.mark.parametrize("epsilon, c", [(12.0, 0.5), (20.0, -0.5), (40.0, 0.05)])
    def test_a_step_past_the_upper_bound_stays_inside(self, side, epsilon, c):
        # on the decade next to r = 1 a tail far steeper than the box runs
        # into eps = 10; the step that reaches it is put one ulp inside, as
        # scipy's make_strictly_feasible does
        r = np.geomspace(0.1, 1.0, 60) if side == "interior" else np.geomspace(1.0, 10.0, 60)
        n = 0.3 + c * r ** (epsilon if side == "interior" else -epsilon)
        fit = frequency._fit_frequency_limit(r, n, side)
        assert fit[1] == np.nextafter(10.0, 0.0)
        assert _bits(fit) == _bits(fit_frequency_limit(r, n, side))

    @pytest.mark.parametrize("side, epsilon, c, gamma, eps", [
        ("interior", 1.2e-3, 0.5, "0x1.33333332fab42p-2", "0x1.3a92a30530745p-10"),
        ("exterior", 1.2e-3, -0.5, "0x1.332f9812b737ap-2", "0x1.3a94db525584cp-10"),
        ("interior", 12.0, 0.5, "0x1.33330db164f26p-2", "0x1.3fffffffffffdp+3"),
        ("exterior", 12.0, -0.5, "0x1.333358b5063fcp-2", "0x1.3fffffffffffdp+3"),
    ])
    def test_pinned_values(self, side, epsilon, c, gamma, eps):
        # the library's own results, whatever scipy the tests run with
        fit = frequency._fit_frequency_limit(*_tail(side, epsilon, c), side)
        assert fit == (float.fromhex(gamma), float.fromhex(eps))

    def test_flat_window_fits_nothing(self, monkeypatch):
        monkeypatch.setattr(frequency, "_least_squares", None)
        r = np.geomspace(1e-5, 1e-4, 20)
        gamma, eps = frequency._fit_frequency_limit(r, np.full(20, 0.3), "interior")
        assert gamma == 0.3 and np.isnan(eps)

    def test_running_out_of_evaluations(self, monkeypatch, windows):
        r_w, n_w, side = windows[0]
        with pytest.raises(RuntimeError, match="maximum number of function evaluations"):
            fit_frequency_limit(r_w, n_w, side, maxfev=5)
        monkeypatch.setattr(frequency, "_MAX_NFEV", 5)
        with pytest.raises(NumericalFailureError, match="frequency limit fit failed: .*"
                                                        "maximum number of function evaluations"):
            frequency._fit_frequency_limit(r_w, n_w, side)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window(self, windows, bad):
        r_w, n_w, side = windows[0]
        n_w = n_w.copy()
        n_w[3] = bad
        with pytest.raises(NumericalFailureError, match="not finite"):
            frequency._fit_frequency_limit(r_w, n_w, side)
        r_w = r_w.copy()
        r_w[3] = bad
        with pytest.raises(NumericalFailureError, match="not finite"):
            frequency._fit_frequency_limit(r_w, windows[0][1], side)
