import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emlab import grids, modal
from emlab.angular import AngularSpectrum
from emlab.errors import (
    DegenerateIndicialError,
    ForcingTooSingularError,
    GridMismatchError,
    IndefiniteFormError,
    NumericalFailureError,
)
from emlab.modal import (
    ModalExponents,
    PerturbationSpec,
    characteristic_exponents,
    homogeneous_solutions,
    solve_perturbed_field,
    solve_radial_mode,
    synthesize_field,
)
import oracles
from oracles import (
    corrupted,
    from_samples,
    padded,
    perturbation_samples,
    project,
    project_onto_modes,
    samples_of,
)


def _phi(field, k):
    """The profile phi_k of a mode the field holds."""
    return field.phi[field.modes.index(k)]


class TestCharacteristicExponents:
    @pytest.mark.parametrize(
        "N,mu,plus,minus",
        [
            (2, 0.09, 0.3, -0.3),
            (3, 2.0, 1.0, -2.0),
            (4, 0.0, 0.0, -2.0),
        ],
    )
    def test_closed_form(self, N, mu, plus, minus):
        exp = characteristic_exponents(N, mu)
        assert exp.sigma_plus == pytest.approx(plus, abs=1e-14)
        assert exp.sigma_minus == pytest.approx(minus, abs=1e-14)
        assert exp.sigma_plus + exp.sigma_minus == pytest.approx(-(N - 2), abs=1e-13)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteFormError):
            characteristic_exponents(2, 0.0)
        with pytest.raises(IndefiniteFormError):
            characteristic_exponents(3, -0.25)


class TestRadialSolve:
    def test_homogeneous_power_law(self, radial_grid):
        exp = characteristic_exponents(2, 0.09)
        sol = solve_radial_mode(exp, np.zeros_like(radial_grid, dtype=complex), 1.0, radial_grid)
        assert_allclose(sol.phi, radial_grid**0.3, rtol=1e-12)
        assert_allclose(sol.dphi, 0.3 * radial_grid ** (-0.7), rtol=1e-12)

    def test_zero_boundary_zero_solution(self, radial_grid):
        exp = characteristic_exponents(2, 0.49)
        sol = solve_radial_mode(exp, np.zeros_like(radial_grid, dtype=complex), 0.0, radial_grid)
        assert np.abs(sol.phi).max() == 0.0

    def test_power_forcing_matches_antiderivatives(self, radial_grid):
        # zeta = s^(sigma+ - 2 + eps) has closed-form profile integrals
        r = radial_grid
        exp = characteristic_exponents(2, 0.09)
        sp, sm = exp.sigma_plus, exp.sigma_minus
        eps = 0.5
        gap = sp - sm
        p = sp - 2 + eps
        zeta = (r**p).astype(complex)
        e1, e2 = 1 - sp + p, 1 - sm + p
        I_plus = (1 - r ** (e1 + 1)) / (e1 + 1) / gap
        I_minus = r ** (e2 + 1) / (e2 + 1) / gap
        c1 = 1.0 - I_minus[-1]
        phi_exact = r**sp * (c1 + I_plus) + r**sm * I_minus
        dphi_exact = sp * r ** (sp - 1) * (c1 + I_plus) + sm * r ** (sm - 1) * I_minus
        sol = solve_radial_mode(exp, zeta, 1.0, r)
        assert_allclose(sol.phi, phi_exact, rtol=1e-9, atol=1e-12)
        assert_allclose(sol.dphi, dphi_exact, rtol=1e-9, atol=1e-9)

    def test_exterior_homogeneous_decay(self, exterior_grid):
        exp = characteristic_exponents(2, 0.09)
        sol = solve_radial_mode(
            exp, np.zeros_like(exterior_grid, dtype=complex), 1.0, exterior_grid,
            side="exterior",
        )
        assert_allclose(sol.phi, exterior_grid**exp.sigma_minus, rtol=1e-12)

    def test_exterior_power_forcing_oracle(self, exterior_grid):
        r = exterior_grid
        exp = characteristic_exponents(2, 0.09)
        sp, sm = exp.sigma_plus, exp.sigma_minus
        gap = sp - sm
        eps = 0.5
        p = sm - 2 - eps
        zeta = (r**p).astype(complex)
        e1, e2 = 1 - sm + p, 1 - sp + p
        I_minus = (r ** (e1 + 1) - 1.0) / (e1 + 1) / gap
        I_plus = -(r ** (e2 + 1)) / (e2 + 1) / gap
        c1 = 1.0 - I_plus[0]
        phi_exact = r**sm * (c1 + I_minus) + r**sp * I_plus
        sol = solve_radial_mode(exp, zeta, 1.0, r, side="exterior")
        assert_allclose(sol.phi, phi_exact, rtol=1e-9)

    def test_regular_branch_slope(self, radial_grid):
        # |phi| may not decay slower than r^sigma+ as r -> 0
        exp = characteristic_exponents(2, 0.09)
        zeta = (0.1 * radial_grid ** (exp.sigma_plus - 1.5)).astype(complex)
        sol = solve_radial_mode(exp, zeta, 1.0, radial_grid)
        slope = grids.fitted_slope(radial_grid[:200], np.abs(sol.phi[:200]))
        assert slope >= exp.sigma_plus - 0.01

    def test_degenerate_exponents_rejected(self, radial_grid):
        exp = ModalExponents(k=1, mu=-0.25, sigma_plus=0.3, sigma_minus=0.3)
        with pytest.raises(DegenerateIndicialError):
            solve_radial_mode(exp, np.zeros_like(radial_grid, dtype=complex), 1.0, radial_grid)

    def test_divergent_forcing_rejected(self, radial_grid):
        exp = characteristic_exponents(2, 0.09)
        zeta = (radial_grid ** (exp.sigma_minus - 2.5)).astype(complex)
        with pytest.raises(ForcingTooSingularError):
            solve_radial_mode(exp, zeta, 1.0, radial_grid)

    def test_grid_mismatch(self, radial_grid):
        exp = characteristic_exponents(2, 0.09)
        with pytest.raises(GridMismatchError):
            solve_radial_mode(exp, np.zeros(7, dtype=complex), 1.0, radial_grid)


class TestZeroData:
    """A mode without boundary value or forcing skips the integrals; the
    variation-of-parameters body stays as its oracle."""

    @pytest.mark.parametrize("N,mu", [(2, 0.09), (3, 2.0)])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_equals_the_general_body(self, N, mu, side, radial_grid, exterior_grid):
        r = radial_grid if side == "interior" else exterior_grid
        exp = characteristic_exponents(N, mu)
        zeta = np.zeros_like(r, dtype=complex)
        fast = solve_radial_mode(exp, zeta, 0.0, r, side=side)
        slow = modal._variation_of_parameters(exp, zeta, 0.0, r, side)
        for got, want in ((fast.phi, slow.phi), (fast.dphi, slow.dphi)):
            assert np.array_equal(got, want)
            for a in (got, want):
                assert not np.signbit(a.real).any() and not np.signbit(a.imag).any()
        assert fast.c1 == slow.c1 == 0j
        assert fast.zeta is zeta and slow.zeta is zeta
        assert (fast.exponents, fast.boundary_radius, fast.side) == \
            (slow.exponents, slow.boundary_radius, slow.side)

    def test_profile_is_read_only(self, radial_grid):
        exp = characteristic_exponents(2, 0.09)
        sol = solve_radial_mode(exp, np.zeros_like(radial_grid, dtype=complex), 0.0,
                                radial_grid)
        for a in (sol.phi, sol.dphi):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_keeps_the_checks(self, radial_grid):
        zeros = np.zeros_like(radial_grid, dtype=complex)
        degenerate = ModalExponents(k=1, mu=-0.25, sigma_plus=0.3, sigma_minus=0.3)
        with pytest.raises(DegenerateIndicialError):
            solve_radial_mode(degenerate, zeros, 0.0, radial_grid)
        exp = characteristic_exponents(2, 0.09)
        with pytest.raises(GridMismatchError):
            solve_radial_mode(exp, zeros[:7], 0.0, radial_grid)
        with pytest.raises(ValueError):
            solve_radial_mode(exp, zeros, 0.0, radial_grid, side="outside")


class TestPowerProfile:
    """A mode with a boundary value and no forcing is the power law c1 r^a,
    bit for bit the variation-of-parameters body it skips."""

    @pytest.mark.parametrize("value", [1.0, -2.5, 0.3 - 0.7j, complex(-0.0, 2.0)],
                             ids=["one", "negative", "complex", "negative_zero"])
    @pytest.mark.parametrize("N,mu", [(2, 0.09), (3, 2.0), (3, -0.1)])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_equals_the_general_body(self, side, N, mu, value, radial_grid, exterior_grid,
                                     monkeypatch):
        r = radial_grid if side == "interior" else exterior_grid
        exp = characteristic_exponents(N, mu, 1)
        zeta = np.zeros_like(r, dtype=complex)
        slow = modal._variation_of_parameters(exp, zeta, value, r, side)

        def refuse(*args):
            raise AssertionError("the power law ran the general body")

        monkeypatch.setattr(modal, "_variation_of_parameters", refuse)
        fast = solve_radial_mode(exp, zeta, value, r, side=side)
        assert np.array_equal(fast.phi, slow.phi)
        assert np.array_equal(fast.dphi, slow.dphi)
        assert fast.c1 == slow.c1
        # the signs of zero parts too
        for got, want in ((fast.phi, slow.phi), (fast.dphi, slow.dphi)):
            assert got.tobytes() == want.tobytes()
        assert np.array([fast.c1]).tobytes() == np.array([slow.c1]).tobytes()
        assert fast.zeta is zeta
        assert (fast.exponents, fast.boundary_radius, fast.side) == \
            (slow.exponents, slow.boundary_radius, slow.side)

    def test_keeps_the_checks(self, radial_grid):
        # TestRadialSolve checks the exponents and the grid with this data
        exp = characteristic_exponents(2, 0.09, 1)
        with pytest.raises(ValueError):
            solve_radial_mode(exp, np.zeros_like(radial_grid, dtype=complex), 1.0,
                              radial_grid, side="outside")
        # c1 = b R^-0.3 overflows at R = 1e-4 for b near the float limit
        r = grids.log_grid(1e-8, 1e-4, 300)
        with pytest.raises(NumericalFailureError, match="radial profile of mode 1 overflows"):
            solve_radial_mode(exp, np.zeros_like(r, dtype=complex), 1e308, r)


class TestSynthesisProjection:
    def test_single_mode_roundtrip(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        prof = project_onto_modes(field)
        assert_allclose(prof[0], sols[1].phi, atol=1e-12)
        assert np.abs(prof[1:]).max() < 1e-12

    def test_three_mode_roundtrip(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(
            ab_spectrum, {1: 1.0, 2: 0.5, 3: 0.25j}, radial_grid
        )
        field = synthesize_field(ab_spectrum, sols)
        prof = project_onto_modes(field)
        for k, sol in sols.items():
            assert_allclose(prof[k - 1], sol.phi, atol=1e-10)

    def test_constant_field_on_free_circle(self, free_circle_spectrum, radial_grid):
        sols = homogeneous_solutions(free_circle_spectrum, {2: 1.0}, radial_grid)
        field = synthesize_field(free_circle_spectrum, sols)
        # replace values by a constant; only the constant mode should survive
        const = replace(samples_of(field), values=field.values * 0 + 1.0)
        prof = _phi(from_samples(const, free_circle_spectrum), 1)
        assert np.abs(prof - prof[0]).max() < 1e-12
        assert np.abs(prof[0]) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)

    def test_parseval(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0, 3: 0.5}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        quad = np.abs(field.values) ** 2 @ field.angular_weights
        modal = sum(np.abs(s.phi) ** 2 for s in sols.values())
        assert_allclose(quad, modal, atol=1e-10 * modal.max())

    def test_sphere_roundtrip(self, dipole_spectrum, radial_grid):
        sols = homogeneous_solutions(dipole_spectrum, {1: 1.0, 2: 0.3}, radial_grid)
        field = synthesize_field(dipole_spectrum, sols)
        prof = project_onto_modes(field)
        for k, sol in sols.items():
            assert_allclose(prof[k - 1], sol.phi, atol=1e-10)

    def test_gradient_samples_match_fd(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0, 2: 0.5}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        fd = grids.log_derivative(field.values, radial_grid)
        mid = slice(100, -100)
        assert_allclose(field.du_dr[mid], fd[mid], rtol=1e-7, atol=1e-9)


class TestPerturbation:
    def test_zero_perturbation(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        field = synthesize_field(ab_spectrum, sols, PerturbationSpec(amplitude=0.0))
        z = perturbation_samples(field)
        assert np.abs(z).max() == 0.0

    def test_constant_factor_hits_single_mode(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        h = PerturbationSpec(amplitude=1.0, epsilon=0.5)
        field = synthesize_field(ab_spectrum, sols, h)
        z = perturbation_samples(field)
        expect = radial_grid ** (-1.5) * sols[1].phi
        assert_allclose(z[0], expect, rtol=1e-10)
        assert np.abs(z[1:]).max() < 1e-10 * np.abs(z[0]).max()

    def test_cos_factor_mixes_adjacent_fourier_modes(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        h = PerturbationSpec(amplitude=1.0, epsilon=0.5, angular={"cos": [1.0]})
        field = synthesize_field(ab_spectrum, sols, h)
        z = perturbation_samples(field)
        # modes 2 and 3 are the j = -1 and j = +1 neighbours of the ground mode
        scale = np.abs(z).max()
        assert np.abs(z[1]).max() > 1e-3 * scale
        assert np.abs(z[2]).max() > 1e-3 * scale
        assert np.abs(z[0]).max() < 1e-10 * scale
        # oracle: direct 2d quadrature at one radius
        i = 1500
        t = field.angular_nodes[0]
        hu = np.cos(t) * field.values[i] * radial_grid[i] ** (-1.5)
        psi2 = ab_spectrum.psi_values(2)
        direct = np.sum(field.angular_weights * hu * np.conj(psi2))
        assert z[1][i] == pytest.approx(direct, rel=1e-12)


class TestPicard:
    def test_geometric_convergence(self, ab_spectrum, radial_grid):
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        assert info["converged"]
        ratios = [b / a for a, b in zip(info["residuals"], info["residuals"][1:]) if a > 1e-13]
        assert all(rho < 0.9 for rho in ratios)

    def test_solution_satisfies_mode_ode(self, ab_spectrum, radial_grid):
        # the converged profile must reproduce itself through one more solve
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular={"cos": [1.0]})
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        assert info["converged"]
        z = perturbation_samples(field)
        exp = characteristic_exponents(2, ab_spectrum.mu(1), 1)
        sol1 = solve_radial_mode(exp, z[0], 1.0, radial_grid)
        assert_allclose(sol1.phi, _phi(field, 1), atol=1e-10)

    def test_leading_slope_is_sigma_plus(self, ab_spectrum, radial_grid):
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
        field, _ = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        slope = grids.fitted_slope(radial_grid[:200], np.abs(_phi(field, 1)[:200]))
        assert slope == pytest.approx(0.3, abs=1e-3)

    def test_converges_without_gradient_samples(self, ab_spectrum, radial_grid, monkeypatch):
        def no_gradient(*args, **kwargs):
            raise AssertionError("Picard iteration read a gradient sample")

        monkeypatch.setattr(AngularSpectrum, "psi_gradient", no_gradient)
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        assert info["converged"]

    def test_exterior_picard(self, ab_spectrum, exterior_grid):
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, side="exterior")
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, exterior_grid)
        assert info["converged"]
        slope = grids.fitted_slope(exterior_grid[-200:], np.abs(_phi(field, 1)[-200:]))
        assert slope == pytest.approx(-0.3, abs=1e-3)

    def test_overflowing_forcing_raises_without_warnings(self, ab_spectrum, radial_grid):
        # RuntimeWarnings are errors under this suite's settings
        h = PerturbationSpec(amplitude=1e300, epsilon=0.5)
        with pytest.raises(NumericalFailureError, match="overflows"):
            solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)

    def test_overflowing_radial_solve_raises_without_warnings(self, ab_spectrum,
                                                              exterior_grid):
        # a finite forcing whose integrals overflow out at 1e8 R
        exp = characteristic_exponents(2, ab_spectrum.mu(1), 1)
        zeta = 1e307 * exterior_grid ** -2.0
        with pytest.raises(NumericalFailureError, match="radial profile of mode 1 overflows"):
            solve_radial_mode(exp, zeta, 1.0, exterior_grid, side="exterior")


class TestPerturbationSpec:
    """The spec is the one validator of a perturbation; each message starts
    with the entry it names."""

    @pytest.mark.parametrize("entries,entry", [
        ({"amplitude": np.nan}, "amplitude"),
        ({"amplitude": complex(0, np.inf)}, "amplitude"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": np.inf}, "epsilon"),
        ({"epsilon": np.nan}, "epsilon"),
        ({"side": "outside"}, "side"),
        ({"angular": "x"}, "angular"),
        ({"angular": [1.0, 2.0]}, "angular"),
        ({"angular": {"cos": [np.nan]}}, "angular"),
    ])
    def test_rejects_naming_the_entry(self, entries, entry):
        with pytest.raises(ValueError, match=f"^{entry}"):
            PerturbationSpec(**entries)


class _CountingRows:
    """``modal._sum_rows``, the one kernel of every nodal sum, counting the
    rows it sums and keeping the largest block."""

    def __init__(self, monkeypatch):
        self.rows = 0
        self.largest = 0
        self.hook = modal._sum_rows
        monkeypatch.setattr(modal, "_sum_rows", self)

    def __call__(self, terms, rows, out):
        self.rows += len(out)
        self.largest = max(self.largest, len(out))
        return self.hook(terms, rows, out)


class TestPicardWork:
    """Only modes carrying a forcing are integrated, only modes carrying data
    are summed, and skipping the others changes no bit of the solution."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """Modes handed to the general radial body, in call order."""
        calls = []

        def counting(exp, *args):
            calls.append(exp.k)
            return general(exp, *args)

        general = modal._variation_of_parameters
        monkeypatch.setattr(modal, "_variation_of_parameters", counting)
        return calls

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_constant_factor_solves_and_sums_the_forced_mode_only(
            self, side, ab_spectrum, radial_grid, exterior_grid, solved, monkeypatch):
        r = radial_grid if side == "interior" else exterior_grid
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, side=side)
        summed = _CountingRows(monkeypatch)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r)
        n = info["iterations"]
        assert n > 1
        # one solve per iteration; the homogeneous start is a power law
        assert solved == [1] * n
        # the values the forcing reads, each row once: those of the start and
        # of every iterate but the last, whose sup norms are modal; summed by
        # row blocks, never over the whole grid
        assert summed.rows == n * len(r)
        assert summed.largest < len(r)
        field.du_dr, field.angular_gradient
        assert summed.rows == (n + 2) * len(r)

    @pytest.mark.parametrize("angular", [None, {"cos": [1.0]}], ids=["constant", "cos"])
    def test_skipping_changes_no_bit(self, angular, ab_spectrum, radial_grid, solved,
                                     monkeypatch):
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular=angular)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        carrying = []

        def general_only(exp, zeta, boundary_value, r, side="interior"):
            zeta = np.asarray(zeta, dtype=complex)
            if zeta.any():
                carrying.append(exp.k)
            return modal._variation_of_parameters(exp, zeta, boundary_value, r, side)

        monkeypatch.setattr(modal, "solve_radial_mode", general_only)
        fast_calls = solved.copy()
        oracle, oracle_info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        assert info == oracle_info
        assert field.modes == oracle.modes
        assert np.array_equal(field.phi, oracle.phi)
        assert np.array_equal(field.dphi, oracle.dphi)
        assert np.array_equal(field.values, _modal_sums(oracle)[0])
        # the general body ran exactly for the solves that carried a forcing
        assert fast_calls == carrying
        if angular is not None:
            # cos t couples each mode to its Fourier neighbours
            assert {1, 2, 3} <= set(carrying)


def _carries(sol) -> bool:
    return bool(sol.phi.any() or sol.dphi.any() or sol.zeta.any())


class TestHeldModes:
    """A field holds exactly the modes it carries, those whose phi, dphi or
    zeta is nonzero, in ascending order; a field that carries none holds
    them all.  The Picard loop solves only the modes with boundary data or
    forcing, and a field owns its forcing stack, not a view of the whole
    (K, n_r) forcing that the next projection overwrites."""

    @pytest.mark.parametrize("angular", [None, {"cos": [1.0]}], ids=["constant", "cos"])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_holds_exactly_the_carried_modes(self, side, angular, ab_spectrum, radial_grid,
                                             exterior_grid):
        r = radial_grid if side == "interior" else exterior_grid
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular=angular, side=side)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r)
        assert info["iterations"] > 1
        assert all(p.any() or d.any() or z.any()
                   for p, d, z in zip(field.phi, field.dphi, field.zeta))
        assert list(field.modes) == sorted(field.modes)
        # the modes the nodal loop, which solves every mode, carries
        sols = _nodal_picard(ab_spectrum, h, {1: 1.0}, r)[0]
        coupled = {k for k, s in sols.items() if _carries(s)}
        assert set(field.modes) == coupled
        if angular is None:
            assert coupled == {1}
        else:
            # cos t couples each mode to its Fourier neighbours
            assert {1, 2, 3} <= coupled
        assert field.zeta.base is None

    @pytest.mark.parametrize("angular", [None, {"cos": [1.0]}], ids=["constant", "cos"])
    @pytest.mark.parametrize("amplitude", [0.05, 0.0], ids=["forced", "unforced"])
    def test_loop_solves_only_the_held_modes(self, amplitude, angular, ab_spectrum,
                                             radial_grid, monkeypatch):
        calls = []
        solve = modal.solve_radial_mode

        def counting(exp, *args, **kwargs):
            calls.append(exp.k)
            return solve(exp, *args, **kwargs)

        monkeypatch.setattr(modal, "solve_radial_mode", counting)
        h = PerturbationSpec(amplitude=amplitude, epsilon=0.5, angular=angular)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, radial_grid)
        # the homogeneous start solves the mode with a boundary value; each
        # iteration solves its held modes, in mode order, once each
        start, loop = calls[:1], calls[1:]
        assert start == [1]
        per_iteration = [[]]
        for k in loop:
            if per_iteration[-1] and k <= per_iteration[-1][-1]:
                per_iteration.append([])
            per_iteration[-1].append(k)
        assert len(per_iteration) == info["iterations"]
        assert per_iteration[-1] == list(field.modes)
        if angular is None or amplitude == 0:
            assert loop == [1] * info["iterations"]
        else:
            # the start's forcing reaches mode 1's Fourier neighbours alone
            assert per_iteration[0] == [1, 2, 3]
        if amplitude == 0:
            assert info["iterations"] == 1

    def test_homogeneous_field_holds_the_modes_with_data(self, ab_spectrum, radial_grid):
        field = synthesize_field(
            ab_spectrum, homogeneous_solutions(ab_spectrum, {1: 1.0, 3: 0}, radial_grid))
        assert field.modes == (1,)

    @pytest.mark.parametrize("carrier", ["phi", "dphi", "zeta"])
    def test_one_nonzero_profile_carries_a_mode(self, carrier, ab_spectrum, radial_grid):
        # modes 3, 1 and 2 in the caller's order: 3 carries data, 2 carries
        # only ``carrier``, 1 carries nothing; the field holds 2 and 3, ascending
        sols = homogeneous_solutions(ab_spectrum, {3: 1.0, 1: 0.0, 2: 0.0}, radial_grid)
        sols[2] = replace(sols[2], **{carrier: np.full_like(radial_grid, 1e-300, dtype=complex)})
        field = synthesize_field(ab_spectrum, sols)
        assert field.modes == (2, 3)
        assert np.array_equal(getattr(field, carrier)[0], getattr(sols[2], carrier))

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    @pytest.mark.parametrize("boundary_values", [{}, {1: 0.0, 4: 0.0}], ids=["none", "zeros"])
    def test_zero_data_gives_the_zero_field_of_every_mode(self, side, boundary_values,
                                                          ab_spectrum, radial_grid,
                                                          exterior_grid):
        r = radial_grid if side == "interior" else exterior_grid
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular={"cos": [1.0]}, side=side)
        field, info = solve_perturbed_field(ab_spectrum, h, boundary_values, r)
        assert info == {"iterations": 1, "residuals": [0.0], "converged": True}
        assert field.modes == tuple(range(1, ab_spectrum.count + 1))
        assert not (field.phi.any() or field.dphi.any() or field.zeta.any())
        assert field.side == side and field.perturbation is h

    def test_writeable_zero_forcing_gets_its_own_zero(self, radial_grid):
        # zero data gives a new read-only zero profile, whatever the forcing
        # array's flags
        exp = characteristic_exponents(2, 0.09)
        zeta = np.zeros_like(radial_grid, dtype=complex)
        sol = solve_radial_mode(exp, zeta, 0.0, radial_grid)
        assert sol.zeta is zeta and sol.phi is sol.dphi and sol.phi is not zeta
        assert not sol.phi.flags.writeable and zeta.flags.writeable
        zeta.flags.writeable = False
        again = solve_radial_mode(exp, zeta, 0.0, radial_grid)
        assert again.zeta is zeta and again.phi is not zeta
        assert not again.phi.flags.writeable and not again.phi.any()


class TestFieldSample:
    def test_solved_field_carries_its_perturbation(self, ab_perturbed, ab_spectrum,
                                                   radial_grid):
        field, h = ab_perturbed
        assert field.perturbation is h
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        assert synthesize_field(ab_spectrum, sols).perturbation is None

    def test_detached_and_corrupted_keep_the_perturbation(self, ab_perturbed, rng):
        # a field projected from samples carries the h it is given
        field, h = ab_perturbed
        assert from_samples(samples_of(field), field.spectrum, h).perturbation is h
        bad = corrupted(samples_of(field), 0.01, rng)
        assert from_samples(bad, field.spectrum, h).perturbation is h

    def test_corrupted_drops_modal(self, ab_spectrum, radial_grid, rng):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        bad = corrupted(samples_of(field), 0.01, rng)
        assert bad.du_dr is None and bad.angular_gradient is None
        rel = np.abs(bad.values - field.values).max() / np.abs(field.values).max()
        assert 1e-4 < rel < 0.1

    def test_detached_keeps_values(self, ab_spectrum, radial_grid):
        sols = homogeneous_solutions(ab_spectrum, {1: 1.0}, radial_grid)
        field = synthesize_field(ab_spectrum, sols)
        bare = samples_of(field)
        assert not hasattr(bare, "phi")
        assert np.shares_memory(bare.values, field.values)


def _modal_sums(field):
    """values, du_dr and angular gradient summed here from the profiles."""
    sp = field.spectrum
    values = sum(np.outer(phi, sp.psi_values(k)) for k, phi in zip(field.modes, field.phi))
    du_dr = sum(np.outer(dphi, sp.psi_values(k)) for k, dphi in zip(field.modes, field.dphi))
    grads = [sp.psi_gradient(k) for k in field.modes]
    ang = tuple(
        sum(np.outer(phi, g[c]) for phi, g in zip(field.phi, grads))
        for c in range(field.dimension - 1)
    )
    return values, du_dr, ang


class TestLazyNodalArrays:
    @pytest.fixture(params=["interior", "exterior", "dipole"])
    def field(self, request, ab_perturbed, ab_exterior_perturbed, dipole_spectrum,
              radial_grid):
        if request.param == "interior":
            return ab_perturbed[0]
        if request.param == "exterior":
            return ab_exterior_perturbed[0]
        sols = homogeneous_solutions(dipole_spectrum, {1: 1.0, 2: 0.3, 4: 0.2j}, radial_grid)
        return synthesize_field(dipole_spectrum, sols)

    def test_arrays_are_modal_sums(self, field):
        values, du_dr, ang = _modal_sums(field)
        assert_allclose(field.values, values, rtol=0, atol=1e-14 * np.abs(values).max())
        assert_allclose(field.du_dr, du_dr, rtol=0, atol=1e-14 * np.abs(du_dr).max())
        assert len(field.angular_gradient) == field.dimension - 1
        for got, want in zip(field.angular_gradient, ang):
            assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_zero_modes_skipped_bit_identically(self, field):
        # the perturbed AB fields carry mode 1 alone and hold no other: their
        # sums equal those over all K modes, modes 2..8 added as zeros
        assert len(field.modes) == (3 if field.dimension == 3 else 1)
        values, du_dr, ang = _modal_sums(padded(field))
        assert np.array_equal(field.values, values)
        assert np.array_equal(field.du_dr, du_dr)
        for got, want in zip(field.angular_gradient, ang, strict=True):
            assert np.array_equal(got, want)

    def test_several_modes_sum_with_one_product_alive(self, dipole_spectrum, radial_grid):
        # the running sum and the product being added, never a third array
        sols = homogeneous_solutions(dipole_spectrum, {1: 1.0, 2: 0.3, 4: 0.2j}, radial_grid)
        field = synthesize_field(dipole_spectrum, sols)
        tracemalloc.start()
        try:
            field.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * field.values.nbytes

    def test_built_once_and_kept(self, field):
        assert field.values is field.values
        assert field.du_dr is field.du_dr
        assert field.angular_gradient is field.angular_gradient

    def test_detached_carries_the_arrays(self, field):
        bare = samples_of(field)
        assert not hasattr(bare, "phi")
        assert bare.values is field.values
        assert bare.du_dr is field.du_dr
        assert bare.angular_gradient is field.angular_gradient

    def test_synthesis_reads_no_angular_sample(self, dipole_spectrum, radial_grid,
                                               monkeypatch):
        sols = homogeneous_solutions(dipole_spectrum, {1: 1.0}, radial_grid)

        def no_samples(*args, **kwargs):
            raise AssertionError("nodal samples built before they were read")

        monkeypatch.setattr(AngularSpectrum, "psi_values", no_samples)
        monkeypatch.setattr(AngularSpectrum, "psi_gradient", no_samples)
        field = synthesize_field(dipole_spectrum, sols)
        assert field.modes == (1,)
        with pytest.raises(AssertionError):
            field.values

    def test_frozen(self, ab_perturbed):
        from dataclasses import FrozenInstanceError

        with pytest.raises(FrozenInstanceError):
            ab_perturbed[0].values = None


def _nodal_values(spectrum, sols):
    """sum_k phi_k psi_k on the basis grid, every mode's product added."""
    return sum(np.outer(s.phi, spectrum.psi_values(k)) for k, s in sols.items())


def _nodal_picard(spectrum, h, boundary_values, r):
    """The Picard loop on nodal arrays, kept as the oracle of the modal
    stopping rule and of the forcing with g folded into the weights: h*u is
    formed on the product grid and projected, and successive fields are
    compared through their nodal values.  Returns (sols, values, residuals)."""
    N, K = spectrum.potential.dimension, spectrum.count
    nodes, w = spectrum.nodes, spectrum.basis.grid()[-1]
    exps = {k: characteristic_exponents(N, spectrum.mu(k), k) for k in range(1, K + 1)}
    bvals = {k: complex(boundary_values.get(k, 0.0)) for k in range(1, K + 1)}
    sols = homogeneous_solutions(spectrum, bvals, r, side=h.side)
    values = _nodal_values(spectrum, sols)
    psis = np.stack([spectrum.psi_values(k) for k in range(1, K + 1)])
    g = h.angular_factor(*nodes)
    zero = np.zeros_like(r, dtype=complex)
    residuals = []
    for _ in range(modal.PICARD_MAX_ITER):
        hu = values * g[None, :]
        zeta = (hu @ (np.conj(psis).T * w[:, None])).T * h.radial_factor(r)[None, :]
        zmax = np.abs(zeta).max()
        sols = {
            k: solve_radial_mode(
                exps[k], zeta[k - 1] if np.abs(zeta[k - 1]).max() > 1e-13 * zmax else zero,
                bvals[k], r, side=h.side)
            for k in range(1, K + 1)
        }
        new_values = _nodal_values(spectrum, sols)
        residuals.append(float(np.abs(new_values - values).max()))
        values = new_values
        if residuals[-1] < modal.PICARD_TOL * max(float(np.abs(values).max()), 1e-300):
            break
    return sols, values, residuals


def _whole_projection(field, data, weights):
    """The projection of a whole nodal array onto the field's modes."""
    return project(field.spectrum, data, weights)


def _field(request, name):
    """A solved or synthesized field by name, for the sup-norm oracle."""
    N3 = {"N3 one mode": {2: 1.0}, "N3 three modes": {1: 1.0, 2: 0.3, 4: 0.2j}}
    if name in N3:
        spectrum = request.getfixturevalue("dipole_spectrum")
        r = request.getfixturevalue("radial_grid")
        return synthesize_field(spectrum, homogeneous_solutions(spectrum, N3[name], r))
    side, angular = name.split()
    r = request.getfixturevalue("radial_grid" if side == "interior" else "exterior_grid")
    h = PerturbationSpec(amplitude=0.05, epsilon=0.5, side=side,
                         angular=None if angular == "constant" else {"cos": [1.0]})
    return solve_perturbed_field(request.getfixturevalue("ab_spectrum"), h, {1: 1.0}, r)[0]


def _modal_bound(u, v=None):
    """sum_k max|phi_u,k - phi_v,k| max|psi_k| over the modes u or v carries,
    for a v that holds the modes of u."""
    assert v is None or v.modes == u.modes
    psi_max = {k: np.abs(u.spectrum.psi_values(k)).max() for k in u.modes}
    rows = zip(u.modes, u.phi, u.phi if v is None else v.phi)
    return sum(float(np.abs(p if v is None else p - q).max() * psi_max[k])
               for k, p, q in rows if p.any() or (v is not None and q.any()))


class TestModalSupNorm:
    """The Picard stopping rule, the Kelvin involution and the blow-up rows
    read the modal profiles; the nodal formulas stay here as their oracle."""

    @pytest.mark.parametrize("name", ["interior constant", "exterior constant",
                                      "interior cos", "exterior cos",
                                      "N3 one mode", "N3 three modes"])
    def test_equals_the_nodal_max(self, request, name):
        field = _field(request, name)
        several = sum(p.any() for p in field.phi) > 1
        got = modal.sup_norm(field)
        # read from the profiles, no nodal array built
        assert "values" not in vars(field)
        want = float(np.abs(field.values).max())
        if several:
            # several modes: the sum over the modes bounds the nodal max
            assert got == _modal_bound(field)
            assert want <= got
        else:
            assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("name", ["interior constant", "interior cos",
                                      "N3 one mode", "N3 three modes"])
    def test_distance_equals_the_nodal_max(self, request, name):
        u = _field(request, name)
        v = replace(u, phi=(1 + 1e-3j) * u.phi)
        got = modal.sup_norm(u, v)
        assert "values" not in vars(u) and "values" not in vars(v)
        want = float(np.abs(u.values - v.values).max())
        if sum(p.any() for p in u.phi) > 1:
            assert got == _modal_bound(u, v)
            assert want <= got
        else:
            assert abs(got - want) <= 1e-15 * float(np.abs(u.values).max())

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_a_mode_a_field_does_not_hold_reads_as_zero(self, side, ab_spectrum,
                                                         radial_grid, exterior_grid):
        # a one-mode homogeneous field against a cos-factor Picard field, which
        # holds several modes, in both orders
        r = radial_grid if side == "interior" else exterior_grid
        u = synthesize_field(ab_spectrum,
                             homogeneous_solutions(ab_spectrum, {1: 1.0}, r, side=side))
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular={"cos": [1.0]}, side=side)
        v = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r)[0]
        assert u.modes == (1,) and len(v.modes) > 1 and 1 in v.modes
        psi_max = {k: np.abs(ab_spectrum.psi_values(k)).max() for k in v.modes}
        u_phi = dict(zip(u.modes, u.phi))
        want = sum(float(np.abs(u_phi.get(k, 0.0) - p).max() * psi_max[k])
                   for k, p in zip(v.modes, v.phi))
        assert modal.sup_norm(u, v) == want == modal.sup_norm(v, u)
        assert float(np.abs(u.values - v.values).max()) <= want

    def test_zero_profiles(self, ab_spectrum, radial_grid):
        field = synthesize_field(
            ab_spectrum, homogeneous_solutions(ab_spectrum, {1: 0.0, 3: 0.0}, radial_grid))
        assert modal.sup_norm(field) == 0.0 == modal.sup_norm(field, field)
        assert "values" not in vars(field)

    @pytest.mark.parametrize("angular", [None, {"cos": [1.0]}], ids=["constant", "cos"])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_loop_equals_the_nodal_loop(self, side, angular, ab_spectrum, radial_grid,
                                        exterior_grid):
        r = radial_grid if side == "interior" else exterior_grid
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular=angular, side=side)
        field, info = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r)
        sols, values, residuals = _nodal_picard(ab_spectrum, h, {1: 1.0}, r)
        assert info["iterations"] == len(residuals) > 1
        sup = float(np.abs(values).max())
        if angular is None:
            assert_allclose(info["residuals"], residuals, rtol=0, atol=1e-15 * sup)
        else:
            # several modes: the modal residual bounds the nodal one
            assert all(nodal <= got for nodal, got in zip(residuals, info["residuals"]))
        assert set(field.modes) <= sols.keys()
        zero = np.zeros_like(r, dtype=complex)
        held = {k: (p, d) for k, p, d in zip(field.modes, field.phi, field.dphi)}
        for k, sol in sols.items():
            # a mode the field does not hold reads as zero
            phi, dphi = held.get(k, (zero, zero))
            if angular is None:
                assert np.array_equal(phi, sol.phi)
                assert np.array_equal(dphi, sol.dphi)
            else:
                assert_allclose(phi, sol.phi, rtol=0, atol=1e-14 * sup)
        if angular is None:
            assert np.array_equal(field.values, values)

    def test_forcing_weights_equal_the_nodal_product(self, ab_perturbed):
        # a constant g folds into the weights without changing a bit
        field, h = ab_perturbed
        data = field.values * h.angular_factor(*field.angular_nodes)[None, :]
        nodal = _whole_projection(field, data, field.angular_weights)
        want = nodal * h.radial_factor(field.r)[None, :]
        assert np.array_equal(perturbation_samples(field), want)


class TestBlockedProjection:
    """A field's forcing is projected by row blocks; the projection of its
    whole values array stays here as the oracle."""

    @staticmethod
    def _both(field, spectrum):
        """(blocked, whole) projections with the plain and a cos-weighted rule."""
        weights = field.angular_weights * np.cos(field.angular_nodes[0])
        for w in (field.angular_weights, weights):
            fresh = replace(field)  # a field whose nodal arrays are not built yet
            blocked = modal._projector(spectrum, w, len(fresh.r))(fresh)
            assert "values" not in vars(fresh)
            yield blocked, _whole_projection(fresh, fresh.values, w)

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_equals_the_whole_array_projection(self, side, ab_spectrum):
        # 4 blocks of PROJECTION_BLOCK_BYTES and one row over, which joins
        # the last block
        n_nodes = len(ab_spectrum.nodes[0])
        step = modal.PROJECTION_BLOCK_BYTES // (16 * n_nodes)
        r = grids.log_grid(*((1e-8, 1.0) if side == "interior" else (1.0, 1e8)), 4 * step + 1)
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, side=side)
        field = solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r)[0]
        blocks = modal._row_blocks(len(r), n_nodes)
        assert [b.stop - b.start for b in blocks] == [step] * 3 + [step + 1]
        for blocked, whole in self._both(field, ab_spectrum):
            assert np.array_equal(blocked, whole)

    @pytest.mark.parametrize("rows_per_block", [8, 2])
    def test_small_blocks_cover_every_row(self, rows_per_block, ab_perturbed, monkeypatch):
        # BLAS may split a small product over threads differently from the
        # whole array, so only roundoff is allowed here
        field = ab_perturbed[0]
        n_nodes = len(field.angular_nodes[0])
        monkeypatch.setattr(modal, "PROJECTION_BLOCK_BYTES", 16 * n_nodes * rows_per_block)
        for blocked, whole in self._both(field, field.spectrum):
            assert_allclose(blocked, whole, rtol=0, atol=1e-15 * np.abs(whole).max())

    @pytest.mark.parametrize("n_r,n_nodes", [(3000, 260), (3001, 8192), (2, 70000),
                                             (1, 260), (9000, 1156)])
    def test_row_blocks(self, n_r, n_nodes):
        blocks = modal._row_blocks(n_r, n_nodes)
        edges = [b.start for b in blocks] + [blocks[-1].stop]
        assert edges[0] == 0 and edges[-1] == n_r and edges == sorted(set(edges))
        sizes = np.diff(edges)
        # no one-row block unless the grid has one row; none near numpy's 4 MiB
        assert sizes.min() >= min(2, n_r)
        assert (sizes * 16 * n_nodes).max() <= max(2 * 16 * n_nodes,
                                                   2 * modal.PROJECTION_BLOCK_BYTES)

    @staticmethod
    def _loop_builds_no_whole_array(spectrum, r, angular):
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular=angular)
        tracemalloc.start()
        try:
            field, info = solve_perturbed_field(spectrum, h, {1: 1.0}, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info["iterations"] > 1 and "values" not in vars(field)
        assert peak < 0.5 * len(r) * len(field.angular_nodes[0]) * 16

    def test_loop_builds_no_whole_array(self, ab_spectrum, radial_grid):
        self._loop_builds_no_whole_array(ab_spectrum, radial_grid, None)

    def test_several_mode_loop_builds_no_whole_array(self, ab_spectrum, radial_grid):
        # cos couples each mode to its neighbours: with several modes too, the
        # residual is modal and the forcing summed by row blocks
        self._loop_builds_no_whole_array(ab_spectrum, radial_grid, {"cos": [1.0]})


class TestHoistedPicard:
    """The Picard loop builds its forcing operator, branch powers and
    quadrature weights once per solve; the loop that built them on every
    call stays in ``oracles`` and gives the same bits."""

    @staticmethod
    def _with_last_c1(module, solve, monkeypatch):
        """(solve(), {k: c1 of the last radial solve of mode k}), the solves
        being those that ``module`` calls."""
        c1, inner = {}, module.solve_radial_mode

        def recording(exp, *args, **kwargs):
            sol = inner(exp, *args, **kwargs)
            c1[exp.k] = sol.c1
            return sol

        with monkeypatch.context() as m:
            m.setattr(module, "solve_radial_mode", recording)
            return solve(), c1

    @pytest.mark.parametrize("angular", [None, {"cos": [1.0]}], ids=["constant", "cos"])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_equals_the_per_call_loop(self, side, angular, ab_spectrum, radial_grid,
                                      exterior_grid, monkeypatch):
        r = radial_grid if side == "interior" else exterior_grid
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5, angular=angular, side=side)
        (field, info), c1 = self._with_last_c1(
            modal, lambda: solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r), monkeypatch)
        (want, want_info), want_c1 = self._with_last_c1(
            oracles, lambda: oracles.solve_perturbed_field(ab_spectrum, h, {1: 1.0}, r),
            monkeypatch)
        assert info == want_info and info["iterations"] > 1
        assert field.modes == want.modes
        for name in ("phi", "dphi", "zeta"):
            assert np.array_equal(getattr(field, name), getattr(want, name))
        assert [c1[k] for k in field.modes] == [want_c1[k] for k in want.modes]

    def test_projector_equals_the_per_call_forcing(self, ab_perturbed):
        # one operator for a field in one mode, one in several and the first
        # again: the buffers it reuses keep nothing from the last field
        field, h = ab_perturbed
        phi = _phi(field, 1)
        several = replace(field, phi=np.array([(1 + 0.1j * k) * phi for k in field.modes]))
        project = modal._projector(field.spectrum, field.angular_weights
                                   * h.angular_factor(*field.angular_nodes), len(field.r))
        for f in (field, several, field):
            f = replace(f, perturbation=h)
            want = perturbation_samples(f)
            assert np.array_equal(project(f) * h.radial_factor(f.r)[None, :], want)

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_branch_powers_kept_per_grid_and_side(self, side, radial_grid):
        exp = characteristic_exponents(2, 0.49, 1)
        kept = exp.branch_powers(radial_grid, side)
        assert exp.branch_powers(radial_grid, side) is kept
        # the powers the radial solve took on each call
        r = np.array(radial_grid)
        a, b = ((exp.sigma_plus, exp.sigma_minus) if side == "interior"
                else (exp.sigma_minus, exp.sigma_plus))
        want = (r**a, r**b, r ** (1.0 - a), r ** (1.0 - b), a * r ** (a - 1), b * r ** (b - 1))
        assert all(np.array_equal(got, w) for got, w in zip(kept, want, strict=True))
        other = "exterior" if side == "interior" else "interior"
        assert exp.branch_powers(radial_grid, other) is not kept


class TestBoundaryModes:
    """Boundary data must name modes of the spectrum."""

    @pytest.mark.parametrize("mode", [12, 0])
    def test_rejected_before_any_radial_solve(self, mode, ab_spectrum, radial_grid,
                                              monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("radial solve before the modes were checked")

        monkeypatch.setattr(modal, "solve_radial_mode", no_solve)
        h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
        match = f"mode {mode}.*K = 8"
        with pytest.raises(ValueError, match=match):
            solve_perturbed_field(ab_spectrum, h, {1: 1.0, mode: 5.0}, radial_grid)
        with pytest.raises(ValueError, match=match):
            homogeneous_solutions(ab_spectrum, {1: 1.0, mode: 5.0}, radial_grid)
