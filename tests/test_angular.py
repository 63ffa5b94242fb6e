import numpy as np
import pytest
from numpy.testing import assert_allclose

from emlab.angular import (
    AngularSpectrum,
    CircleBasis,
    SphereBasis,
    angular_basis,
    angular_spectrum,
    assemble_angular_matrix,
    build_potential,
    circulation,
    closed_form_ab_spectrum,
)
from emlab.errors import (
    AliasingError,
    InvalidCoefficientsError,
    NumericalFailureError,
    UnsupportedConfigurationError,
)


def ab(alpha, a0=0.0):
    return build_potential({"kind": "aharonov_bohm", "alpha": alpha, "a0": a0})


class TestBuildPotential:
    def test_aharonov_bohm_constant(self):
        pot = ab(0.3)
        t = np.linspace(0, 2 * np.pi, 7)
        assert_allclose(pot.alpha(t), 0.3)
        assert_allclose(pot.electric_circle(t), 0.0)

    def test_fourier_trig_reconstruction(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.5]}, "electric": 0.0}
        )
        t = np.linspace(0, 2 * np.pi, 11)
        assert_allclose(pot.alpha(t), 0.3 + 0.5 * np.cos(t), atol=1e-14)

    def test_dipole_is_axis_projection(self):
        pot = build_potential({"kind": "dipole", "strength": 1.0, "axis": [0, 0, 2.0]})
        theta = np.array([0.0, np.pi / 2, np.pi])
        phi = np.zeros(3)
        # axis normalized, so values are cos(theta)
        assert_allclose(pot.electric_sphere(theta, phi), np.cos(theta), atol=1e-15)

    def test_magnetic_with_n3_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            build_potential({"kind": "fourier", "dimension": 3, "magnetic": 0.5})

    def test_non_real_coefficients_rejected(self):
        with pytest.raises(InvalidCoefficientsError):
            build_potential(
                {"kind": "fourier", "magnetic": [[0, 1], [0, 0], [0, 1]], "electric": 0.0}
            )

    def test_zero_axis_rejected(self):
        with pytest.raises(InvalidCoefficientsError):
            build_potential({"kind": "dipole", "axis": [0, 0, 0]})


class TestCirculation:
    def test_constant(self):
        assert circulation(ab(0.3)) == pytest.approx(0.3)

    def test_oscillation_drops_out(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.5]}, "electric": 0.0}
        )
        assert circulation(pot) == pytest.approx(0.3)

    def test_half_flux(self):
        assert circulation(ab(0.5)) == pytest.approx(0.5)

    def test_requires_circle(self):
        pot = build_potential({"kind": "dipole"})
        with pytest.raises(UnsupportedConfigurationError):
            circulation(pot)


class TestAssembly:
    def test_free_circle_diagonal(self):
        pot = build_potential({"kind": "fourier", "magnetic": 0.0, "electric": 0.0})
        M, basis = assemble_angular_matrix(pot, 2)
        assert_allclose(M, np.diag([4.0, 1.0, 0.0, 1.0, 4.0]), atol=1e-14)

    def test_ab_diagonal_entries(self):
        M, basis = assemble_angular_matrix(ab(0.3), 4)
        assert_allclose(np.diag(M).real, (basis.indices + 0.3) ** 2, atol=1e-13)
        assert_allclose(M - np.diag(np.diag(M)), 0.0, atol=1e-13)

    def test_hermitian(self):
        pot = build_potential(
            {
                "kind": "fourier",
                "magnetic": {"mean": 0.2, "cos": [0.1], "sin": [0.05]},
                "electric": {"cos": [0.3]},
            }
        )
        M, _ = assemble_angular_matrix(pot, 12)
        assert_allclose(M, M.conj().T, atol=1e-13)

    def test_non_finite_matrix_rejected(self):
        # alpha^2 overflows; the Hermitian defect of inf - inf is NaN
        with pytest.raises(NumericalFailureError, match="non-finite"):
            assemble_angular_matrix(ab(1e200), 4)

    def test_dipole_tridiagonal_gaunt(self):
        # coupling of cos(theta) between degrees l and l+1 at equal azimuthal
        # order, checked against the closed-form recurrence coefficient
        pot = build_potential({"kind": "dipole", "strength": 1.0, "axis": [0, 0, 1]})
        M, basis = assemble_angular_matrix(pot, 6)

        def c(l, m):
            return np.sqrt(((l + 1 - m) * (l + 1 + m)) / ((2 * l + 1) * (2 * l + 3)))

        for i, (l, m) in enumerate(basis.indices):
            for j, (l2, m2) in enumerate(basis.indices):
                exact = 0.0
                if m == m2 and l == l2 + 1:
                    exact = c(l2, abs(m))
                elif m == m2 and l == l2 - 1:
                    exact = c(l, abs(m))
                coupling = -(M[i, j].real - (basis.laplace_eigs[i] if i == j else 0.0))
                assert coupling == pytest.approx(exact, abs=1e-12)


class TestSpectrum:
    def test_free_circle(self):
        pot = build_potential({"kind": "fourier", "magnetic": 0.0, "electric": 0.0})
        sp = angular_spectrum(pot, count=5)
        assert_allclose(sp.eigenvalues, [0, 1, 1, 4, 4], atol=1e-12)
        assert sp.blocks == [(1, 1), (2, 2), (4, 2)]

    def test_ab_examples(self):
        sp = angular_spectrum(ab(0.3), count=4)
        assert_allclose(sp.eigenvalues, [0.09, 0.49, 1.69, 2.89], atol=1e-12)

    def test_half_integer_multiplicities(self):
        sp = angular_spectrum(ab(0.5), count=4)
        assert_allclose(sp.eigenvalues, [0.25, 0.25, 2.25, 2.25], atol=1e-12)
        assert sp.blocks == [(1, 2), (3, 2)]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_ab_oracle(self, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-1, 1))
        a0 = float(rng.uniform(-0.5, 0.5))
        sp = angular_spectrum(ab(alpha, a0), count=10)
        assert_allclose(sp.eigenvalues, closed_form_ab_spectrum(alpha, a0, 10), atol=1e-10)

    def test_gauge_shift_invariance(self):
        a = angular_spectrum(ab(0.27), count=10).eigenvalues
        b = angular_spectrum(ab(1.27), count=10).eigenvalues
        assert_allclose(a, b, atol=1e-10)

    def test_truncation_convergence(self):
        pot = build_potential(
            {
                "kind": "fourier",
                "magnetic": {"mean": 0.2, "cos": [0.1]},
                "electric": {"cos": [0.3], "sin": [0.2]},
            }
        )
        a = angular_spectrum(pot, count=8, truncation=32).eigenvalues
        b = angular_spectrum(pot, count=8, truncation=64).eigenvalues
        assert_allclose(a, b, atol=1e-9)

    def test_eigenvector_orthonormality(self):
        sp = angular_spectrum(ab(0.3), count=8)
        V = sp.eigenvectors
        assert_allclose(V.conj().T @ V, np.eye(8), atol=1e-10)

    def test_galerkin_residual(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"mean": 0.4, "sin": [0.2]}, "electric": 0.0}
        )
        M, basis = assemble_angular_matrix(pot, 32)
        sp = angular_spectrum(pot, count=6, truncation=32)
        R = M @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
        assert np.abs(R).max() < 1e-9

    def test_mu1_with_shift(self):
        assert angular_spectrum(ab(0.3, 0.05), count=4).mu1() == pytest.approx(0.04, abs=1e-12)

    def test_mu1_free_sphere(self):
        pot = build_potential({"kind": "dipole", "strength": 0.0})
        assert angular_spectrum(pot, count=3, truncation=8).mu1() == pytest.approx(0.0, abs=1e-12)

    def test_mu1_equals_hardy_constant(self):
        sp = angular_spectrum(ab(0.3), count=1)
        phi = circulation(sp.potential)
        best = min(abs(k - phi) for k in range(-3, 4)) ** 2
        assert sp.mu1() == pytest.approx(best, abs=1e-12)

    def test_aliasing_guard(self):
        pot = build_potential(
            {"kind": "fourier", "magnetic": {"cos": [0.0, 0.1]}, "electric": 0.0}
        )
        with pytest.raises(AliasingError):
            angular_spectrum(pot, count=3, truncation=2)


class TestEigenspace:
    def test_simple_ab_mode(self):
        sp = angular_spectrum(ab(0.3), count=4)
        j0, m = sp.block_of(1)
        assert (j0, m) == (1, 1)
        # ground mode of the shifted operator is the constant direction j = 0
        idx = np.argmax(np.abs(sp.eigenvectors[:, j0 - 1]))
        assert sp.basis.indices[idx] == 0

    def test_double_block(self):
        sp = angular_spectrum(ab(0.5), count=4)
        j0, m = sp.block_of(2)
        assert (j0, m) == (1, 2)
        assert abs(np.vdot(sp.eigenvectors[:, j0 - 1], sp.eigenvectors[:, j0])) < 1e-10

    def test_free_degenerate_pair(self):
        pot = build_potential({"kind": "fourier", "magnetic": 0.0, "electric": 0.0})
        sp = angular_spectrum(pot, count=5)
        j0, m = sp.block_of(2)
        assert (j0, m) == (2, 2)


class TestClosedForm:
    @pytest.mark.parametrize(
        "alpha,a0,count,expected",
        [
            (0.3, 0.0, 3, [0.09, 0.49, 1.69]),
            (0.0, 0.0, 3, [0.0, 1.0, 1.0]),
            (0.5, 0.1, 2, [0.15, 0.15]),
        ],
    )
    def test_examples(self, alpha, a0, count, expected):
        assert_allclose(closed_form_ab_spectrum(alpha, a0, count), expected, atol=1e-14)


class TestSerialization:
    def test_to_json_roundtrip_fields(self):
        sp = angular_spectrum(ab(0.5), count=4)
        doc = sp.to_json()
        assert doc["blocks"] == [[1, 2], [3, 2]]
        assert doc["truncation"] == 64
        assert_allclose(doc["mu"], [0.25, 0.25, 2.25, 2.25], atol=1e-12)


class TestSphereGradients:
    def test_against_finite_differences(self):
        pot = build_potential({"kind": "dipole", "strength": 1.0})
        sp = angular_spectrum(pot, count=4, truncation=8)
        th = np.array([0.8, 1.9])
        ph = np.array([0.3, 4.0])
        gt, gp = sp.psi_gradient(2, th, ph)
        eps = 1e-6
        v0 = sp.psi_values(2, th, ph)
        fd_t = (sp.psi_values(2, th + eps, ph) - v0) / eps
        fd_p = (sp.psi_values(2, th, ph + eps) - v0) / eps / np.sin(th)
        assert_allclose(gt, fd_t, atol=1e-4)
        assert_allclose(gp, fd_p, atol=1e-4)


class TestTables:
    """Basis tables and per-mode samples on a basis grid are built once and
    kept read-only; any other nodes are evaluated fresh."""

    @pytest.mark.parametrize("dimension,fresh", [(2, CircleBasis(16)), (3, SphereBasis(8))])
    def test_tables_equal_a_fresh_evaluation(self, dimension, fresh):
        basis = angular_basis(dimension, fresh.truncation)
        assert basis is angular_basis(dimension, fresh.truncation)
        *nodes, _ = basis.grid()
        if dimension == 2:
            pairs = [(basis.evaluate(*nodes), fresh.evaluate(*nodes)),
                     (basis.tangential_derivative(*nodes), fresh.tangential_derivative(*nodes))]
        else:
            pairs = [(basis.evaluate(*nodes), fresh.evaluate(*nodes)),
                     *zip(basis.gradient(*nodes), fresh.gradient(*nodes))]
        for cached, new in pairs:
            assert cached is not new
            assert np.array_equal(cached, new)

    @pytest.mark.parametrize("pot,truncation", [
        (ab(0.3), 64),
        (build_potential({"kind": "dipole", "strength": 1.0, "axis": [1, 1, 0]}), 8),
    ], ids=["circle", "sphere"])
    def test_psi_samples_equal_a_fresh_evaluation(self, pot, truncation):
        spectrum = angular_spectrum(pot, count=4, truncation=truncation)
        fresh = type(spectrum.basis)(truncation)
        *nodes, _ = spectrum.basis.grid()
        for k in range(1, 5):
            v = spectrum.eigenvectors[:, k - 1]
            assert np.array_equal(spectrum.psi_values(k, *nodes), fresh.evaluate(*nodes) @ v)
            if pot.dimension == 2:
                want = (fresh.tangential_derivative(*nodes) @ v,)
            else:
                want = tuple(g @ v for g in fresh.gradient(*nodes))
            got = spectrum.psi_gradient(k, *nodes)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert spectrum.psi_values(k, *nodes) is spectrum.psi_values(k, *nodes)

    def test_cached_tables_are_read_only(self):
        basis = angular_basis(3, 8)
        *nodes, w = basis.grid()
        spectrum = angular_spectrum(ab(0.3), count=2)
        t, _ = spectrum.basis.grid()
        for table in (w, basis.evaluate(*nodes), *basis.gradient(*nodes),
                      spectrum.psi_values(1, t), spectrum.psi_gradient(1, t)[0]):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_other_nodes_are_evaluated_fresh(self):
        basis = angular_basis(3, 8)
        theta, phi, _ = basis.grid()
        full = basis.evaluate(theta, phi)
        part = basis.evaluate(theta[:7], phi[:7])
        assert part.flags.writeable
        assert_allclose(part, full[:7], rtol=0, atol=1e-14)
        assert basis.evaluate(theta[:7], phi[:7]) is not part
        spectrum = angular_spectrum(ab(0.3), count=2)
        t = np.linspace(0.1, 6.0, 9)
        assert spectrum.psi_values(1, t).flags.writeable
        assert spectrum.psi_values(1, t) is not spectrum.psi_values(1, t)

    @pytest.mark.parametrize("pot,truncation", [
        (ab(0.3), 16),
        (build_potential({"kind": "dipole", "strength": 0.7, "axis": [1, 0, 1]}), 8),
    ], ids=["circle", "sphere"])
    def test_assembly_is_repeatable(self, pot, truncation):
        first, basis = assemble_angular_matrix(pot, truncation)
        second, again = assemble_angular_matrix(pot, truncation)
        assert again is basis
        assert np.array_equal(first, second)
