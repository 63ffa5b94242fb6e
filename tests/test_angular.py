import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import emlab.angular
from emlab.angular import (
    AngularSpectrum,
    CircleBasis,
    SphereBasis,
    angular_basis,
    angular_spectrum,
    basis_table_bytes,
    build_potential,
    circulation,
    closed_form_ab_spectrum,
    dense_matrix_bytes,
)
from emlab.errors import (
    AliasingError,
    InvalidCoefficientsError,
    NumericalFailureError,
    UnsupportedConfigurationError,
)
from emlab.modal import homogeneous_solutions, synthesize_field
from oracles import (
    _dipole_matrix,
    assemble_angular_matrix,
    sphere_grid,
    sphere_tables,
    subset_eigh,
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


def quadrature_dipole_matrix(pot, truncation):
    """The S^2 Galerkin matrix by quadrature on the basis grid, exact for the
    degree 2T + 1 integrands S_i a S_j: the oracle of the closed form."""
    basis = SphereBasis(truncation)
    theta, phi, w = basis.grid()
    return galerkin_by_quadrature(basis, w * pot.electric_sphere(theta, phi))


def galerkin_by_quadrature(basis, wa):
    """diag(l(l+1)) - B^T diag(w a) B for the basis table B on its grid and
    the weighted samples w a of the potential there."""
    B = basis.evaluate()
    return np.diag(basis.laplace_eigs) - (B * wa[:, None]).T @ B


def values_at(basis, theta, phi):
    """The basis values at any nodes, from its table builder, a few hundred
    nodes at a time."""
    return np.concatenate([basis._values(theta[i:i + 512], phi[i:i + 512])
                           for i in range(0, len(theta), 512)])


def eigenspace_gap(spectrum, table, vectors, j0, m):
    """max over the grid of |psi - P psi| for the eigenfunctions psi of the
    columns j0..j0+m-1 of ``vectors``, coefficients in the scenario's frame,
    sampled through ``table``, the basis values at the scenario coordinates
    of the grid (``spectrum.nodes``), and P the quadrature projector onto
    the span of the spectrum's own samples of psi_j0..psi_j0+m-1 there."""
    want = table @ vectors[:, j0 - 1:j0 - 1 + m]
    got = np.stack([spectrum.psi_values(k) for k in range(j0, j0 + m)], axis=1)
    w = spectrum.basis.grid()[-1]
    return np.abs(want - got @ (got.T @ (w[:, None] * want))).max()


class TestDipoleClosedForm:
    AXES = {"z": [0, 0, 1], "x": [1, 0, 0], "y": [0, 1, 0], "xyz": [1, 1, 1],
            "random": list(np.random.default_rng(7).normal(size=3))}

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("truncation", [1, 4, 16])
    def test_matches_the_quadrature_matrix(self, truncation, axis):
        pot = build_potential({"kind": "dipole", "strength": 1.3, "axis": self.AXES[axis]})
        M, _ = assemble_angular_matrix(pot, truncation)
        oracle = quadrature_dipole_matrix(pot, truncation)
        assert np.abs(M - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_sphere_spectrum_is_real(self, monkeypatch):
        # the spectrum is solved from the real tridiagonal blocks of order m:
        # eigendecompose is handed no dense dipole matrix, and every matrix
        # the eigensolver sees is real
        forms, solved = [], []
        eig, eigh = emlab.angular.eigendecompose, emlab.angular._eigh

        def keeping(matrix, *args, **kwargs):
            forms.append(matrix)
            return eig(matrix, *args, **kwargs)

        def recording(matrix, *args, **kwargs):
            solved.append(matrix)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(emlab.angular, "eigendecompose", keeping)
        monkeypatch.setattr(emlab.angular, "_eigh", recording)
        pot = build_potential({"kind": "dipole", "strength": 0.8, "axis": [1, 2, 2]})
        spectrum = angular_spectrum(pot, count=4, truncation=8)
        assert forms == [None]
        assert solved and all(m.dtype == np.float64 for m in solved)
        assert spectrum.eigenvectors.dtype == np.float64

    def test_reads_no_basis_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("basis table read")

        monkeypatch.setattr(SphereBasis, "evaluate", no_table)
        monkeypatch.setattr(SphereBasis, "gradient", no_table)
        pot = build_potential({"kind": "dipole", "strength": 0.8, "axis": [0, 1, 1]})
        assert angular_spectrum(pot, count=4, truncation=12).count == 4


class TestReflectionBlocks:
    """The dipole spectrum from its blocks of order m against the dense
    ``eigh`` of ``assemble_angular_matrix``, the oracle."""

    AXES = {"z": [0, 0, 1], "-z": [0, 0, -1], "x": [1, 0, 0], "-x": [-1, 0, 0],
            "y": [0, 1, 0], "xy": [1, 1, 0], "xyz": [1, 1, 1],
            **{f"random{seed}": list(np.random.default_rng(seed).normal(size=3))
               for seed in (3, 11)}}

    @pytest.mark.parametrize("strength", [0.0, -0.7, 1.2])
    @pytest.mark.parametrize("axis", AXES)
    def test_equals_the_dense_solver(self, axis, strength):
        pot = build_potential({"kind": "dipole", "strength": strength, "axis": self.AXES[axis]})
        for truncation in range(1, 17):
            M, basis = assemble_angular_matrix(pot, truncation)
            table = None
            # up to count = n, so that no block the spectrum needs is skipped
            for count in sorted({1, min(8, basis.size), basis.size}):
                sp = emlab.angular.eigendecompose(None, count, basis, pot)
                if table is None:
                    table = values_at(basis, *sp.nodes)
                dense = emlab.angular.eigendecompose(M, count, basis, pot)
                radius = np.abs(dense.eigenvalues).max()
                assert np.abs(sp.eigenvalues - dense.eigenvalues).max() <= 1e-12 * radius
                assert sp.blocks == dense.blocks
                w = dense.eigenvalues
                for j0, m in dense.blocks:
                    if j0 + m - 1 == count and count < basis.size:
                        continue  # the subset may cut this block
                    # Davis-Kahan: roundoff of both solvers over the gap to
                    # the neighbouring eigenvalues
                    below = w[j0 - 1] - w[j0 - 2] if j0 > 1 else np.inf
                    above = w[j0 + m - 1] - w[j0 + m - 2] if j0 + m - 1 < count else np.inf
                    gap = min(abs(below), abs(above))
                    bound = FUNCTION_SPACE + 1e-13 * max(radius, 1) / gap
                    assert eigenspace_gap(sp, table, dense.eigenvectors, j0, m) <= bound
            if truncation > 1:  # T = 1 cannot resolve a dipole
                spectrum = angular_spectrum(pot, 8, truncation)
                direct = emlab.angular.eigendecompose(None, 8, basis, pot)
                assert np.array_equal(spectrum.eigenvalues, direct.eigenvalues)
                assert np.array_equal(spectrum.eigenvectors, direct.eigenvectors)

    @pytest.mark.parametrize("strength", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("axis", ["z", "x", "xyz"])
    def test_non_finite_strength_rejected(self, axis, strength):
        pot = build_potential({"kind": "dipole", "strength": strength, "axis": self.AXES[axis]})
        with pytest.raises(NumericalFailureError, match="non-finite"):
            angular_spectrum(pot, count=4, truncation=8)

    @pytest.mark.parametrize("axis", ["z", "x"])
    def test_partners_in_block_order(self, axis):
        # in the frame of the axis, whatever it is: of each degenerate pair
        # the cos-type partner (m >= 0) comes first, the sin-type one second
        pot = build_potential({"kind": "dipole", "strength": 0.9, "axis": self.AXES[axis]})
        sp = angular_spectrum(pot, count=16, truncation=12)
        sine = np.array([m < 0 for _, m in sp.basis.indices])
        pairs = [(j0, m) for j0, m in sp.blocks if m == 2]
        assert len(pairs) >= 4
        for j0, _ in pairs:
            first, second = sp.eigenvectors[:, j0 - 1], sp.eigenvectors[:, j0]
            assert not first[sine].any() and not second[~sine].any()

    def test_forms_no_dense_matrix(self, monkeypatch):
        # every eigensolve, on a fresh basis, sees at most the (T + 1) x
        # (T + 1) of the m = 0 block
        sizes = []
        eigh = emlab.angular._eigh

        def recording(matrix, *args, **kwargs):
            sizes.append(len(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(emlab.angular, "_eigh", recording)
        monkeypatch.setattr(emlab.angular, "angular_basis", lambda _, T: SphereBasis(T))
        assert not hasattr(emlab.angular, "_dipole_matrix")
        for axis in self.AXES.values():
            pot = build_potential({"kind": "dipole", "strength": 1.0, "axis": axis})
            with pytest.raises(UnsupportedConfigurationError):
                emlab.angular.assemble_angular_matrix(pot, 6)
            for truncation, count in ((16, 8), (12, 169), (2, 9)):
                sizes.clear()
                assert angular_spectrum(pot, count=count, truncation=truncation).count == count
                assert sizes and max(sizes) <= truncation + 1

    @pytest.mark.parametrize("strength,count", [(2.0, 1), (3.0, 4), (4.5, 9), (6.0, 6),
                                                (1.0, 8)])
    def test_solves_exactly_the_blocks_within_the_weyl_bound(self, strength, count,
                                                              monkeypatch):
        # the orders m whose bound m(m+1) - |lam| lies at or below the
        # count-th eigenvalue, and no other
        orders = []
        eigh = emlab.angular._eigh

        def recording(matrix, *args, **kwargs):
            orders.append(16 + 1 - len(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(emlab.angular, "_eigh", recording)
        pot = build_potential({"kind": "dipole", "strength": strength, "axis": [0, 0, 1]})
        mu = angular_spectrum(pot, count=count, truncation=16).eigenvalues[count - 1]
        assert orders == [m for m in range(17) if m * (m + 1) - strength <= mu]

    def test_blocks_are_read_from_closed_forms(self, monkeypatch):
        # S_lm sits at l(l+1) + m and S_l,-m at l(l+1) - m for every
        # truncation the basis budget admits (T <= 39), and each block the
        # eigensolver sees is the matrix of the axis frame on the cos-type and
        # on the sin-type rows of its order
        indices = SphereBasis(39).indices
        for l in range(40):
            for m in range(l + 1):
                assert indices[l * (l + 1) + m] == (l, m)
                assert indices[l * (l + 1) - m] == (l, -m)
        seen = []
        eigh = emlab.angular._eigh

        def recording(matrix, *args, **kwargs):
            seen.append(matrix)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(emlab.angular, "_eigh", recording)
        for truncation in (1, 2, 8, 16, 39):
            basis = angular_basis(3, truncation)
            order = np.array(basis.indices)[:, 1]
            # nonzero strengths: at lam = 0 a block's coupling is -(0.0), but
            # the product's entry is 0 - 0.0, the same value of another sign
            for strength in (-0.7, 1.2):
                pot = build_potential({"kind": "dipole", "strength": strength,
                                       "axis": [1, 2, 2]})
                seen.clear()
                # count = basis size, so that no block is skipped
                emlab.angular.eigendecompose(None, basis.size, basis, pot)
                M = emlab.angular._axis_product(pot, basis, np.eye(basis.size))
                assert len(seen) == truncation + 1
                for m, block in enumerate(seen):
                    for rows in (np.flatnonzero(order == m), np.flatnonzero(order == -m)):
                        assert_bitwise_equal(block, M[np.ix_(rows, rows)])

    @pytest.mark.parametrize("truncation", [1, 2, 8, 16, 32])
    def test_product_equals_the_oracle(self, truncation):
        # the residual check's product in the frame of the axis, against the
        # dense matrix of the z axis, which is the matrix of that frame
        basis = SphereBasis(truncation)
        v = np.random.default_rng(truncation).normal(size=(basis.size, 7))
        for strength in (-0.8, 0.0, 1.3):
            pot = build_potential({"kind": "dipole", "strength": strength, "axis": [0, 0, 1]})
            want = _dipole_matrix(pot, basis) @ v
            got = emlab.angular._axis_product(pot, basis, v)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def misplaced(monkeypatch, move):
        """``_dipole_eigenpairs`` with ``move(v, basis)`` applied to the
        eigenvectors it places."""
        solve = emlab.angular._dipole_eigenpairs

        def solver(pot, basis, count):
            w, v = solve(pot, basis, count)
            move(v, basis)
            return w, v

        monkeypatch.setattr(emlab.angular, "_dipole_eigenpairs", solver)

    def test_residual_is_checked_in_the_unturned_frame(self, monkeypatch):
        # a sin-type partner moved one row on, from S_l,-m to S_l,-m+1, sits
        # on the rows of another order, which the residual in the frame of
        # the axis rejects
        def move(v, basis):
            sine = np.array([m < 0 for _, m in basis.indices])
            k = np.flatnonzero(v[sine].any(axis=0))[0]
            v[:, k] = np.roll(v[:, k], 1)

        self.misplaced(monkeypatch, move)
        pot = build_potential({"kind": "dipole", "strength": 1.0, "axis": [1, 1, 1]})
        with pytest.raises(NumericalFailureError, match="residual"):
            angular_spectrum(pot, count=4, truncation=8)

    @pytest.mark.parametrize("axis", ["z", "xyz"])
    def test_residual_rejects_a_block_on_the_wrong_rows(self, monkeypatch, axis):
        # the vectors of block m = 1, on the cos-type S_l1, moved to the S_l2
        def move(v, basis):
            rows = np.flatnonzero(np.array([m == 1 for _, m in basis.indices]))
            k = np.flatnonzero(v[rows].any(axis=0))
            assert len(k)
            v[np.ix_(rows + 1, k)] = v[np.ix_(rows, k)]
            v[np.ix_(rows, k)] = 0.0

        self.misplaced(monkeypatch, move)
        pot = build_potential({"kind": "dipole", "strength": 1.0, "axis": self.AXES[axis]})
        with pytest.raises(NumericalFailureError, match="residual"):
            angular_spectrum(pot, count=4, truncation=8)

    @pytest.mark.parametrize("strength", [-0.7, 1.2])
    @pytest.mark.parametrize("truncation", [2, 8, 16])
    def test_every_axis_has_the_z_axis_eigenvalues(self, truncation, strength):
        def spectrum(axis):
            pot = build_potential({"kind": "dipole", "strength": strength, "axis": axis})
            return angular_spectrum(pot, count=9, truncation=truncation)

        z = spectrum([0, 0, 1])
        for axis in self.AXES.values():
            sp = spectrum(axis)
            assert_bitwise_equal(sp.eigenvalues, z.eigenvalues)
            assert sp.blocks == z.blocks


#: the bound on the function-space eigenspace gap (``eigenspace_gap``)
#: between the library's dipole eigenfunctions and the dense oracle's, beside
#: the Davis-Kahan term: measured at most 4.1e-14 where that term is below
#: 1e-12, with 1 and 2 BLAS threads
FUNCTION_SPACE = 1e-12


class TestTurn:
    """The turn R_z(p) R_y(b) from the frame of the dipole's axis to the
    scenario's, which acts on the nodes of the grid (``AngularSpectrum.nodes``),
    against the potential and the dense matrix of the scenario's frame."""

    @staticmethod
    def spectrum(pot, truncation):
        return emlab.angular.eigendecompose(None, 1, angular_basis(3, truncation), pot)

    @pytest.mark.parametrize("strength", [-0.7, 1.2])
    @pytest.mark.parametrize("axis", TestReflectionBlocks.AXES)
    def test_potential_at_the_nodes_is_the_axis_one(self, axis, strength):
        pot = build_potential({"kind": "dipole", "strength": strength,
                               "axis": TestReflectionBlocks.AXES[axis]})
        for truncation in (1, 4, 16):
            sp = self.spectrum(pot, truncation)
            theta = sp.basis.grid()[0]
            a = pot.electric_sphere(*sp.nodes)
            assert np.abs(a - strength * np.cos(theta)).max() <= 1e-14 * abs(strength)
            if axis == "z":
                assert all(n is g for n, g in zip(sp.nodes, sp.basis.grid()))
        field = synthesize_field(sp, homogeneous_solutions(sp, {1: 1.0}, np.geomspace(0.1, 1, 5)))
        assert field.angular_nodes is sp.nodes
        assert field.angular_weights is sp.basis.grid()[-1]

    @pytest.mark.parametrize("axis", TestReflectionBlocks.AXES)
    def test_turned_frame_matrix_is_the_axis_matrix(self, axis):
        # the potential at the turned nodes, expanded in the harmonics of
        # the grid, gives the matrix the eigenpairs are checked against
        pot = build_potential({"kind": "dipole", "strength": -1.3,
                               "axis": TestReflectionBlocks.AXES[axis]})
        for truncation in range(1, 17):
            sp = self.spectrum(pot, truncation)
            w = sp.basis.grid()[-1]
            turned = galerkin_by_quadrature(sp.basis, w * pot.electric_sphere(*sp.nodes))
            frame = emlab.angular._axis_product(pot, sp.basis, np.eye(sp.basis.size))
            assert np.abs(turned - frame).max() <= 1e-13 * np.abs(frame).max()

    @pytest.mark.parametrize("axis", ["x", "xy", "xyz", "random3"])
    def test_default_truncation_equals_the_dense_solver(self, axis):
        pot = build_potential({"kind": "dipole", "strength": 1.1,
                               "axis": TestReflectionBlocks.AXES[axis]})
        count = 16
        sp = angular_spectrum(pot, count)
        assert sp.truncation == 32
        M, basis = assemble_angular_matrix(pot, 32)
        w, v = eigh_spectrum(M, count + 1)
        radius = np.abs(w).max()
        assert np.abs(sp.eigenvalues - w[:count]).max() <= 1e-12 * radius
        table = values_at(basis, *sp.nodes)
        for j0, m in sp.blocks:
            below = w[j0 - 1] - w[j0 - 2] if j0 > 1 else np.inf
            gap = min(abs(below), abs(w[j0 + m - 1] - w[j0 + m - 2]))
            assert eigenspace_gap(sp, table, v, j0, m) <= FUNCTION_SPACE + 1e-13 * radius / gap


def dense_circle_matrix(pot, truncation):
    """The N = 2 Galerkin matrix assembled over the whole index grid, every
    entry by the formula of ``assemble_angular_matrix``: the oracle of the
    banded assembly."""
    js = CircleBasis(truncation).indices

    def coeff(c, m):
        d = (len(c) - 1) // 2
        out = np.zeros_like(m, dtype=complex)
        mask = np.abs(m) <= d
        out[mask] = c[m[mask] + d]
        return out

    J, L = np.meshgrid(js, js, indexing="ij")
    M = np.zeros((len(js), len(js)), dtype=complex)
    diff = J - L
    M += np.where(J == L, (J * L).astype(complex), 0.0)
    M += (J + L) * coeff(pot.magnetic, diff)
    M += coeff(np.convolve(pot.magnetic, pot.magnetic), diff)
    M -= coeff(pot.electric, diff)
    return 0.5 * (M + M.conj().T)


def assert_bitwise_equal(a, b):
    """Equal arrays, signbits of zeros included."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


FLUXES = (0.0, 0.15, 0.25, 0.3, 0.35, 0.45, 0.5, 1.0, -0.7, -0.5, 1.5)
CIRCLE_POTENTIALS = {
    **{f"ab({alpha},{a0})": {"kind": "aharonov_bohm", "alpha": alpha, "a0": a0}
       for alpha in FLUXES for a0 in (0.0, 0.1, -0.3)},
    "fourier_1": {"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.2]},
                  "electric": {"sin": [0.1]}},
    "fourier_2": {"kind": "fourier", "magnetic": {"mean": -0.4, "sin": [0.1, 0.05]},
                  "electric": 0.2},
    "fourier_3": {"kind": "fourier", "magnetic": 0.25,
                  "electric": {"mean": 0.1, "cos": [0.3, 0.0, -0.2], "sin": [0.0, 0.1]}},
    "fourier_3_2": {"kind": "fourier", "magnetic": {"cos": [0.1, 0.0, 0.2]},
                    "electric": {"cos": [0.1, 0.3]}},
}


class TestBandedAssembly:
    @pytest.mark.parametrize("truncation", [4, 16, 64])
    @pytest.mark.parametrize("name", CIRCLE_POTENTIALS)
    def test_equals_the_dense_assembly(self, name, truncation):
        pot = build_potential(CIRCLE_POTENTIALS[name])
        M, _ = assemble_angular_matrix(pot, truncation)
        assert_bitwise_equal(M, dense_circle_matrix(pot, truncation))

    def test_band_wider_than_the_matrix(self):
        pot = build_potential(CIRCLE_POTENTIALS["fourier_3_2"])
        M, _ = assemble_angular_matrix(pot, 1)
        assert_bitwise_equal(M, dense_circle_matrix(pot, 1))


class TestBasisTableBytes:
    """The estimate the scenario budget reads, against the tables a basis
    keeps once a field is sampled on its grid."""

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_is_the_kept_tables(self, dimension):
        for truncation in range(1, 7):
            basis = (CircleBasis if dimension == 2 else SphereBasis)(truncation)
            if dimension == 2:
                tables = (basis.evaluate(), basis.tangential_derivative())
            else:
                tables = (basis.evaluate(), *basis.gradient())
            assert basis_table_bytes(dimension, truncation) == sum(t.nbytes for t in tables)


class TestDenseMatrixBytes:
    """The estimate the scenario budget reads, against the largest dense
    matrix the spectrum builds."""

    @pytest.mark.parametrize("axis", TestReflectionBlocks.AXES)
    def test_dipole_is_its_largest_reflection_block(self, axis, monkeypatch):
        # with count = basis size no block is skipped
        sizes = []
        eigh = emlab.angular._eigh

        def recording(matrix, *args, **kwargs):
            sizes.append(matrix.nbytes)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(emlab.angular, "_eigh", recording)
        pot = build_potential({"kind": "dipole", "strength": 0.7,
                               "axis": TestReflectionBlocks.AXES[axis]})
        for truncation in range(1, 13):
            basis = angular_basis(3, truncation)
            sizes.clear()
            emlab.angular.eigendecompose(None, basis.size, basis, pot)
            assert len(sizes) == truncation + 1
            assert dense_matrix_bytes(pot, truncation) == max(sizes)

    def test_circle_is_the_galerkin_matrix_unless_constant(self):
        for desc in CIRCLE_POTENTIALS.values():
            pot = build_potential(desc)
            for truncation in (4, 16):
                M, _ = assemble_angular_matrix(pot, truncation)
                constant = pot.magnetic_degree + pot.electric_degree == 0
                assert dense_matrix_bytes(pot, truncation) == (0 if constant else M.nbytes)


def eigh_spectrum(matrix, count):
    """Lowest eigenpairs by the dense solver, phase-fixed like the library's."""
    w, v = scipy.linalg.eigh(matrix, subset_by_index=(0, count - 1))
    return w, np.stack([emlab.angular._fix_phase(v[:, i]) for i in range(count)], axis=1)


class TestDiagonalSpectrum:
    @pytest.mark.parametrize("truncation", [4, 16, 64])
    @pytest.mark.parametrize("name", [n for n in CIRCLE_POTENTIALS if n.startswith("ab")])
    def test_equals_the_dense_solver(self, name, truncation):
        pot = build_potential(CIRCLE_POTENTIALS[name])
        M, basis = assemble_angular_matrix(pot, truncation)
        for count in (min(8, basis.size), basis.size):
            sp = angular_spectrum(pot, count, truncation)
            w, v = eigh_spectrum(M, count)
            assert_bitwise_equal(sp.eigenvalues, w)
            for j0, m in sp.blocks:
                if j0 + m - 1 == count and count < basis.size:
                    continue  # the subset may cut this block
                cols = slice(j0 - 1, j0 - 1 + m)
                if m == 1:
                    assert_bitwise_equal(sp.eigenvectors[:, cols], v[:, cols])
                else:
                    # a degenerate block: only its eigenspace is defined
                    P = sp.eigenvectors[:, cols] @ sp.eigenvectors[:, cols].conj().T
                    Q = v[:, cols] @ v[:, cols].conj().T
                    assert np.abs(P - Q).max() <= 1e-14

    @pytest.mark.parametrize("desc", [
        {"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.1},
        {"kind": "fourier", "magnetic": 0.4, "electric": -0.2},
    ], ids=["ab", "fourier_constant"])
    def test_constant_potentials_build_no_matrix(self, monkeypatch, desc):
        def dense(*args, **kwargs):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(emlab.angular, "assemble_angular_matrix", dense)
        monkeypatch.setattr(emlab.angular, "_fix_phase", dense)
        assert angular_spectrum(build_potential(desc), count=8).count == 8

    def test_non_hermitian_diagonal_rejected(self):
        pot = emlab.angular.AngularPotential(
            dimension=2, kind="fourier", magnetic=np.array([0.3 + 0j]),
            electric=np.array([1e-6j]))
        with pytest.raises(NumericalFailureError, match="not Hermitian"):
            angular_spectrum(pot, count=4)

    def test_overflowing_diagonal_rejected(self):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            angular_spectrum(ab(1e200), count=4)

    def test_integer_flux_pairs_follow_the_basis_order(self):
        sp = angular_spectrum(ab(1.0), count=5, truncation=8)
        peaks = [int(sp.basis.indices[np.argmax(np.abs(v))]) for v in sp.eigenvectors.T]
        # mu = (j + 1)^2: each pair (-1 - k, -1 + k) in basis order
        assert peaks == [-1, -2, 0, -3, 1]

    @pytest.mark.parametrize("desc,sizes", [
        ({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.1}, []),
        ({"kind": "aharonov_bohm", "alpha": 0.0}, []),
        ({"kind": "fourier", "magnetic": 0.4, "electric": -0.2}, []),
        ({"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.2]}}, [17]),
        # in the frame of the axis, whatever it is: the blocks m = 0 and
        # m = 1, the latter once for m = +-1; the lowest 4 are found before
        # m = 2 is needed
        ({"kind": "dipole", "strength": 0.8, "axis": [0, 1, 1]}, [9, 8]),
        ({"kind": "dipole", "strength": 0.8, "axis": [0, 0, 1]}, [9, 8]),
        ({"kind": "dipole", "strength": 0.8, "axis": [0, -2, 0]}, [9, 8]),
    ], ids=["ab", "ab_integer", "fourier_constant", "fourier", "dipole", "dipole_z",
            "dipole_y"])
    def test_eigh_calls(self, monkeypatch, desc, sizes):
        seen = []
        eigh = emlab.angular._eigh

        def counting(matrix, *args, **kwargs):
            seen.append(len(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(emlab.angular, "_eigh", counting)
        angular_spectrum(build_potential(desc), count=4, truncation=8)
        assert seen == sizes


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
        basis, v = sp.basis, sp.eigenvectors[:, 1]
        th = np.array([0.8, 1.9])
        ph = np.array([0.3, 4.0])
        gt, gp = (g @ v for g in basis._gradient(th, ph))
        eps = 1e-6
        v0 = basis._values(th, ph) @ v
        fd_t = (basis._values(th + eps, ph) @ v - v0) / eps
        fd_p = (basis._values(th, ph + eps) @ v - v0) / eps / np.sin(th)
        assert_allclose(gt, fd_t, atol=1e-4)
        assert_allclose(gp, fd_p, atol=1e-4)


class TestTables:
    """Basis tables and per-mode samples on a basis grid are built once and
    kept read-only."""

    @pytest.mark.parametrize("dimension,fresh", [(2, CircleBasis(16)), (3, SphereBasis(8))])
    def test_tables_equal_a_fresh_evaluation(self, dimension, fresh):
        basis = angular_basis(dimension, fresh.truncation)
        assert basis is angular_basis(dimension, fresh.truncation)
        if dimension == 2:
            pairs = [(basis.evaluate(), fresh.evaluate()),
                     (basis.tangential_derivative(), fresh.tangential_derivative())]
        else:
            pairs = [(basis.evaluate(), fresh.evaluate()),
                     *zip(basis.gradient(), fresh.gradient())]
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
        for k in range(1, 5):
            v = spectrum.eigenvectors[:, k - 1]
            assert np.array_equal(spectrum.psi_values(k), fresh.evaluate() @ v)
            if pot.dimension == 2:
                want = (fresh.tangential_derivative() @ v,)
            else:
                want = tuple(g @ v for g in fresh.gradient())
            got = spectrum.psi_gradient(k)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert spectrum.psi_values(k) is spectrum.psi_values(k)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_node_count_is_the_grid_size(self, dimension):
        for truncation in (1, 2, 7, 16):
            grid = angular_basis(dimension, truncation).grid()
            assert emlab.angular.angular_node_count(dimension, truncation) == len(grid[0])

    def test_cached_tables_are_read_only(self):
        basis = angular_basis(3, 8)
        w = basis.grid()[-1]
        spectrum = angular_spectrum(ab(0.3), count=2)
        for table in (w, basis.evaluate(), *basis.gradient(),
                      spectrum.psi_values(1), spectrum.psi_gradient(1)[0]):
            with pytest.raises(ValueError):
                table[0] = 1.0

    @pytest.mark.parametrize("pot,truncation", [
        (ab(0.3), 16),
        (build_potential({"kind": "dipole", "strength": 0.7, "axis": [1, 0, 1]}), 8),
    ], ids=["circle", "sphere"])
    def test_assembly_is_repeatable(self, pot, truncation):
        first, basis = assemble_angular_matrix(pot, truncation)
        second, again = assemble_angular_matrix(pot, truncation)
        assert again is basis
        assert np.array_equal(first, second)


class TestScipyOracles:
    """The numpy harmonics, Gauss rule and eigensolver against scipy's, which
    the library used before (``oracles``)."""

    #: the largest deviations measured up to T = 39 are 3.2e-14 for the
    #: values and 1.1e-12 for a gradient component
    VALUES, GRADIENT = 1e-13, 3e-12

    @pytest.mark.parametrize("truncation", [2, 16, 32, 39])
    def test_sphere_tables(self, truncation):
        basis = SphereBasis(truncation)
        theta, phi, _ = basis.grid()
        # the kept tables: every node up to T = 16, then one node of every
        # ring of the grid, at a phi that moves from ring to ring
        n = 2 * truncation + 2
        rows = np.arange(n * n) if truncation <= 16 else np.arange(n) * n + 7 * np.arange(n) % n
        tables = (basis.evaluate(), *basis.gradient())
        rng = np.random.default_rng(truncation)
        t, p = rng.uniform(0, np.pi, 32), rng.uniform(0, 2 * np.pi, 32)
        for got, nodes in (([a[rows] for a in tables], (theta[rows], phi[rows])),
                           ((basis._values(t, p), *basis._gradient(t, p)), (t, p))):
            want = sphere_tables(basis, *nodes)
            assert np.abs(got[0] - want[0]).max() <= self.VALUES
            for g, w in zip(got[1:], want[1:]):
                assert np.abs(g - w).max() <= self.GRADIENT

    @pytest.mark.parametrize("truncation", [1, 2, 16, 32, 39])
    def test_gauss_rule(self, truncation):
        basis = SphereBasis(truncation)
        for got, want in zip(basis.grid(), sphere_grid(basis)):
            # measured at most 3.1e-15, arccos near +-1 included
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 65, 129])
    def test_eigh(self, n, complex_):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
        A = (A + A.conj().T) / 2
        gap = np.diff(np.linalg.eigvalsh(A)).min() if n > 1 else np.inf
        for count in sorted({1, max(1, n // 3), n}):
            w, v = emlab.angular._eigh(A, count)
            w0, v0 = subset_eigh(A, count)
            radius = max(np.abs(w0).max(), 1.0)
            assert v.shape == v0.shape == (n, count)
            # measured at most 2.4e-15 of the radius, and projectors at most
            # 7.4e-16 of the radius over the least gap
            assert np.abs(w - w0).max() <= 1e-13 * radius
            P = np.einsum("ik,jk->kij", v, v.conj())
            Q = np.einsum("ik,jk->kij", v0, v0.conj())
            assert np.abs(P - Q).max() <= 1e-13 * radius / gap
