"""Angular potentials and the spectrum of the angular operator on the sphere.

The operator is the angular part of a Schroedinger operator with a singular
homogeneous electromagnetic potential,

    L psi = (-i grad_S + A)^2 psi - a psi,

restricted to the unit sphere S^{N-1}.  For N = 2 the magnetic potential is
stored through its tangential component alpha(t) and the eigenproblem is
discretized in the basis of complex exponentials.  For N = 3 only the purely
electric case (A = 0) is supported, in the basis of real spherical harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    AliasingError,
    InvalidCoefficientsError,
    NumericalFailureError,
    UnsupportedConfigurationError,
)

DEFAULT_TRUNCATION_CIRCLE = 64
DEFAULT_TRUNCATION_SPHERE = 32
#: relative tolerance used to group numerically equal eigenvalues
MULTIPLICITY_TOL = 1e-8
#: largest eigenpair residual accepted, relative to the spectral radius
EIGEN_RESIDUAL_TOL = 1e-8


def _coeff_array(data) -> np.ndarray:
    """Normalize coefficient input to a complex array indexed j = -d..d.

    Accepts a plain number (constant function), a dict with keys
    "mean"/"cos"/"sin" describing a real trig polynomial, or an odd-length
    sequence of complex coefficients (entries may be [re, im] pairs).
    """
    if np.isscalar(data):
        return np.array([complex(data)])
    if isinstance(data, dict):
        cos = np.atleast_1d(np.asarray(data.get("cos", []), dtype=float))
        sin = np.atleast_1d(np.asarray(data.get("sin", []), dtype=float))
        mean = float(data.get("mean", 0.0))
        d = max(len(cos), len(sin))
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d] = mean
        for k in range(1, d + 1):
            ck = cos[k - 1] if k <= len(cos) else 0.0
            sk = sin[k - 1] if k <= len(sin) else 0.0
            c[d + k] = 0.5 * (ck - 1j * sk)
            c[d - k] = 0.5 * (ck + 1j * sk)
        return c
    arr = np.asarray(data)
    if arr.ndim == 2 and arr.shape[1] == 2:
        arr = arr[:, 0] + 1j * arr[:, 1]
    arr = arr.astype(complex)
    if arr.ndim != 1 or len(arr) % 2 != 1:
        raise InvalidCoefficientsError(
            "coefficient list must have odd length (degrees -d..d)"
        )
    return arr


def _check_real(c: np.ndarray, what: str) -> None:
    # a real-valued function has Hermitian Fourier data: c_{-j} = conj(c_j)
    if not np.allclose(c, np.conj(c[::-1]), atol=1e-12 * (1 + np.abs(c).max())):
        raise InvalidCoefficientsError(f"{what} coefficients reconstruct a non-real function")


def _eval_trig(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = (len(c) - 1) // 2
    js = np.arange(-d, d + 1)
    vals = np.exp(1j * np.outer(t, js)) @ c
    return vals.real


@dataclass(frozen=True)
class AngularPotential:
    """Angular data (A, a) of a singular homogeneous potential.

    magnetic / electric hold complex Fourier coefficients indexed j = -d..d
    for N = 2.  For the dipole kind (N = 3) the electric part is
    a(theta) = strength * (theta . axis) with a unit axis.
    """

    dimension: int
    kind: str
    magnetic: np.ndarray | None = None
    electric: np.ndarray | None = None
    dipole_strength: float = 0.0
    dipole_axis: np.ndarray | None = None

    def alpha(self, t: np.ndarray) -> np.ndarray:
        """Tangential magnetic component alpha(t), N = 2 only."""
        if self.dimension != 2:
            raise UnsupportedConfigurationError("alpha(t) is defined only for N = 2")
        return _eval_trig(self.magnetic, np.asarray(t, dtype=float))

    def electric_circle(self, t: np.ndarray) -> np.ndarray:
        return _eval_trig(self.electric, np.asarray(t, dtype=float))

    def electric_sphere(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        if self.kind == "dipole":
            ax = self.dipole_axis
            x = np.sin(theta) * np.cos(phi)
            y = np.sin(theta) * np.sin(phi)
            z = np.cos(theta)
            return self.dipole_strength * (ax[0] * x + ax[1] * y + ax[2] * z)
        raise UnsupportedConfigurationError(f"no S^2 electric data for kind {self.kind!r}")

    @property
    def magnetic_degree(self) -> int:
        return 0 if self.magnetic is None else (len(self.magnetic) - 1) // 2

    @property
    def electric_degree(self) -> int:
        if self.dimension == 3:
            return 1 if self.kind == "dipole" else 0
        return (len(self.electric) - 1) // 2

    def without_magnetic(self) -> "AngularPotential":
        """Same electric part with A = 0; used for diamagnetic comparisons."""
        if self.dimension != 2:
            return self
        return AngularPotential(
            dimension=2,
            kind="fourier",
            magnetic=np.zeros(1, dtype=complex),
            electric=self.electric,
        )


def build_potential(desc: dict) -> AngularPotential:
    """Validate a potential descriptor and build an AngularPotential.

    Kinds: {"kind": "aharonov_bohm", "alpha": a, "a0": b},
           {"kind": "fourier", "magnetic": ..., "electric": ...},
           {"kind": "dipole", "strength": lam, "axis": [x, y, z]}.
    """
    kind = desc.get("kind")
    if kind == "aharonov_bohm":
        alpha = float(desc.get("alpha", 0.0))
        a0 = float(desc.get("a0", 0.0))
        return AngularPotential(
            dimension=2,
            kind=kind,
            magnetic=np.array([complex(alpha)]),
            electric=np.array([complex(a0)]),
        )
    if kind == "fourier":
        dimension = int(desc.get("dimension", 2))
        magnetic = _coeff_array(desc.get("magnetic", 0.0))
        electric = _coeff_array(desc.get("electric", 0.0))
        if dimension != 2:
            if np.abs(magnetic).max() > 0:
                raise UnsupportedConfigurationError(
                    "nonzero magnetic potential is only supported for N = 2"
                )
            raise UnsupportedConfigurationError(
                "fourier electric data is a circle parametrization; use N = 2"
            )
        _check_real(magnetic, "magnetic")
        _check_real(electric, "electric")
        if not np.all(np.isfinite(magnetic)) or not np.all(np.isfinite(electric)):
            raise InvalidCoefficientsError("coefficients must be finite")
        return AngularPotential(dimension=2, kind=kind, magnetic=magnetic, electric=electric)
    if kind == "dipole":
        strength = float(desc.get("strength", desc.get("lam", 1.0)))
        axis = np.asarray(desc.get("axis", (0.0, 0.0, 1.0)), dtype=float)
        if desc.get("dimension", 3) != 3 or axis.shape != (3,):
            raise UnsupportedConfigurationError("dipole potentials live on S^2 (N = 3)")
        scale = np.abs(axis).max()
        if scale == 0:
            raise InvalidCoefficientsError("dipole axis must be nonzero")
        # scaled first so that the norm of a huge finite axis does not overflow
        axis = axis / scale
        return AngularPotential(
            dimension=3, kind=kind, dipole_strength=strength,
            dipole_axis=axis / np.linalg.norm(axis)
        )
    raise UnsupportedConfigurationError(f"unknown potential kind {kind!r}")


def circulation(pot: AngularPotential) -> float:
    """Mean of alpha over the circle, the magnetic flux quantum count."""
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("circulation is defined for N = 2 only")
    d = pot.magnetic_degree
    return float(pot.magnetic[d].real)


def _frozen(tables):
    """Mark an array, or each array of a tuple, read-only and return it."""
    for a in tables if isinstance(tables, tuple) else (tables,):
        a.flags.writeable = False
    return tables


class _Tabulated:
    """A basis keeps its tables on its own quadrature grid: each is built
    once, on first use, and then kept read-only.  Only the tests evaluate a
    basis elsewhere, through its table builders."""

    def _kept(self, name: str, build):
        """build(), made once per basis on first use and then kept."""
        if name not in self._tables:
            self._tables[name] = build()
        return self._tables[name]

    def grid(self):
        return self._kept("grid", lambda: _frozen(self._make_grid()))

    def _on_grid(self, name: str, build):
        """build(*nodes) on the grid's nodes, kept read-only."""
        return self._kept(name, lambda: _frozen(build(*self.grid()[:-1])))


class CircleBasis(_Tabulated):
    """Complex exponentials e^{ijt} / sqrt(2 pi), |j| <= J."""

    def __init__(self, truncation: int):
        self.dimension = 2
        self.truncation = truncation
        self.indices = np.arange(-truncation, truncation + 1)
        self.size = 2 * truncation + 1
        self._tables = {}

    def _make_grid(self):
        n = angular_node_count(2, self.truncation)
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        w = np.full(n, 2 * np.pi / n)
        return t, w

    def _values(self, t):
        return np.exp(1j * np.outer(t, self.indices)) / np.sqrt(2 * np.pi)

    def evaluate(self) -> np.ndarray:
        """Matrix (n_nodes, size) of basis values on the grid."""
        return self._on_grid("values", self._values)

    def tangential_derivative(self) -> np.ndarray:
        return self._on_grid("derivative", lambda t: self.evaluate() * (1j * self.indices))


class SphereBasis(_Tabulated):
    """Real spherical harmonics up to degree J, ordered by (l, m)."""

    def __init__(self, truncation: int):
        self.dimension = 3
        self.truncation = truncation
        self.indices = [(l, m) for l in range(truncation + 1) for m in range(-l, l + 1)]
        self.size = len(self.indices)
        self.laplace_eigs = np.array([l * (l + 1) for l, _ in self.indices], dtype=float)
        self._tables = {}

    def _make_grid(self):
        n = 2 * self.truncation + 2
        x, wx = leggauss(n)
        theta = np.arccos(x)
        phi = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        TH, PH = np.meshgrid(theta, phi, indexing="ij")
        W = np.outer(wx, np.full(n, 2 * np.pi / n))
        return TH.ravel(), PH.ravel(), W.ravel()

    def _legendre(self, theta):
        """``(p, dp)``, (T + 1, T + 2, n_nodes): p[l, m] = Y_lm(theta, 0) for
        0 <= m <= l, the complex harmonic with the Condon-Shortley phase at
        phi = 0, and dp[l, m] its derivative in theta; zero for m > l.

        p comes from the normalized recurrence (Holmes and Featherstone, J.
        Geodesy 76, 2002): p_00 = 1/sqrt(4 pi), p_mm = -sqrt((2m+1)/2m)
        sin(theta) p_m-1,m-1, p_m+1,m = sqrt(2m+3) cos(theta) p_mm and

            p_lm = a_lm (cos(theta) p_l-1,m - p_l-2,m / a_l-1,m),
            a_lm = sqrt((4l^2 - 1) / (l^2 - m^2)).

        The ladder operators give dp_lm = (sqrt((l-m)(l+m+1)) p_l,m+1 -
        sqrt((l+m)(l-m+1)) p_l,m-1) / 2, with p_l,-1 = -p_l1, finite at
        the poles too."""
        T = self.truncation
        x, s = np.cos(theta), np.sin(theta)
        p = np.zeros((T + 1, T + 2) + np.shape(theta))
        p[0, 0] = 1 / np.sqrt(4 * np.pi)
        for m in range(T + 1):
            if m:
                p[m, m] = -np.sqrt((2 * m + 1) / (2 * m)) * s * p[m - 1, m - 1]
            if m < T:
                p[m + 1, m] = np.sqrt(2 * m + 3) * x * p[m, m]
            a = np.sqrt((4 * np.arange(m + 1, T + 1) ** 2 - 1)
                        / (np.arange(m + 1, T + 1) ** 2 - m * m))
            for l in range(m + 2, T + 1):
                p[l, m] = a[l - m - 1] * (x * p[l - 1, m] - p[l - 2, m] / a[l - m - 2])
        l, m = np.arange(T + 1)[:, None], np.arange(T + 1)
        up = np.sqrt(np.maximum((l - m) * (l + m + 1), 0))
        down = np.sqrt(np.maximum((l + m) * (l - m + 1), 0))
        below = np.concatenate([-p[:, 1:2], p[:, :T]], axis=1)
        dp = np.zeros_like(p)
        dp[:, :T + 1] = 0.5 * (up[..., None] * p[:, 1:] - down[..., None] * below)
        return p, dp

    def _harmonics(self, theta, phi, gradient: bool):
        """The values of the S_lm at the nodes, or their gradient, one column
        per basis function.  S_l0 = p_l0, and for m > 0 S_lm = f p_lm
        cos(m phi) and S_l,-m = f p_lm sin(m phi), f = sqrt(2) (-1)^m, the
        real and imaginary parts of Y_lm.  ``_legendre`` runs on the distinct
        theta only, and the cosines and sines on the distinct phi."""
        theta, phi = np.broadcast_arrays(theta, phi)
        theta_u, i = np.unique(theta.ravel(), return_inverse=True)
        phi_u, j = np.unique(phi.ravel(), return_inverse=True)
        l, m = np.array(self.indices).T
        a = np.abs(m)
        f = np.where(m == 0, 1.0, np.sqrt(2.0) * (-1.0) ** a)
        angles = np.multiply.outer(phi_u, np.arange(self.truncation + 1))
        c, s = np.cos(angles)[:, a], np.sin(angles)[:, a]
        p, dp = self._legendre(theta_u)

        def table(legendre, trig):
            out = legendre[l, a].T[i]
            out *= trig[j]
            return out.reshape(theta.shape + (self.size,))

        if not gradient:
            return table(p, f * np.where(m >= 0, c, s))
        gp = table(p, f * a * np.where(m >= 0, -s, c))
        gp /= np.sin(theta)[..., None]
        return table(dp, f * np.where(m >= 0, c, s)), gp

    def _values(self, theta, phi):
        return self._harmonics(theta, phi, gradient=False)

    def _gradient(self, theta, phi):
        return self._harmonics(theta, phi, gradient=True)

    def evaluate(self) -> np.ndarray:
        """Matrix (n_nodes, size) of basis values on the grid."""
        return self._on_grid("values", self._values)

    def gradient(self):
        """Tangential gradient components (d/dtheta, (1/sin theta) d/dphi)
        on the grid."""
        return self._on_grid("gradient", self._gradient)

    def z_couplings(self):
        """``(upper, coefficients)``: the coordinate function z = cos(theta)
        couples S_lm only to S_l+-1,m (Edmonds 1957, ch. 4-5); the basis
        function at position i < T^2, of degree l < T, meets S_l+1,m at
        ``upper[i]`` with the coefficient sqrt(((l+1)^2 - m^2) / ((2l+1)(2l+3)))."""
        def build():
            l, m = np.array(self.indices[: self.truncation ** 2]).T
            d = (2 * l + 1) * (2 * l + 3)
            return _frozen(((l + 1) * (l + 2) + m, np.sqrt(((l + 1) ** 2 - m**2) / d)))

        return self._kept("z", build)


def angular_node_count(dimension: int, truncation: int) -> int:
    """Nodes of the quadrature grid of ``angular_basis(dimension,
    truncation)``, known without building it: 4(T + 1) on the circle,
    (2T + 2)^2 on the sphere."""
    return 4 * (truncation + 1) if dimension == 2 else (2 * truncation + 2) ** 2


def basis_table_bytes(dimension: int, truncation: int) -> int:
    """Bytes of the tables that ``angular_basis(dimension, truncation)``
    keeps on its grid once a field is sampled there, known without building
    them: the values and the tangential derivative, complex, on the circle;
    the values and two gradient components, real, on the sphere.  Each
    table has a row per grid node and a column per basis function."""
    if dimension == 2:
        tables, size, itemsize = 2, 2 * truncation + 1, 16
    else:
        tables, size, itemsize = 3, (truncation + 1) ** 2, 8
    return tables * angular_node_count(dimension, truncation) * size * itemsize


@lru_cache(maxsize=8)
def angular_basis(dimension: int, truncation: int):
    """The basis of a truncation, shared so that its tables are built once."""
    if dimension == 2:
        return CircleBasis(truncation)
    if dimension == 3:
        return SphereBasis(truncation)
    raise UnsupportedConfigurationError(f"dimension {dimension} not supported")


def _axis_product(pot: AngularPotential, basis: SphereBasis, v: np.ndarray) -> np.ndarray:
    """M v for the dipole's Galerkin matrix in the frame of its axis, M =
    diag(l(l+1)) - lam Z, on the cos-type and the sin-type rows alike:
    every S_lm of degree l < T meets S_l+1,m through ``z_couplings``."""
    upper, coef = basis.z_couplings()
    lower, e = slice(0, len(upper)), (pot.dipole_strength * coef)[:, None]
    out = basis.laplace_eigs[:, None] * v
    out[lower] -= e * v[upper]
    out[upper] -= e * v[lower]
    return out


def dense_matrix_bytes(pot: AngularPotential, truncation: int) -> int:
    """Bytes of the largest dense matrix ``angular_spectrum`` builds for the
    potential at the truncation, known without building it: none for a
    constant circle potential, solved on its diagonal; the (2T + 1)^2
    complex Galerkin matrix for any other circle potential; for the dipole,
    the real (T + 1)^2 of its m = 0 block."""
    T = truncation
    if pot.dimension == 2:
        return 0 if pot.magnetic_degree + pot.electric_degree == 0 else 16 * (2 * T + 1) ** 2
    return 8 * (T + 1) ** 2


def _require_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericalFailureError("assembled matrix has non-finite entries")


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2, after the finiteness check and the check that M is
    Hermitian up to roundoff.  A diagonal M may be given by its diagonal,
    which is its own transpose."""
    _require_finite(M)
    herm = np.abs(M - M.conj().T).max()
    scale = max(np.abs(M).max(), 1.0)
    if herm > 1e-12 * scale:
        raise NumericalFailureError(f"assembled matrix not Hermitian: defect {herm:.2e}")
    return 0.5 * (M + M.conj().T)


def _circle_band(pot: AngularPotential, basis: CircleBasis):
    """``(rows, cols, entries)`` of the N = 2 Galerkin matrix on its band
    |j - l| <= max(2 deg A, deg a), in row order; see
    ``assemble_angular_matrix``."""
    alpha_sq = np.convolve(pot.magnetic, pot.magnetic)

    def coeff(c, m):
        d = (len(c) - 1) // 2
        out = np.zeros_like(m, dtype=complex)
        mask = np.abs(m) <= d
        out[mask] = c[m[mask] + d]
        return out

    n, width = basis.size, max(2 * pot.magnetic_degree, pot.electric_degree)
    rows = np.repeat(np.arange(n), 2 * width + 1)
    cols = rows + np.tile(np.arange(-width, width + 1), n)
    keep = (cols >= 0) & (cols < n)
    rows, cols = rows[keep], cols[keep]
    J, L = basis.indices[rows], basis.indices[cols]
    diff = J - L
    # huge coefficients overflow here; the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        band = np.where(J == L, (J * L).astype(complex), 0.0)
        band += (J + L) * coeff(pot.magnetic, diff)
        band += coeff(alpha_sq, diff)
        band -= coeff(pot.electric, diff)
    return rows, cols, band


def assemble_angular_matrix(pot: AngularPotential, truncation: int):
    """Dense Galerkin matrix of the angular sesquilinear form on the circle;
    returns (M, basis).

    The operator acts as (-i d/dt + alpha)^2 - a, so the entry for basis
    pair (row j, column l) is

        j l delta_{jl} + (j + l) ahat_{j-l} + (alpha^2)hat_{j-l} - ahat^{el}_{j-l}

    with fhat_m the e^{imt} expansion coefficient, on the band |j - l| <=
    max(2 deg A, deg a); constant alpha and a give the diagonal (alpha + j)^2 - a0.
    The dipole on the sphere is solved by its blocks of order m
    (``_dipole_eigenpairs``).
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("the dense Galerkin matrix is built for N = 2 only")
    basis = angular_basis(2, truncation)
    rows, cols, band = _circle_band(pot, basis)
    M = np.zeros((basis.size, basis.size), dtype=complex)
    M[rows, cols] = band
    return _hermitian_part(M), basis


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    pivot = vec[i]
    if np.abs(pivot) == 0:
        return vec
    return vec * (np.conj(pivot) / np.abs(pivot))


@dataclass(frozen=True)
class AngularSpectrum:
    """Lowest eigenpairs of the angular operator in a fixed Galerkin basis."""

    potential: AngularPotential
    basis: object
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (basis.size, K), columns phase-fixed; see ``nodes``
    blocks: list = field(default_factory=list)  # [(j0, m)] 1-based
    truncation: int = 0
    # per-mode samples on the basis grid, filled on first use
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def mu(self, k: int) -> float:
        """Eigenvalue mu_k, 1-based."""
        return float(self.eigenvalues[k - 1])

    def mu1(self) -> float:
        return float(self.eigenvalues[0])

    def block_of(self, k0: int):
        for j0, m in self.blocks:
            if j0 <= k0 <= j0 + m - 1:
                return j0, m
        raise IndexError(f"mode index {k0} outside computed spectrum")

    @cached_property
    def nodes(self) -> tuple:
        """The scenario coordinates, (t,) or (theta, phi), of the basis grid
        on which ``psi_values`` and ``psi_gradient`` sample.  A dipole's
        eigenvectors are held in the frame of its axis n = (sin b cos p,
        sin b sin p, cos b), whose grid R_z(p) R_y(b) takes to the
        scenario's coordinates; any other grid is in them already."""
        *nodes, _ = self.basis.grid()
        n = self.potential.dipole_axis
        if n is None or (n[0] == n[1] == 0 and n[2] > 0):
            return tuple(nodes)
        theta, phi = nodes
        b, p = np.arctan2(np.hypot(n[0], n[1]), n[2]), np.arctan2(n[1], n[0])
        x, y, z = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
        x, z = np.cos(b) * x + np.sin(b) * z, np.cos(b) * z - np.sin(b) * x
        x, y = np.cos(p) * x - np.sin(p) * y, np.sin(p) * x + np.cos(p) * y
        return _frozen((np.arctan2(np.hypot(x, y), z), np.arctan2(y, x) % (2 * np.pi)))

    def _sample(self, name: str, k: int, compute):
        """compute(column k), kept read-only per mode."""
        key = (name, k)
        if key not in self._samples:
            self._samples[key] = _frozen(compute(self.eigenvectors[:, k - 1]))
        return self._samples[key]

    def psi_values(self, k: int) -> np.ndarray:
        """Samples of psi_k on the basis grid, at ``nodes``."""
        return self._sample("values", k, lambda v: self.basis.evaluate() @ v)

    def psi_gradient(self, k: int):
        """Tangential gradient samples of psi_k on the basis grid; 1
        component on S^1, 2 on S^2, along the grid's own (e_theta, e_phi)."""
        if self.potential.dimension == 2:
            return self._sample("gradient", k, lambda v: (self.basis.tangential_derivative() @ v,))
        return self._sample("gradient", k, lambda v: tuple(g @ v for g in self.basis.gradient()))

    def to_json(self) -> dict:
        return {
            "mu": [float(v) for v in self.eigenvalues],
            "blocks": [[int(j0), int(m)] for j0, m in self.blocks],
            "truncation": int(self.truncation),
        }


def _group_blocks(mu: np.ndarray):
    blocks = []
    start = 0
    for i in range(1, len(mu) + 1):
        if i == len(mu) or abs(mu[i] - mu[i - 1]) > MULTIPLICITY_TOL * (1 + abs(mu[i])):
            blocks.append((start + 1, i - start))
            start = i
    return blocks


def _eigh(matrix: np.ndarray, count: int):
    """The lowest ``count`` eigenpairs of a Hermitian matrix, ascending.
    numpy has no subset solver, so all are found and the rest dropped."""
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"dense eigensolver failed: {exc}") from exc
    return w[:count], v[:, :count]


def _dipole_eigenpairs(pot: AngularPotential, basis: SphereBasis, count: int):
    """Lowest ``count`` eigenpairs of the dipole's Galerkin matrix in the
    frame where its axis is z.  The degree-T space is invariant under
    rotations, so there the matrix is diag(l(l+1)) - lam Z, whatever the
    axis.  It conserves m: block m is tridiagonal on the cos-type S_lm,
    l = m..T, at l(l+1) + m, coupled by ``z_couplings``, and the sin-type
    S_l,-m, 2m positions before, carry it too.  Its eigenvalues are at least
    m(m+1) - |lam| (Weyl: n . theta has norm at most 1), so a block whose
    bound lies above the count-th eigenvalue found so far is skipped.  The
    eigenvalues are merged by a stable sort, the cos-type blocks m = 0, 1,
    ... before the sin-type ones, and the partners of a multiplicity block
    in that order, so that mode labels do not depend on roundoff.
    """
    lam, T = pot.dipole_strength, basis.truncation
    coupling = lam * basis.z_couplings()[1]
    _require_finite(coupling)
    solved, found, kth = [], [], np.inf
    for m in range(T + 1):
        if m * (m + 1) - abs(lam) > kth:
            break
        l = np.arange(m, T + 1)
        rows = l * (l + 1) + m
        A = np.diag(basis.laplace_eigs[rows])
        k = np.arange(T - m)
        A[k, k + 1] = A[k + 1, k] = -coupling[rows[:-1]]
        w, v = _eigh(A, min(count, len(rows)))
        solved.append((rows, w, v))
        found += [w] if m == 0 else [w, w]
        if sum(map(len, found)) >= count:
            kth = np.partition(np.concatenate(found), count - 1)[count - 1]
    parts = solved + [(rows - 2 * m, w, v) for m, (rows, w, v) in enumerate(solved) if m]
    w = np.concatenate([p[1] for p in parts])
    part = np.repeat(np.arange(len(parts)), [len(p[1]) for p in parts])
    col = np.concatenate([np.arange(len(p[1])) for p in parts])
    order = np.argsort(w, kind="stable")
    group = np.concatenate([np.full(m, g) for g, (_, m) in enumerate(_group_blocks(w[order]))])
    order = order[np.lexsort((part[order], group))][:count]
    v = np.zeros((basis.size, count))
    for i, (rows, _, vectors) in enumerate(parts):
        k = np.flatnonzero(part[order] == i)
        v[rows[:, None], k] = vectors[:, col[order[k]]]
    return w[order], v


def eigendecompose(matrix, count: int, basis, pot: AngularPotential) -> AngularSpectrum:
    """Lowest `count` eigenpairs of the Hermitian Galerkin matrix, given
    either densely (solved by ``eigh``), or by its diagonal (sorted stably,
    so equal eigenvalues keep their basis order, with unit eigenvectors), or,
    for the dipole, as None: its blocks of order m are built from closed
    forms (``_dipole_eigenpairs``), and its eigenpairs are checked on every
    row against the matrix of the frame of its axis."""
    n = basis.size
    if count > n:
        raise AliasingError(f"requested {count} eigenpairs from a {n}x{n} matrix")
    diagonal = isinstance(matrix, np.ndarray) and matrix.ndim == 1
    if diagonal:
        order = np.argsort(matrix.real, kind="stable")[:count]
        w = matrix.real[order]
        v = np.zeros((n, count), dtype=matrix.dtype)
        v[order, np.arange(count)] = 1.0
        resid = 0.0  # unit vectors are exact eigenvectors of a diagonal matrix
    elif matrix is None:
        w, v = _dipole_eigenpairs(pot, basis, count)
        resid = np.abs(_axis_product(pot, basis, v) - v * w).max()
    else:
        w, v = _eigh(matrix, count)
        resid = np.abs(matrix @ v - v * w).max()
    spectral_radius = max(np.abs(w).max(), 1.0)
    if resid > EIGEN_RESIDUAL_TOL * spectral_radius:
        raise NumericalFailureError(f"eigenpair residual {resid:.2e} exceeds tolerance")
    if not diagonal:  # a unit vector's phase is already fixed
        v = np.stack([_fix_phase(v[:, i]) for i in range(count)], axis=1)
    return AngularSpectrum(
        potential=pot,
        basis=basis,
        eigenvalues=w,
        eigenvectors=v,
        blocks=_group_blocks(w),
        truncation=basis.truncation,
    )


def angular_spectrum(pot: AngularPotential, count: int = 16,
                     truncation: int | None = None) -> AngularSpectrum:
    """Assemble and diagonalize in one call with default truncations, each
    matrix in its cheapest form: a constant circle potential by its
    diagonal, the dipole by its blocks of order m in the frame of its axis,
    anything else densely."""
    if truncation is None:
        truncation = DEFAULT_TRUNCATION_CIRCLE if pot.dimension == 2 else DEFAULT_TRUNCATION_SPHERE
    degree_needed = pot.magnetic_degree + pot.electric_degree
    if truncation <= degree_needed:
        raise AliasingError(
            f"truncation {truncation} cannot resolve potential degree {degree_needed}"
        )
    basis = angular_basis(pot.dimension, truncation)
    if pot.dimension == 3:
        return eigendecompose(None, count, basis, pot)
    if degree_needed == 0:
        return eigendecompose(_hermitian_part(_circle_band(pot, basis)[2]), count, basis, pot)
    M, basis = assemble_angular_matrix(pot, truncation)
    return eigendecompose(M, count, basis, pot)


def closed_form_ab_spectrum(alpha: float, a0: float, count: int) -> np.ndarray:
    """K smallest values of (alpha - j)^2 - a0 over integer j."""
    j = np.arange(-count - 2, count + 3)
    vals = np.sort((alpha - j) ** 2 - a0)
    return vals[:count]
