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
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh
from scipy.special import roots_legendre, sph_harm_y

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
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise InvalidCoefficientsError("dipole axis must be nonzero")
        return AngularPotential(
            dimension=3, kind=kind, dipole_strength=strength, dipole_axis=axis / norm
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
    once, on first use, and then kept read-only.  Other nodes are evaluated
    fresh on every call."""

    def grid(self):
        if "grid" not in self._tables:
            self._tables["grid"] = _frozen(self._make_grid())
        return self._tables["grid"]

    def on_grid(self, nodes) -> bool:
        grid = self.grid()[:-1]
        return len(nodes) == len(grid) and all(
            n is g or np.array_equal(n, g) for n, g in zip(nodes, grid))

    def _tabulated(self, name: str, compute, nodes):
        if not self.on_grid(nodes):
            return compute(*nodes)
        if name not in self._tables:
            self._tables[name] = _frozen(compute(*nodes))
        return self._tables[name]


class CircleBasis(_Tabulated):
    """Complex exponentials e^{ijt} / sqrt(2 pi), |j| <= J."""

    def __init__(self, truncation: int):
        self.dimension = 2
        self.truncation = truncation
        self.indices = np.arange(-truncation, truncation + 1)
        self.size = 2 * truncation + 1
        self._tables = {}

    def _make_grid(self):
        n = 4 * (self.truncation + 1)
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        w = np.full(n, 2 * np.pi / n)
        return t, w

    def _values(self, t):
        return np.exp(1j * np.outer(t, self.indices)) / np.sqrt(2 * np.pi)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Matrix (n_nodes, size) of basis values."""
        return self._tabulated("values", self._values, (t,))

    def tangential_derivative(self, t: np.ndarray) -> np.ndarray:
        return self._tabulated(
            "derivative", lambda t: self.evaluate(t) * (1j * self.indices), (t,))


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
        x, wx = roots_legendre(n)
        theta = np.arccos(x)
        phi = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        TH, PH = np.meshgrid(theta, phi, indexing="ij")
        W = np.outer(wx, np.full(n, 2 * np.pi / n))
        return TH.ravel(), PH.ravel(), W.ravel()

    def _complex_values(self, theta, phi, diff: bool):
        out_v = {}
        out_dt = {}
        out_dp = {}
        for l in range(self.truncation + 1):
            for m in range(0, l + 1):
                if diff:
                    v, grad = sph_harm_y(l, m, theta, phi, diff_n=1)
                    out_v[(l, m)] = v
                    out_dt[(l, m)] = grad[..., 0] if np.ndim(grad) > 1 else grad[0]
                    out_dp[(l, m)] = grad[..., 1] if np.ndim(grad) > 1 else grad[1]
                else:
                    out_v[(l, m)] = sph_harm_y(l, m, theta, phi)
        return out_v, out_dt, out_dp

    def _realize(self, table, l, m):
        if m == 0:
            return table[(l, 0)].real
        if m > 0:
            return np.sqrt(2.0) * (-1.0) ** m * table[(l, m)].real
        return np.sqrt(2.0) * (-1.0) ** (-m) * table[(l, -m)].imag

    def _values(self, theta, phi):
        vals, _, _ = self._complex_values(theta, phi, diff=False)
        return np.stack([self._realize(vals, l, m) for l, m in self.indices], axis=-1)

    def _gradient(self, theta, phi):
        _, dth, dph = self._complex_values(theta, phi, diff=True)
        gt = np.stack([self._realize(dth, l, m) for l, m in self.indices], axis=-1)
        gp = np.stack([self._realize(dph, l, m) for l, m in self.indices], axis=-1)
        return gt, gp / np.sin(theta)[..., None]

    def evaluate(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return self._tabulated("values", self._values, (theta, phi))

    def gradient(self, theta: np.ndarray, phi: np.ndarray):
        """Tangential gradient components (d/dtheta, (1/sin theta) d/dphi)."""
        return self._tabulated("gradient", self._gradient, (theta, phi))


@lru_cache(maxsize=8)
def angular_basis(dimension: int, truncation: int):
    """The basis of a truncation, shared so that its tables are built once."""
    if dimension == 2:
        return CircleBasis(truncation)
    if dimension == 3:
        return SphereBasis(truncation)
    raise UnsupportedConfigurationError(f"dimension {dimension} not supported")


def assemble_angular_matrix(pot: AngularPotential, truncation: int):
    """Galerkin matrix of the angular sesquilinear form; returns (M, basis).

    N = 2 convention: the operator acts as (-i d/dt + alpha)^2 - a, so the
    entry for basis pair (row j, column l) is

        j l delta_{jl} + (j + l) ahat_{j-l} + (alpha^2)hat_{j-l} - ahat^{el}_{j-l}

    with fhat_m the e^{imt} expansion coefficient.  With constant alpha the
    spectrum is the multiset {(alpha - j)^2 - a0 : j in Z}.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    basis = angular_basis(pot.dimension, truncation)
    if pot.dimension == 2:
        js = basis.indices
        alpha_c = pot.magnetic
        alpha_sq = np.convolve(alpha_c, alpha_c)
        elec = pot.electric

        def coeff(c, m):
            d = (len(c) - 1) // 2
            out = np.zeros_like(m, dtype=complex)
            mask = np.abs(m) <= d
            out[mask] = c[m[mask] + d]
            return out

        J, L = np.meshgrid(js, js, indexing="ij")
        M = np.zeros((basis.size, basis.size), dtype=complex)
        diff = J - L
        # huge coefficients overflow here; the finiteness check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            M += np.where(J == L, (J * L).astype(complex), 0.0)
            M += (J + L) * coeff(alpha_c, diff)
            M += coeff(alpha_sq, diff)
            M -= coeff(elec, diff)
    else:
        theta, phi, w = basis.grid()
        B = basis.evaluate(theta, phi)
        a_vals = pot.electric_sphere(theta, phi)
        M = np.diag(basis.laplace_eigs).astype(complex)
        M -= (B * (w * a_vals)[:, None]).T @ B
    if not np.all(np.isfinite(M)):
        raise NumericalFailureError("assembled matrix has non-finite entries")
    herm = np.abs(M - M.conj().T).max()
    scale = max(np.abs(M).max(), 1.0)
    if herm > 1e-12 * scale:
        raise NumericalFailureError(f"assembled matrix not Hermitian: defect {herm:.2e}")
    return 0.5 * (M + M.conj().T), basis


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
    eigenvectors: np.ndarray  # (basis.size, K), columns phase-fixed
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

    def _sample(self, name: str, k: int, nodes, compute):
        """compute(column k); kept read-only per mode on the basis grid."""
        v = self.eigenvectors[:, k - 1]
        if not self.basis.on_grid(nodes):
            return compute(v)
        key = (name, k)
        if key not in self._samples:
            self._samples[key] = _frozen(compute(v))
        return self._samples[key]

    def psi_values(self, k: int, *nodes) -> np.ndarray:
        """Samples of psi_k at angular nodes (t,) or (theta, phi)."""
        return self._sample("values", k, nodes, lambda v: self.basis.evaluate(*nodes) @ v)

    def psi_gradient(self, k: int, *nodes):
        """Tangential gradient samples of psi_k; 1 component on S^1, 2 on S^2."""
        if self.potential.dimension == 2:
            return self._sample("gradient", k, nodes, lambda v: (
                self.basis.tangential_derivative(*nodes) @ v,))

        def compute(v):
            gt, gp = self.basis.gradient(*nodes)
            return gt @ v, gp @ v

        return self._sample("gradient", k, nodes, compute)

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


def eigendecompose(matrix: np.ndarray, count: int, basis, pot: AngularPotential,
                   residual_tol: float = 1e-8) -> AngularSpectrum:
    """Lowest `count` eigenpairs of the Hermitian Galerkin matrix."""
    n = matrix.shape[0]
    if count > n:
        raise AliasingError(f"requested {count} eigenpairs from a {n}x{n} matrix")
    try:
        w, v = eigh(matrix, subset_by_index=(0, count - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"dense eigensolver failed: {exc}") from exc
    spectral_radius = max(np.abs(w).max(), 1.0)
    resid = np.abs(matrix @ v - v * w).max()
    if resid > residual_tol * spectral_radius:
        raise NumericalFailureError(f"eigenpair residual {resid:.2e} exceeds tolerance")
    v = np.stack([_fix_phase(v[:, i]) for i in range(count)], axis=1)
    if pot.dimension == 3:
        v = v.real.astype(float)
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
    """Assemble and diagonalize in one call with default truncations."""
    if truncation is None:
        truncation = DEFAULT_TRUNCATION_CIRCLE if pot.dimension == 2 else DEFAULT_TRUNCATION_SPHERE
    degree_needed = pot.magnetic_degree + pot.electric_degree
    if truncation <= degree_needed:
        raise AliasingError(
            f"truncation {truncation} cannot resolve potential degree {degree_needed}"
        )
    M, basis = assemble_angular_matrix(pot, truncation)
    return eigendecompose(M, count, basis, pot)


def closed_form_ab_spectrum(alpha: float, a0: float, count: int) -> np.ndarray:
    """K smallest values of (alpha - j)^2 - a0 over integer j."""
    j = np.arange(-count - 2, count + 3)
    vals = np.sort((alpha - j) ** 2 - a0)
    return vals[:count]
