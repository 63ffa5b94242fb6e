"""Separation of variables for L u = h u near the singularity.

A solution on a punctured ball (or an exterior domain) is expanded over the
eigenfunctions psi_k of the angular operator,

    u(r, theta) = sum_k phi_k(r) psi_k(theta),

and each radial profile solves a second order ODE with indicial exponents
sigma_plus > sigma_minus.  Profiles are built by variation of parameters on a
log-radial grid, keeping only the branch with u/|x| square integrable near the
origin (interior) or decaying at infinity (exterior).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grids
from .angular import AngularSpectrum, _coeff_array, _eval_trig, _frozen
from .errors import (
    AliasingError,
    DegenerateIndicialError,
    DegenerateSolutionError,
    ForcingTooSingularError,
    GridMismatchError,
    IndefiniteFormError,
)

#: Picard stops once successive fields agree to this fraction of their sup norm
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 50


@dataclass(frozen=True)
class ModalExponents:
    """Indicial exponents of the radial equation for one angular mode."""

    k: int
    mu: float
    sigma_plus: float
    sigma_minus: float

    @property
    def gap(self) -> float:
        return self.sigma_plus - self.sigma_minus

    def limit_exponent(self, side: str) -> float:
        """Frequency limit of this mode at the singular end: sigma_plus at
        the origin (interior), -sigma_minus at infinity (exterior)."""
        return self.sigma_plus if side == "interior" else -self.sigma_minus


def characteristic_exponents(N: int, mu: float, k: int = 0) -> ModalExponents:
    """sigma = -(N-2)/2 +- sqrt(((N-2)/2)^2 + mu); needs the radicand > 0."""
    half = (N - 2) / 2.0
    disc = half * half + mu
    if disc <= 0:
        raise IndefiniteFormError(
            f"positive definiteness fails: mu + ((N-2)/2)^2 = {disc:.6g} <= 0"
        )
    root = np.sqrt(disc)
    return ModalExponents(k=k, mu=mu, sigma_plus=-half + root, sigma_minus=-half - root)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbing potential h(x) = c |x|^{-2 +- eps} g(theta).

    side="interior" uses the exponent -2 + eps (h vanishes relative to the
    inverse square scale at 0); side="exterior" uses -2 - eps (decay at
    infinity).  The angular factor g is a real trig polynomial on the circle;
    on the sphere only a constant factor is supported.
    """

    amplitude: complex = 0.0
    epsilon: float = 0.5
    angular: np.ndarray | None = None
    side: str = "interior"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("perturbation exponent offset eps must be > 0")
        if self.side not in ("interior", "exterior"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.angular is not None and not isinstance(self.angular, np.ndarray):
            object.__setattr__(self, "angular", _coeff_array(self.angular))

    @property
    def radial_exponent(self) -> float:
        return -2.0 + self.epsilon if self.side == "interior" else -2.0 - self.epsilon

    def radial_factor(self, r: np.ndarray) -> np.ndarray:
        return self.amplitude * np.asarray(r, dtype=float) ** self.radial_exponent

    def angular_factor(self, *nodes) -> np.ndarray:
        if self.angular is None:
            return np.ones_like(nodes[0])
        if len(nodes) != 1:
            raise GridMismatchError("trig angular factors are circle-only")
        return _eval_trig(self.angular, nodes[0])


def perturbation_from_descriptor(desc: dict) -> PerturbationSpec:
    amp = desc.get("amplitude", 0.0)
    if isinstance(amp, (list, tuple)):
        amp = complex(amp[0], amp[1])
    angular = desc.get("angular")
    return PerturbationSpec(
        amplitude=complex(amp),
        epsilon=float(desc.get("epsilon", 0.5)),
        angular=None if angular is None else _coeff_array(angular),
        side=desc.get("side", "interior"),
    )


@dataclass(frozen=True)
class ModalSolution:
    """Radial profile of one angular mode, with analytic derivative samples."""

    exponents: ModalExponents
    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    zeta: np.ndarray
    boundary_radius: float
    c1: complex
    side: str = "interior"


def _check_forcing_decay(zeta: np.ndarray, r: np.ndarray, exp: ModalExponents,
                         side: str) -> None:
    mag = np.abs(zeta)
    if mag.max() == 0:
        return
    n = min(60, len(r) // 4)
    sl = slice(0, n) if side == "interior" else slice(-n, None)
    window = mag[sl]
    if window.max() <= 1e-13 * mag.max():
        return
    slope = grids.fitted_slope(r[sl], np.maximum(window, 1e-300))
    # integrability of the variation-of-parameters integrals: the particular
    # solution converges iff the forcing decays faster than s^{sigma_minus - 2}
    # near 0 (interior) resp. slower than s^{sigma_plus - 2} at infinity
    if side == "interior" and slope <= exp.sigma_minus - 2.0 + 1e-6:
        raise ForcingTooSingularError(
            f"forcing slope {slope:.3f} at or below sigma_minus - 2 = "
            f"{exp.sigma_minus - 2:.3f}; mode integral diverges at 0"
        )
    if side == "exterior" and slope >= exp.sigma_plus - 2.0 - 1e-6:
        raise ForcingTooSingularError(
            f"forcing slope {slope:.3f} at or above sigma_plus - 2 = "
            f"{exp.sigma_plus - 2:.3f}; mode integral diverges at infinity"
        )


def solve_radial_mode(exp: ModalExponents, zeta: np.ndarray, boundary_value: complex,
                      r: np.ndarray, side: str = "interior") -> ModalSolution:
    """Variation-of-parameters profile matching the boundary value.

    Interior (boundary at R = r[-1]):

        phi(s) = s^{s+} (c1 + int_s^R t^{1-s+} zeta/(s+ - s-) dt)
               + s^{s-} int_0^s t^{1-s-} zeta/(s+ - s-) dt,

    the second integral closed below r[0] by a power-law tail so that the
    s- homogeneous branch is absent and u/|x| stays square integrable.
    The exterior variant exchanges the roles of s+ and s-: it is matched
    at R = r[0], its first integral runs from R to s and its second from s
    to infinity, so that the profile decays at infinity.

    A mode without data (zero boundary value, zero forcing) has the zero
    profile; it is returned as one read-only zero array without integrating.
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"unknown side {side!r}")
    if exp.gap < 1e-12:
        raise DegenerateIndicialError(
            "coincident indicial exponents: logarithmic branch not supported"
        )
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != r.shape:
        raise GridMismatchError("zeta samples must live on the radial grid")
    if boundary_value == 0 and not zeta.any():
        zero = _frozen(np.zeros_like(zeta))
        R = r[-1] if side == "interior" else r[0]
        return ModalSolution(
            exponents=exp, r=r, phi=zero, dphi=zero, zeta=zeta,
            boundary_radius=float(R), c1=0j, side=side,
        )
    _check_forcing_decay(zeta, r, exp, side)
    return _variation_of_parameters(exp, zeta, boundary_value, r, side)


def _variation_of_parameters(exp: ModalExponents, zeta: np.ndarray,
                             boundary_value: complex, r: np.ndarray,
                             side: str) -> ModalSolution:
    """The integrals of ``solve_radial_mode`` for checked complex ``zeta``."""
    sp, sm = exp.sigma_plus, exp.sigma_minus
    gap = sp - sm
    scale = float(np.abs(zeta).max())
    interior = side == "interior"
    # a: the branch fixed by the boundary value; b: the one kept at the singular end
    a, b = (sp, sm) if interior else (sm, sp)
    iR = -1 if interior else 0
    R = r[iR]
    cum_a = grids.cumulative_integral(r ** (1.0 - a) * zeta / gap, r)
    I_a = cum_a[-1] - cum_a if interior else cum_a  # between s and R
    I_b = grids.singular_integral(r ** (1.0 - b) * zeta / gap, r, side, scale)
    c1 = boundary_value * R ** (-a) - R ** (b - a) * I_b[iR]
    phi = r**a * (c1 + I_a) + r**b * I_b
    dphi = a * r ** (a - 1) * (c1 + I_a) + b * r ** (b - 1) * I_b
    return ModalSolution(
        exponents=exp, r=r, phi=phi, dphi=dphi, zeta=zeta,
        boundary_radius=float(R), c1=complex(c1), side=side,
    )


class _Lazy:
    """A field of a frozen dataclass kept as given, or, when given None,
    built by ``build(obj, name)`` on first read and then kept."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the dataclass default
        d = obj.__dict__
        if d[self.name] is None:
            d[self.name] = self.build(obj, self.name)
        return d[self.name]

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _modal_sum(field: FieldSample, name: str):
    """One nodal array of a synthesized field: sum_k phi_k psi_k for
    ``values``, phi_k' psi_k for ``du_dr``, phi_k grad psi_k per component
    for ``angular_gradient``; outer products accumulated in mode order.
    A mode whose profile is zero adds nothing and is skipped.  None for a
    field without modal profiles."""
    if field.modal is None:
        return None
    nodes, spectrum = field.angular_nodes, field.spectrum
    shape = (len(field.r), len(nodes[0]))
    if name == "angular_gradient":
        comps = tuple(np.zeros(shape, dtype=complex) for _ in range(field.dimension - 1))
        for k, sol in field.modal.items():
            if sol.phi.any():
                for comp, gpsi in zip(comps, spectrum.psi_gradient(k, *nodes)):
                    comp += np.outer(sol.phi, gpsi)
        return comps
    out = np.zeros(shape, dtype=complex)
    for k, sol in field.modal.items():
        profile = sol.phi if name == "values" else sol.dphi
        if profile.any():
            out += np.outer(profile, spectrum.psi_values(k, *nodes))
    return out


@dataclass(frozen=True)
class FieldSample:
    """Complex samples of a field on a log-radial x angular product grid.

    A synthesized field is its modal profiles, u = sum_k phi_k psi_k; its
    nodal arrays are built from them only when read.
    """

    dimension: int
    r: np.ndarray
    angular_nodes: tuple
    angular_weights: np.ndarray
    values: np.ndarray | None = _Lazy(_modal_sum)  # (n_r, n_nodes)
    du_dr: np.ndarray | None = _Lazy(_modal_sum)
    angular_gradient: tuple | None = _Lazy(_modal_sum)  # per-component (n_r, n_nodes)
    modal: dict | None = None  # mode index -> ModalSolution
    spectrum: AngularSpectrum | None = None
    side: str = "interior"

    def __post_init__(self):
        values = self.__dict__["values"]
        if values is None and self.modal is None:
            raise GridMismatchError("a field needs values or modal profiles")
        if values is not None and values.shape != (len(self.r), len(self.angular_nodes[0])):
            raise GridMismatchError("value array shape does not match the grid")
        if self.r[0] <= 0 or np.any(np.diff(self.r) <= 0):
            raise GridMismatchError("radial grid must be positive and increasing")

    @property
    def has_gradient(self) -> bool:
        return self.du_dr is not None and self.angular_gradient is not None

    def detached(self) -> "FieldSample":
        """Copy without modal attachment; forces quadrature-based analysis."""
        return replace(self, modal=None)

    def corrupted(self, noise: float, rng=None) -> "FieldSample":
        """Multiplicative noise on the samples; drops modal and gradient data."""
        rng = np.random.default_rng(rng)
        factor = 1.0 + noise * rng.standard_normal(self.values.shape)
        return replace(
            self,
            values=self.values * factor,
            du_dr=None,
            angular_gradient=None,
            modal=None,
        )


def synthesize_field(spectrum: AngularSpectrum, solutions: dict) -> FieldSample:
    """u(r, theta) = sum_k phi_k(r) psi_k(theta) on the shared product grid;
    the nodal arrays are summed when first read."""
    sols = list(solutions.values())
    if not sols:
        raise ValueError("no modal solutions supplied")
    r = sols[0].r
    if any(s.r.shape != r.shape or not np.allclose(s.r, r) for s in sols):
        raise GridMismatchError("modal solutions must share the radial grid")
    *nodes, w = spectrum.basis.grid()
    return FieldSample(
        dimension=spectrum.potential.dimension,
        r=r, angular_nodes=tuple(nodes), angular_weights=w, values=None,
        modal=dict(solutions), spectrum=spectrum, side=sols[0].side,
    )


def modal_stack(field: FieldSample, h: PerturbationSpec | None = None):
    """(phi, dphi, zeta) arrays of shape (K, n_r), K = spectrum.count.

    A synthesized field returns its attached profiles.  Sampled data is
    projected onto the modes: derivatives from the du_dr samples or, without
    them, by log-grid finite differences; forcings from ``h`` (zero without).
    """
    spectrum = field.spectrum
    if spectrum is None:
        raise DegenerateSolutionError("field carries no angular spectrum")
    shape = (spectrum.count, len(field.r))
    if field.modal is not None:
        phi, dphi, zeta = (np.zeros(shape, dtype=complex) for _ in range(3))
        for k, sol in field.modal.items():
            phi[k - 1], dphi[k - 1], zeta[k - 1] = sol.phi, sol.dphi, sol.zeta
        return phi, dphi, zeta
    phi = project_onto_modes(field, spectrum)
    dphi = (grids.log_derivative(phi.T, field.r).T if field.du_dr is None
            else project_onto_modes(field, spectrum, data=field.du_dr))
    zeta = (np.zeros(shape, dtype=complex) if h is None
            else perturbation_samples(h, field, spectrum))
    return phi, dphi, zeta


def project_onto_modes(field: FieldSample, spectrum: AngularSpectrum,
                       data: np.ndarray | None = None) -> np.ndarray:
    """Per-mode radial profiles phi_k(r_i) by angular quadrature.

    Returns an array (K, n_r).  `data` defaults to the field values; pass
    another array on the same grid to project e.g. h*u.
    """
    if len(field.angular_nodes[0]) <= 2 * spectrum.truncation:
        raise AliasingError(
            f"{len(field.angular_nodes[0])} angular nodes cannot resolve "
            f"truncation {spectrum.truncation}"
        )
    if data is None:
        data = field.values
    psis = np.stack(
        [spectrum.psi_values(k, *field.angular_nodes) for k in range(1, spectrum.count + 1)]
    )
    return (data @ (np.conj(psis).T * field.angular_weights[:, None])).T


def perturbation_samples(h: PerturbationSpec, field: FieldSample,
                         spectrum: AngularSpectrum) -> np.ndarray:
    """Forcing coefficients zeta_k(r_i) of h*u, shape (K, n_r)."""
    g = h.angular_factor(*field.angular_nodes)
    hu = field.values * g[None, :]
    zeta = project_onto_modes(field, spectrum, data=hu)
    return zeta * h.radial_factor(field.r)[None, :]


def homogeneous_solutions(spectrum: AngularSpectrum, boundary_values: dict,
                          r: np.ndarray, side: str = "interior") -> dict:
    """Pure power-law profiles matching boundary data, zero forcing."""
    N = spectrum.potential.dimension
    out = {}
    zeros = _frozen(np.zeros_like(r, dtype=complex))
    for k, val in boundary_values.items():
        exp = characteristic_exponents(N, spectrum.mu(k), k)
        out[k] = solve_radial_mode(exp, zeros, val, r, side=side)
    return out


def solve_perturbed_field(spectrum: AngularSpectrum, h: PerturbationSpec,
                          boundary_values: dict, r: np.ndarray):
    """Self-consistent solution of L u = h u by Picard iteration over all
    ``spectrum.count`` modes.

    Starts from the homogeneous field matching the boundary data, then
    alternates forcing projection and radial solves until successive fields
    agree in sup norm to PICARD_TOL.  Returns (FieldSample, info dict).
    """
    N = spectrum.potential.dimension
    side = h.side
    K = spectrum.count
    exps = {k: characteristic_exponents(N, spectrum.mu(k), k) for k in range(1, K + 1)}
    bvals = {k: complex(boundary_values.get(k, 0.0)) for k in range(1, K + 1)}
    sols = homogeneous_solutions(spectrum, bvals, r, side=side)
    field = synthesize_field(spectrum, sols)
    zero = _frozen(np.zeros_like(r, dtype=complex))
    residuals = []
    for _ in range(PICARD_MAX_ITER):
        zeta = perturbation_samples(h, field, spectrum)
        # modes carrying only projection roundoff are treated as unforced
        zmax = np.abs(zeta).max()
        sols = {
            k: solve_radial_mode(
                exps[k],
                zeta[k - 1] if np.abs(zeta[k - 1]).max() > 1e-13 * zmax else zero,
                bvals[k], r, side=side,
            )
            for k in range(1, K + 1)
        }
        new_field = synthesize_field(spectrum, sols)
        resid = float(np.abs(new_field.values - field.values).max())
        residuals.append(resid)
        field = new_field
        scale = max(float(np.abs(field.values).max()), 1e-300)
        if resid < PICARD_TOL * scale:
            break
    info = {
        "iterations": len(residuals),
        "residuals": residuals,
        "converged": bool(residuals and residuals[-1] < PICARD_TOL * scale),
    }
    return field, info
