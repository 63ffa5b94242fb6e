"""Asymptotic profiles at the singularity: exponent, eigenspace, coefficients.

Near 0 a solution behaves like r^gamma times an element of the eigenspace of
the angular operator selected by gamma, with coefficients beta_i recoverable
from data on any sphere through a Cauchy-integral type formula.  The Kelvin
transform v(x) = |x|^{2-N} u(x/|x|^2) exchanges this picture with the decay
expansion at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grids
from .angular import AngularSpectrum
from .errors import (
    DegenerateExponentError,
    IndefiniteFormError,
    NoEigenvalueMatchError,
)
from .modal import (
    FieldSample,
    ModalSolution,
    PerturbationSpec,
    characteristic_exponents,
    modal_stack,
    synthesize_field,
)

#: exponent distance within which gamma is matched to an eigenvalue block
BLOCK_MATCH_TOL = 1e-4


def classify_regularity(gamma: float, N: int) -> dict:
    """Local regularity implied by the leading exponent gamma.

    A nonzero solution with exponent gamma is C^{0,gamma} when 0 < gamma < 1,
    locally Lipschitz when gamma >= 1, bounded with a discontinuous profile
    when gamma = 0, and unbounded at the origin when gamma < 0.  Vanishing to
    infinite order is excluded (strong unique continuation).
    """
    if gamma < 0:
        label = "unbounded-at-origin"
    elif gamma == 0:
        label = "bounded"
    elif gamma < 1:
        label = "holder"
    else:
        label = "lipschitz"
    return {
        "label": label,
        "exponent": float(gamma),
        "dimension": int(N),
        "strong_unique_continuation": True,
    }


def match_block(spectrum: AngularSpectrum, gamma: float, N: int, side: str = "interior",
                tol: float = BLOCK_MATCH_TOL):
    """(k0, j0, m) of the eigenvalue block whose exponent equals gamma."""
    for k in range(1, spectrum.count + 1):
        try:
            exp = characteristic_exponents(N, spectrum.mu(k), k)
        except IndefiniteFormError:
            continue
        if abs(exp.limit_exponent(side) - gamma) <= tol:
            j0, m = spectrum.block_of(k)
            return k, j0, m
    raise NoEigenvalueMatchError(
        f"no eigenvalue block has exponent {gamma:.6f} within {tol:g}"
    )


@dataclass(frozen=True)
class AsymptoticProfile:
    """Leading-order description u ~ r^gamma sum_i beta_i psi_i (interior)
    or u ~ r^{-gamma} sum_i beta_i psi_i (exterior)."""

    gamma: float
    k0: int
    j0: int
    m: int
    beta: np.ndarray
    R: float
    side: str
    regularity: dict

    def angular_values(self, spectrum: AngularSpectrum, *nodes) -> np.ndarray:
        out = 0
        for i in range(self.m):
            out = out + self.beta[i] * spectrum.psi_values(self.j0 + i, *nodes)
        return out

    def to_json(self) -> dict:
        return {
            "gamma": float(self.gamma),
            "k0": int(self.k0),
            "block": [int(self.j0), int(self.m)],
            "beta": [[float(b.real), float(b.imag)] for b in self.beta],
            "R": float(self.R),
            "side": self.side,
            "regularity": self.regularity,
        }


def extract_coefficients(field: FieldSample, gamma: float, R: float,
                         h: PerturbationSpec | None = None) -> AsymptoticProfile:
    """Coefficients beta_i on the eigenspace matched by gamma.

    With g = gamma inside, g = -gamma outside and d = 2 g + N - 2,

        beta_i = R^-g phi_i(R)
                 + int_{singular end}^R zeta_i(s)/d (s^{1-g} - s^{g+N-1}/R^d) ds,

    the singular end being 0 inside and infinity outside; independent of the
    extraction radius R for a true solution.
    """
    N = field.dimension
    side = field.side
    g = gamma if side == "interior" else -gamma
    d = 2 * g + N - 2
    if abs(d) < 1e-12:
        raise DegenerateExponentError("2 g + N - 2 vanishes; formula degenerates")
    k0, j0, m = match_block(field.spectrum, gamma, N, side=side)
    r = field.r
    iR = grids.nearest_index(r, R)
    R = r[iR]
    phi, _, zeta = modal_stack(field, h)
    # outside, the integral from infinity to R is minus the one over [R, inf)
    orient = 1.0 if side == "interior" else -1.0
    beta = np.zeros(m, dtype=complex)
    for i in range(m):
        k = j0 + i
        z = zeta[k - 1]
        val = R ** (-g) * phi[k - 1, iR]
        if np.abs(z).max() > 0:
            w = orient * z / d * (r ** (1 - g) - r ** (g + N - 1) / R**d)
            val = val + grids.singular_integral(w, r, side)[iR]
        beta[i] = val
    return AsymptoticProfile(
        gamma=float(gamma), k0=k0, j0=j0, m=m, beta=beta, R=float(R),
        side=side, regularity=classify_regularity(gamma, N),
    )


def _rate_fit(side: str, lams: np.ndarray, dists: np.ndarray, floor: float) -> float:
    """Decay rate of the distances as lambda approaches the singular end."""
    mask = dists > floor
    if mask.sum() < 2:
        return float("nan")
    x = lams if side == "interior" else 1.0 / lams
    return grids.fitted_slope(x[mask], dists[mask])


def blowup_profile(field: FieldSample, gamma: float, lams,
                   h: PerturbationSpec | None = None,
                   profile: AsymptoticProfile | None = None) -> dict:
    """Rescaled angular slices against the limiting eigenspace combination.

    Interior: lambda^-gamma u(lambda theta); exterior: lambda^gamma
    u(lambda theta).  Returns per-lambda profiles, sup-norm distances to
    sum beta_i psi_i, and the fitted decay rate of the distance.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    spectrum = field.spectrum
    if profile is None:
        R0 = field.r[-1] if field.side == "interior" else field.r[0]
        profile = extract_coefficients(field, gamma, R0, h)
    target = profile.angular_values(spectrum, *field.angular_nodes)
    g = gamma if field.side == "interior" else -gamma
    profiles = []
    dists = np.zeros(len(lams))
    for n, lam in enumerate(lams):
        i = grids.nearest_index(field.r, lam)
        p = field.r[i] ** (-g) * field.values[i]
        profiles.append(p)
        dists[n] = float(np.abs(p - target).max())
    scale = float(np.abs(target).max())
    rate = _rate_fit(field.side, lams, dists, 1e-12 * scale)
    return {
        "profiles": profiles,
        "distances": dists,
        "rate": rate,
        "target": target,
        "profile": profile,
    }


def gradient_blowup_profile(field: FieldSample, gamma: float, lams,
                            h: PerturbationSpec | None = None,
                            profile: AsymptoticProfile | None = None) -> dict:
    """Rescaled gradients against beta-weighted (exponent psi theta + grad psi).

    Interior target radial factor is +gamma, exterior -gamma, matching the
    differentiated leading power.
    """
    if not field.has_gradient:
        raise ValueError("field carries no gradient samples")
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    spectrum = field.spectrum
    if profile is None:
        R0 = field.r[-1] if field.side == "interior" else field.r[0]
        profile = extract_coefficients(field, gamma, R0, h)
    g = gamma if field.side == "interior" else -gamma
    target_rad = 0
    target_ang = None
    for i in range(profile.m):
        k = profile.j0 + i
        psi = spectrum.psi_values(k, *field.angular_nodes)
        gpsi = spectrum.psi_gradient(k, *field.angular_nodes)
        target_rad = target_rad + profile.beta[i] * g * psi
        if target_ang is None:
            target_ang = [profile.beta[i] * g for g in gpsi]
        else:
            target_ang = [t + profile.beta[i] * g for t, g in zip(target_ang, gpsi)]
    dists = np.zeros(len(lams))
    for n, lam in enumerate(lams):
        i = grids.nearest_index(field.r, lam)
        ri = field.r[i]
        scale_pow = ri ** (-g)
        d_rad = np.abs(ri * scale_pow * field.du_dr[i] - target_rad).max()
        d_ang = max(
            np.abs(scale_pow * comp[i] - t).max()
            for comp, t in zip(field.angular_gradient, target_ang)
        )
        dists[n] = max(float(d_rad), float(d_ang))
    scale = max(float(np.abs(target_rad).max()),
                max(float(np.abs(t).max()) for t in target_ang))
    rate = _rate_fit(field.side, lams, dists, 1e-11 * scale)
    return {"distances": dists, "rate": rate, "profile": profile}


def kelvin_transform(field: FieldSample) -> FieldSample:
    """v(x) = |x|^{2-N} u(x/|x|^2) on the inverted radial grid.

    Exchanges interior and exterior samples; applied twice it is the
    identity.  Modal data is transformed exactly:

        phi_v(t) = t^{2-N} phi_u(1/t),
        zeta_v(t) = t^{-2-N} zeta_u(1/t).
    """
    N = field.dimension
    r = field.r
    t = 1.0 / r[::-1]
    new_side = "exterior" if field.side == "interior" else "interior"
    if field.modal is not None and field.spectrum is not None:
        new_sols = {
            k: ModalSolution(
                exponents=sol.exponents, r=t,
                phi=t ** (2 - N) * sol.phi[::-1],
                dphi=(2 - N) * t ** (1 - N) * sol.phi[::-1] - t ** (-N) * sol.dphi[::-1],
                zeta=t ** (-2 - N) * sol.zeta[::-1],
                boundary_radius=1.0 / sol.boundary_radius, c1=sol.c1, side=new_side,
            )
            for k, sol in field.modal.items()
        }
        return synthesize_field(field.spectrum, new_sols)
    factor = (t ** (2 - N))[:, None]
    values = factor * field.values[::-1]
    du_dr = None
    if field.du_dr is not None:
        du_dr = ((2 - N) * t ** (1 - N))[:, None] * field.values[::-1] \
            - (t ** (-N))[:, None] * field.du_dr[::-1]
    ang = None
    if field.angular_gradient is not None:
        ang = tuple(factor * comp[::-1] for comp in field.angular_gradient)
    return replace(field, r=t, values=values, du_dr=du_dr,
                   angular_gradient=ang, modal=None, side=new_side)
