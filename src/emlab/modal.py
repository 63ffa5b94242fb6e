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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grids
from .angular import AngularSpectrum, _coeff_array, _eval_trig, _frozen
from .errors import (
    DegenerateIndicialError,
    EmlabError,
    ForcingTooSingularError,
    GridMismatchError,
    IndefiniteFormError,
    NumericalFailureError,
)

#: Picard stops once successive fields agree to this fraction of the field's
#: modal norm ``sup_norm``: the nodal maximum for one mode, a bound on it for several
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 50
#: bytes of the one block of rows, reused per solve, in which a field's values
#: are summed and projected: on a 3000 x 260 field, 1 MiB took 2.54 ms a
#: projection, 3 MiB 3.04 ms, 256 KiB 2.83 ms (median of 42, 1 BLAS thread, x86-64)
PROJECTION_BLOCK_BYTES = 1 << 20


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

    def branch_powers(self, r: np.ndarray, side: str) -> tuple:
        """(r^a, r^b, r^(1-a), r^(1-b), a r^(a-1), b r^(b-1)) for the branches
        a and b of ``solve_radial_mode``, kept for the last read-only grid and
        side, so a Picard solve, which builds its exponents once, builds them once."""
        kept = vars(self).get("_powers")
        if kept is None or kept[0] is not r or kept[1] != side:
            a, b = ((self.sigma_plus, self.sigma_minus) if side == "interior"
                    else (self.sigma_minus, self.sigma_plus))
            kept = r, side, (r**a, r**b, r ** (1.0 - a), r ** (1.0 - b),
                             a * r ** (a - 1), b * r ** (b - 1))
            if not r.flags.writeable:
                vars(self)["_powers"] = kept
        return kept[2]


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
    on the sphere only a constant factor is supported.  Every value is
    checked here; each error message starts with the entry it names.
    """

    amplitude: complex = 0.0
    epsilon: float = 0.5
    angular: np.ndarray | None = None
    side: str = "interior"

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if self.side not in ("interior", "exterior"):
            raise ValueError(f"side must be 'interior' or 'exterior', got {self.side!r}")
        if self.angular is not None and not isinstance(self.angular, np.ndarray):
            try:
                object.__setattr__(self, "angular", _coeff_array(self.angular))
            except (TypeError, ValueError, OverflowError, EmlabError) as exc:
                raise ValueError(f"angular: {exc}") from None
        if self.angular is not None and not np.isfinite(self.angular).all():
            raise ValueError("angular coefficients must be finite")

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
    profile; it is returned without integrating, as a new read-only zero array.
    A mode with a boundary value and no forcing has the power law
    phi = c1 r^a of its matched branch a (``_power_profile``), whose
    integrals are exact zeros, and is not integrated either.
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
    forced = zeta.any()
    if boundary_value == 0 and not forced:
        zero = _frozen(np.zeros_like(zeta))
        R = r[-1] if side == "interior" else r[0]
        return ModalSolution(
            exponents=exp, r=r, phi=zero, dphi=zero, zeta=zeta,
            boundary_radius=float(R), c1=0j, side=side,
        )
    if forced:
        _check_forcing_decay(zeta, r, exp, side)
    # a huge forcing overflows the integrals; reported below, not warned about
    with np.errstate(all="ignore"):
        solve = _variation_of_parameters if forced else _power_profile
        sol = solve(exp, zeta, boundary_value, r, side)
    if not (np.isfinite(sol.phi).all() and np.isfinite(sol.dphi).all()):
        raise NumericalFailureError(f"the radial profile of mode {exp.k} overflows")
    return sol


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
    r_a, r_b, r_1a, r_1b, dr_a, dr_b = exp.branch_powers(r, side)
    cum_a = grids.cumulative_integral(r_1a * zeta / gap, r)
    I_a = cum_a[-1] - cum_a if interior else cum_a  # between s and R
    I_b = grids.singular_integral(r_1b * zeta / gap, r, side, scale)
    c1 = boundary_value * R ** (-a) - R ** (b - a) * I_b[iR]
    phi = r_a * (c1 + I_a) + r_b * I_b
    dphi = dr_a * (c1 + I_a) + dr_b * I_b
    return ModalSolution(
        exponents=exp, r=r, phi=phi, dphi=dphi, zeta=zeta,
        boundary_radius=float(R), c1=complex(c1), side=side,
    )


def _power_profile(exp: ModalExponents, zeta: np.ndarray, boundary_value: complex,
                   r: np.ndarray, side: str) -> ModalSolution:
    """``_variation_of_parameters`` for a zero ``zeta``, bit for bit: its
    integrals I_a and I_b are then exact zeros, so phi = r^a c1 and
    dphi = a r^(a-1) c1 in the body's operation order.  The zeros the body
    adds are added here as scalars, since they fix the sign of a zero part:
    I_a to c1, r^b I_b = 0 + 0j to phi, and b r^(b-1) I_b, whose real part
    is a zero with the sign of b, to dphi."""
    sp, sm = exp.sigma_plus, exp.sigma_minus
    a, b = (sp, sm) if side == "interior" else (sm, sp)
    R = r[-1] if side == "interior" else r[0]
    c1 = boundary_value * R ** (-a) - R ** (b - a) * 0j
    c = c1 + 0j
    phi = r**a * c + 0j
    dphi = a * r ** (a - 1) * c + complex(np.copysign(0.0, b), 0.0)
    return ModalSolution(
        exponents=exp, r=r, phi=phi, dphi=dphi, zeta=zeta,
        boundary_radius=float(R), c1=complex(c1), side=side,
    )


def _sum_rows(terms: list, rows, out: np.ndarray) -> np.ndarray:
    """sum_k p_k[rows] psi_k over ``terms`` = [(p_k, psi_k), ...], written
    into ``out``: the first product is written, the later ones are added in
    order, with np.outer's own products, so a block of rows holds the same
    bits as those rows of the whole sum.  Zeros without terms."""
    if not terms:
        out[...] = 0
        return out
    (p, psi), *rest = terms
    np.multiply(p[rows, None], psi[None, :], out=out)
    for p, psi in rest:
        out += p[rows, None] * psi[None, :]
    return out


@dataclass(frozen=True)
class FieldSample:
    """A field on a log-radial x angular product grid, held as its modal
    profiles, u = sum_k phi_k psi_k.

    It holds the modes it carries, ``modes`` in ascending order
    (``synthesize_field``), and their profiles as read-only stacks ``phi``,
    ``dphi`` and ``zeta`` of shape (len(modes), n_r), one row per mode.  A
    mode it does not hold is zero throughout, so a sum over the rows equals
    the one over all K = spectrum.count modes bit for bit.  Every nodal value
    is a row sum of the profiles (``sum_rows``).  The whole arrays
    ``values``, ``du_dr`` and ``angular_gradient`` are summed on first read
    and kept, a convenience that no algorithm of the library reads.
    """

    dimension: int
    r: np.ndarray
    modes: tuple
    phi: np.ndarray
    dphi: np.ndarray
    zeta: np.ndarray
    spectrum: AngularSpectrum
    side: str = "interior"
    perturbation: PerturbationSpec | None = None  # the h of L u = h u solved; None: h = 0

    def __post_init__(self):
        if self.r[0] <= 0 or np.any(np.diff(self.r) <= 0):
            raise GridMismatchError("radial grid must be positive and increasing")
        _frozen((self.phi, self.dphi, self.zeta))

    @property
    def angular_nodes(self) -> tuple:
        """The scenario coordinates of the angular samples,
        ``spectrum.nodes``."""
        return self.spectrum.nodes

    @property
    def angular_weights(self) -> np.ndarray:
        return self.spectrum.basis.grid()[-1]

    def _terms(self, profile: str, samples) -> list:
        """[(p_k, samples(k))] over the held modes, in ascending order, for
        the profile p = phi or dphi: the terms of one nodal sum."""
        return list(zip(getattr(self, profile), map(samples, self.modes)))

    def sum_rows(self, profile: str, samples, rows=slice(None)) -> np.ndarray:
        """sum_k p_k[rows] samples(k) for the profile p = phi or dphi, for an
        index list or a slice of rows."""
        out = np.empty((len(self.r[rows]), len(self.angular_weights)), dtype=complex)
        return _sum_rows(self._terms(profile, samples), rows, out)

    @cached_property
    def values(self) -> np.ndarray:
        """sum_k phi_k psi_k, shape (n_r, n_nodes)."""
        return self.sum_rows("phi", self.spectrum.psi_values)

    @cached_property
    def du_dr(self) -> np.ndarray:
        """sum_k phi_k' psi_k, shape (n_r, n_nodes)."""
        return self.sum_rows("dphi", self.spectrum.psi_values)

    @cached_property
    def angular_gradient(self) -> tuple:
        """sum_k phi_k grad psi_k, one (n_r, n_nodes) array per component,
        along the grid's own (e_theta, e_phi) as ``psi_gradient``."""
        spectrum = self.spectrum
        return tuple(self.sum_rows("phi", lambda k, c=c: spectrum.psi_gradient(k)[c])
                     for c in range(self.dimension - 1))


def synthesize_field(spectrum: AngularSpectrum, solutions: dict,
                     perturbation: PerturbationSpec | None = None) -> FieldSample:
    """u(r, theta) = sum_k phi_k(r) psi_k(theta) on the shared product grid,
    solving L u = h u for h = ``perturbation``; nodal arrays are summed later.
    It holds the modes it carries, whose phi, dphi or zeta is nonzero, and all
    of them if none is, so a zero field has modes; their profiles are stacked
    once, in ascending mode order."""
    sols = list(solutions.values())
    if not sols:
        raise ValueError("no modal solutions supplied")
    r = sols[0].r
    # the modes of a Picard iterate share one grid array and need no comparison
    if any(s.r is not r and (s.r.shape != r.shape or not np.allclose(s.r, r)) for s in sols):
        raise GridMismatchError("modal solutions must share the radial grid")
    carried = [k for k, s in solutions.items() if s.phi.any() or s.dphi.any() or s.zeta.any()]
    modes = tuple(sorted(carried or solutions))
    stack = {name: np.array([getattr(solutions[k], name) for k in modes], dtype=complex)
             for name in ("phi", "dphi", "zeta")}
    return FieldSample(
        dimension=spectrum.potential.dimension, r=r, modes=modes, **stack,
        spectrum=spectrum, side=sols[0].side, perturbation=perturbation,
    )


def _projector(spectrum: AngularSpectrum, weights: np.ndarray, n_r: int):
    """project(field), the (K, n_r) profiles of a field's values by angular
    quadrature with ``weights`` (w*g projects g*u), for fields on one grid: the
    operator, block and output are built once, and a result is overwritten by
    the next call.  The values are summed and projected by blocks of rows
    (``PROJECTION_BLOCK_BYTES``), never whole."""
    psis = np.stack([spectrum.psi_values(k) for k in range(1, spectrum.count + 1)])
    proj = np.conj(psis).T * weights[:, None]
    out = np.empty((n_r, spectrum.count), dtype=complex)
    blocks = _row_blocks(n_r, len(weights))
    buf = np.empty((max(b.stop - b.start for b in blocks), len(weights)), dtype=complex)

    def project(field: FieldSample) -> np.ndarray:
        terms = field._terms("phi", spectrum.psi_values)
        for rows in blocks:
            block = _sum_rows(terms, rows, buf[: rows.stop - rows.start])
            np.matmul(block, proj, out=out[rows])
        return out.T

    return project


def _row_blocks(n_r: int, n_nodes: int) -> list:
    """Slices of at least two rows, each about ``PROJECTION_BLOCK_BYTES`` of
    complex samples.  OpenBLAS hands a one-row product to gemv instead of
    gemm, which rounds differently from the same row of the whole array."""
    step = max(2, PROJECTION_BLOCK_BYTES // (16 * n_nodes))
    edges = [*range(0, n_r, step), n_r]
    if len(edges) > 2 and edges[-1] - edges[-2] < 2:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def sup_norm(u: FieldSample, v: FieldSample | None = None) -> float:
    """sum_k max_r |phi_u,k - phi_v,k| max |psi_k| (v = 0 without v) over the
    modes u or v holds, for fields on one grid, read from the profiles.

    With one such mode it is max |u - v| over the product grid; with several
    it is an upper bound on that maximum.  A mode a field does not hold reads
    as zero.  No nodal array is built.
    """
    phis = [dict(zip(f.modes, f.phi)) for f in (u, v) if f is not None]
    total = 0.0
    for k in sorted(set().union(*phis)):
        p = phis[0].get(k, 0.0)
        if v is not None:
            p = p - phis[1].get(k, 0.0)
        total += float(np.abs(p).max() * np.abs(u.spectrum.psi_values(k)).max())
    return total


def _check_modes(spectrum: AngularSpectrum, boundary_values: dict) -> None:
    for k in boundary_values:
        if not 1 <= k <= spectrum.count:
            raise ValueError(
                f"boundary data for mode {k}, but the spectrum has modes "
                f"1..{spectrum.count} (K = {spectrum.count})"
            )


def homogeneous_solutions(spectrum: AngularSpectrum, boundary_values: dict,
                          r: np.ndarray, side: str = "interior") -> dict:
    """Pure power-law profiles matching boundary data, zero forcing."""
    _check_modes(spectrum, boundary_values)
    N = spectrum.potential.dimension
    out = {}
    zeros = _frozen(np.zeros_like(r, dtype=complex))
    for k, val in boundary_values.items():
        exp = characteristic_exponents(N, spectrum.mu(k), k)
        out[k] = solve_radial_mode(exp, zeros, val, r, side=side)
    return out


def solve_perturbed_field(spectrum: AngularSpectrum, h: PerturbationSpec,
                          boundary_values: dict, r: np.ndarray):
    """Self-consistent solution of L u = h u by Picard iteration over the
    ``spectrum.count`` modes.

    Starts from the homogeneous field matching the boundary data, then
    alternates forcing projection and radial solves until successive fields
    agree to PICARD_TOL in the modal norm ``sup_norm``.  Each iteration
    solves only the modes with boundary data or forcing; with neither
    anywhere, the field is zero and holds every mode.  The forcing
    projection sums the values by row blocks and the norms are read from the
    profiles, so no iteration builds a whole nodal array.  Returns
    (FieldSample carrying h, info dict); a forcing that overflows raises
    NumericalFailureError.
    """
    _check_modes(spectrum, boundary_values)
    N = spectrum.potential.dimension
    side = h.side
    K = spectrum.count
    exps = {k: characteristic_exponents(N, spectrum.mu(k), k) for k in range(1, K + 1)}
    bvals = {k: complex(boundary_values.get(k, 0.0)) for k in range(1, K + 1)}
    data = {k: v for k, v in bvals.items() if v != 0}
    field = synthesize_field(spectrum, homogeneous_solutions(spectrum, data or bvals, r, side), h)
    # the forcing c r^(-2+-eps) <g u, psi_k>, with all that no iterate changes built once
    g = h.angular_factor(*spectrum.nodes)
    project = _projector(spectrum, field.angular_weights * g, len(r))
    with np.errstate(all="ignore"):
        radial = h.radial_factor(r)[None, :]
    residuals = []
    for _ in range(PICARD_MAX_ITER):
        with np.errstate(all="ignore"):
            # the projector's output, scaled in place: the next call overwrites it
            zeta = project(field)
            zeta *= radial
        if not np.isfinite(zeta).all():
            raise NumericalFailureError(f"the forcing of amplitude {h.amplitude:g} overflows")
        # modes carrying only projection roundoff are treated as unforced
        zmax = np.abs(zeta).max(axis=1)
        forced = zmax > 1e-13 * zmax.max()
        zeta[~forced] = 0
        held = [k for k in range(1, K + 1) if forced[k - 1] or k in data]
        new_field = synthesize_field(spectrum, {
            k: solve_radial_mode(exps[k], zeta[k - 1].copy(), bvals[k], r, side=side)
            for k in held or range(1, K + 1)
        }, h)
        resid = sup_norm(new_field, field)
        residuals.append(resid)
        field = new_field
        scale = max(sup_norm(field), 1e-300)
        if resid < PICARD_TOL * scale:
            break
    info = {
        "iterations": len(residuals),
        "residuals": residuals,
        "converged": bool(residuals and residuals[-1] < PICARD_TOL * scale),
    }
    return field, info
