"""Almgren frequency analysis of sampled fields.

For a field u on a punctured ball the three quantities

    H(r) = (1/r^{N-1}) int_{dB_r} |u|^2 dS
    D(r) = (1/r^{N-2}) int_{B_r} [ |grad u + i A u/|x||^2
                                   - a |u|^2/|x|^2 - Re(h) |u|^2 ] dx
    N(r) = D(r) / H(r)

are evaluated through the modal expansion, which turns every integral into a
one dimensional radial quadrature:

    H(r) = sum_k |phi_k(r)|^2,
    int over B_r  ->  int_0^r s^{N-1} [ sum |phi_k'|^2
                      + s^-2 sum mu_k |phi_k|^2 - Re sum zeta_k conj(phi_k) ] ds.

The exterior variant integrates over the complement of B_r and its frequency
limit at infinity plays the role of the vanishing order at 0.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import curve_fit

from . import grids
from .errors import DegenerateSolutionError, NumericalFailureError, TailFitError
from .modal import FieldSample, PerturbationSpec, modal_stack

#: nodes next to each grid edge excluded from fits and residual scans
EDGE_EXCLUSION = 5


def _energy_density(mu, phi, dphi, zeta, r):
    """Radial density g(s) with int over B_r = int_0^r s^{N-1} g(s) ds."""
    g = np.sum(np.abs(dphi) ** 2, axis=0)
    g += np.sum(mu[:, None] * np.abs(phi) ** 2, axis=0) / r**2
    g -= np.real(np.sum(zeta * np.conj(phi), axis=0))
    return g


def _energy_scale(mu, H, r, N_dim) -> float:
    """Magnitude reference for the energy integrand, used so that tails made
    of pure roundoff (e.g. differentiated constants) are dropped as zero."""
    return float(np.max(r ** (N_dim - 3) * H)) * max(1.0, float(np.abs(mu).max()))


def _dense_trace(field: FieldSample, h: PerturbationSpec | None):
    """(H, D, N) on the full radial grid."""
    N_dim = field.dimension
    r = field.r
    phi, dphi, zeta = modal_stack(field, h)
    mu = field.spectrum.eigenvalues
    H = np.sum(np.abs(phi) ** 2, axis=0)
    g = _energy_density(mu, phi, dphi, zeta, r)
    f = r ** (N_dim - 1) * g
    scale = max(float(np.abs(f).max()), _energy_scale(mu, H, r, N_dim))
    D = grids.singular_integral(f, r, field.side, scale) / r ** (N_dim - 2)
    return H, D, D / np.where(H > 0, H, np.nan)


def _fit_window(field: FieldSample, radii: np.ndarray):
    """Dense-grid indices of the decade closest to the singular limit."""
    r = field.r
    if field.side == "interior":
        lo = max(r[EDGE_EXCLUSION], radii.min())
        mask = (r >= lo) & (r <= 10 * lo)
    else:
        hi = min(r[-1 - EDGE_EXCLUSION], radii.max())
        mask = (r <= hi) & (r >= hi / 10)
    idx = np.nonzero(mask)[0]
    if len(idx) < 8:
        raise NumericalFailureError("fit window contains too few grid nodes")
    return idx


def _fit_frequency_limit(r_w: np.ndarray, n_w: np.ndarray, side: str):
    """(gamma, eps) of the least-squares fit of N(r) = gamma + C r^(+-eps)
    on the fit window."""
    near = 0 if side == "interior" else -1
    gamma0 = float(n_w[near])
    if np.ptp(n_w) < 1e-11:
        return gamma0, float("nan")
    sign = 1.0 if side == "interior" else -1.0

    def model(logr, g, c, e):
        return g + c * np.exp(sign * e * logr)

    x = np.log(r_w)
    c0 = n_w[-1 if side == "interior" else 0] - gamma0
    try:
        popt, _ = curve_fit(
            model, x, n_w, p0=(gamma0, c0, 0.75),
            bounds=([-np.inf, -np.inf, 1e-3], [np.inf, np.inf, 10.0]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise NumericalFailureError(f"frequency limit fit failed: {exc}") from exc
    return float(popt[0]), float(popt[2])


@dataclass(frozen=True)
class FrequencyTrace:
    """Frequency data at requested radii and on the fit window; the singular
    limit is fitted on the window on first read of ``gamma_hat`` or
    ``eps_hat``."""

    r: np.ndarray
    H: np.ndarray
    D: np.ndarray
    N: np.ndarray
    side: str
    dense_r: np.ndarray
    dense_H: np.ndarray
    dense_D: np.ndarray
    dense_N: np.ndarray

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        buf.write("r,H,D,N\n")
        for row in zip(self.r, self.H, self.D, self.N):
            buf.write("{:.16e},{:.16e},{:.16e},{:.16e}\n".format(*row))
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @cached_property
    def _limit(self) -> tuple[float, float]:
        return _fit_frequency_limit(self.dense_r, self.dense_N, self.side)

    @property
    def gamma_hat(self) -> float:
        return self._limit[0]

    @property
    def eps_hat(self) -> float:
        return self._limit[1]

    def fit_summary(self) -> dict:
        drift = float(np.ptp(self.dense_N)) if len(self.dense_N) else float("nan")
        return {"gamma_hat": self.gamma_hat, "eps_hat": self.eps_hat, "drift": drift}


def frequency_trace(field: FieldSample, h: PerturbationSpec | None,
                    radii) -> FrequencyTrace:
    """N(r) = D(r)/H(r) at the requested radii, with the window of the
    fitted limit."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    H, D, N = _dense_trace(field, h)
    idx = np.array([grids.nearest_index(field.r, v) for v in radii])
    if np.any(H[idx] <= 0):
        raise DegenerateSolutionError("H(r) vanishes at a requested radius")
    order = np.argsort(radii)
    if field.side == "interior":
        order = order[::-1]  # stored toward the singular limit
    idx = idx[order]
    win = _fit_window(field, radii)
    bad = H[win] <= 0
    if np.any(bad):
        raise DegenerateSolutionError("H(r) vanishes inside the fit window")
    return FrequencyTrace(
        r=field.r[idx], H=H[idx], D=D[idx], N=N[idx], side=field.side,
        dense_r=field.r[win], dense_H=H[win], dense_D=D[win], dense_N=N[win],
    )


def check_height_derivative(field: FieldSample, h: PerturbationSpec | None = None) -> float:
    """Residual of the identity D(r) = r H'(r) / 2 over the resolved range.

    For exterior samples the volume integral runs over the complement of the
    ball, so the identity carries the opposite sign: D(r) = -r H'(r) / 2.
    The two decades next to the truncated grid end are excluded: there D is
    dominated by the power-law closure of the volume integral, whose model
    bias would be measured instead of the identity.
    """
    H, D, _ = _dense_trace(field, h)
    r = field.r
    dH = grids.log_derivative(H, r)
    if field.side == "interior":
        mask = (r >= 100 * r[0]) & (r <= r[-1 - EDGE_EXCLUSION])
        sign = 1.0
    else:
        mask = (r <= r[-1] / 100) & (r >= r[EDGE_EXCLUSION])
        sign = -1.0
    resid = np.abs(D - sign * 0.5 * r * dH) / (np.abs(D) + np.abs(H) + 1e-300)
    return float(resid[mask].max())


def pohozaev_residual(field: FieldSample, h: PerturbationSpec | None, r: float) -> float:
    """Normalized defect of the Pohozaev identity at radius r.

    In modal form the identity reads

        -(N-2)/2 E0(r) + (r/2) e0(r)
            = r^N sum_k |phi_k'(r)|^2 + int_0^r s^N Re sum_k zeta_k conj(phi_k') ds

    with E0 the h-free volume energy and e0 its boundary density.  The
    returned value is |LHS - RHS| over the sum of the term magnitudes.

    Exterior samples use the complement identity, where the volume integrals
    run over {|x| > r} and the boundary and flux terms flip sign:

        -(N-2)/2 E0 - (r/2) e0 = -r^N sum |phi_k'|^2 + int_r^inf ... ds.
    """
    N_dim = field.dimension
    rg = field.r
    exterior = field.side == "exterior"
    phi, dphi, zeta = modal_stack(field, h)
    mu = field.spectrum.eigenvalues
    i = grids.nearest_index(rg, r)
    ri = rg[i]
    dens = np.sum(np.abs(dphi) ** 2, axis=0) + np.sum(
        mu[:, None] * np.abs(phi) ** 2, axis=0
    ) / rg**2
    def closed_tail(f):
        # non-power-law data (e.g. noisy samples) gets no tail closure; the
        # identity defect it produces is the point of the residual
        try:
            return complex(grids.tail_integral(
                rg, f, side="upper" if exterior else "lower",
                scale=float(np.abs(f).max()))).real
        except TailFitError:
            return 0.0

    def volume_to(f, i):
        if exterior:
            return closed_tail(f) + grids.complement_cumulative(f, rg)[i]
        return closed_tail(f) + grids.cumulative_integral(f, rg)[i]

    f0 = rg ** (N_dim - 1) * dens
    E0 = volume_to(f0, i)
    e0 = f0[i]
    flux = ri**N_dim * float(np.sum(np.abs(dphi[:, i]) ** 2))
    fh = rg**N_dim * np.real(np.sum(zeta * np.conj(dphi), axis=0))
    h_term = volume_to(fh, i) if np.abs(fh).max() > 0 else 0.0
    sgn = -1.0 if exterior else 1.0
    t1 = -(N_dim - 2) / 2.0 * E0
    t2 = sgn * 0.5 * ri * e0
    defect = abs((t1 + t2) - (sgn * flux + h_term))
    H_i = float(np.sum(np.abs(phi[:, i]) ** 2))
    # floor keeps the trivial 0 = 0 case from dividing roundoff by roundoff
    scale = abs(t1) + abs(t2) + abs(flux) + abs(h_term) + 1e-10 * ri ** (N_dim - 1) * H_i
    if scale == 0:
        return 0.0
    return float(defect / scale)


def height_scaling_limit(trace: FrequencyTrace, gamma: float) -> dict:
    """Limit of r^{-2 gamma} H(r) on the fit decade, with drift diagnostics.

    Also reports the log-log slope of H, which must equal 2 gamma for the
    two-sided power bounds on H to hold.  Exterior traces use -2 gamma.
    """
    sign = 1.0 if trace.side == "interior" else -1.0
    vals = trace.dense_r ** (-2 * sign * gamma) * trace.dense_H
    mean = float(vals.mean())
    drift = float(np.abs(vals - mean).max() / abs(mean)) if mean != 0 else float("nan")
    slope = grids.fitted_slope(trace.dense_r, trace.dense_H)
    return {
        "limit": mean,
        "drift": drift,
        "slope": slope,
        "slope_defect": abs(slope - 2 * sign * gamma),
    }
