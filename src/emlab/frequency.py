"""Almgren frequency analysis of fields.

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
from math import copysign

import numpy as np

from . import grids
from .errors import DegenerateSolutionError, NumericalFailureError, TailFitError
from .modal import FieldSample

#: nodes next to each grid edge excluded from fits and residual scans
EDGE_EXCLUSION = 5


def _energy_density(mu, phi, dphi, r):
    """The h-free radial density g(s), int over B_r = int_0^r s^{N-1} g(s) ds,
    of the modes with eigenvalues ``mu``: sum_k |phi_k'|^2 + mu_k |phi_k|^2 / s^2."""
    g = np.sum(np.abs(dphi) ** 2, axis=0)
    g += np.sum(mu[:, None] * np.abs(phi) ** 2, axis=0) / r**2
    return g


def _mode_sum(modes: tuple, K: int, terms: np.ndarray) -> float:
    """Sum over all K modes of the terms of the ``modes``, the others
    zero.  numpy sums a vector pairwise, so where the zeros sit decides how
    the terms are grouped, and with them the rounding."""
    full = np.zeros(K)
    full[np.subtract(modes, 1)] = terms
    return float(np.sum(full))


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


# The limit fit is the trust-region reflective method of Branch, Coleman and
# Li (SIAM J. Sci. Comput. 21 (1999) 1) as scipy's least_squares runs it for
# curve_fit ("trf", exact trust-region solver, 2-point Jacobian, x_scale 1,
# linear loss), operation by operation and in scipy's memory layout, so that
# every fit rounds as curve_fit's did.

#: the box of the fitted parameters (gamma, C, eps)
_LB = np.array([-np.inf, -np.inf, 1e-3])
_UB = np.array([np.inf, np.inf, 10.0])
#: residual evaluations a fit may spend, Jacobians apart
_MAX_NFEV = 20000
#: the ftol, xtol and gtol of the termination tests
_TOL = 1e-8
_EPS = np.finfo(float).eps


def _jacobian(fun, x, f):
    """Forward differences of ``fun`` at ``x``, where it is ``f``."""
    h = _EPS**0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    # from a strictly feasible eps so small a step crosses a bound only by
    # its sign, so flipping it is the whole adjustment to the box
    h[(x + h < _LB) | (x + h > _UB)] *= -1
    J_t = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        J_t[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return J_t.T


def _scaling(x, g):
    """Coleman-Li scaling vector v and its derivative's sign dv: the
    distance to the bound the gradient points away from."""
    v, dv = np.ones(3), np.zeros(3)
    if g[2] < 0:
        v[2], dv[2] = _UB[2] - x[2], -1
    elif g[2] > 0:
        v[2], dv[2] = x[2] - _LB[2], 1
    return v, dv


def _step_to_bound(x, s):
    """The step t at which x + t s first meets the box, and the mask of
    the components that meet it."""
    nz = np.nonzero(s)
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[nz] = np.maximum((_LB - x)[nz] / s[nz], (_UB - x)[nz] / s[nz])
    t = np.min(steps)
    return t, (steps == t) & (s != 0)


def _to_trust_region(x, s, Delta):
    """The larger step t with |x + t s| = Delta."""
    a, b = np.dot(s, s), np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if a == 0 or c > 0:
        raise NumericalFailureError("frequency limit fit failed: a step left its trust region")
    q = -(b + copysign(np.sqrt(b * b - a * c), b))
    return max(q / a, c / q)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the model 1/2 |J p|^2 + 1/2 p.diag.p + g.p along
    p = s0 + t s, as (a, b) or, given s0, (a, b, c)."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c=0):
    """(t, value) at the minimum of a t^2 + b t + c on [lb, ub]."""
    t = [lb, ub]
    if a != 0 and lb < -0.5 * b / a < ub:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _model_value(J, g, s, diag):
    """The model of ``_quadratic_1d`` at p = s, which is a + b along s."""
    a, b = _quadratic_1d(J, g, s, diag)
    return a + b


def _norm(v):
    """norm(v) of a real vector, by numpy's own formula for it."""
    return np.sqrt(v.dot(v))


def _trust_region_step(m, terms, V, Delta, alpha):
    """(p, alpha): the trust-region step from the SVD of the augmented
    Jacobian, ``terms`` = (uf, s, s**2, s*uf, (s*uf)**2), by safeguarded
    Newton iterations on |p(alpha)| = Delta."""
    def phi_and_derivative(alpha):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf2 / denom**3) / p_norm

    uf, s, s2, suf, suf2 = terms
    full_rank = s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
    alpha_upper = _norm(suf) / Delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s2 + alpha))
    p *= Delta / _norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, theta):
    """(step, scaled step, predicted reduction): the best of the
    trust-region step, its reflection at the bound it crosses and the
    scaled gradient step, each kept strictly inside the box."""
    if np.all((x + p >= _LB) & (x + p <= _UB)):
        return p, p_h, -_model_value(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p)
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    to_tr = _to_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x + p, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    r_value = np.inf
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    p *= theta
    p_h *= theta
    p_value = _model_value(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _least_squares(fun, x):
    """The minimizer of |fun|^2 over the box from the feasible ``x``."""
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise NumericalFailureError("frequency limit fit failed: the residuals at the "
                                    "start are not finite")
    J = _jacobian(fun, x, f)
    m, nfev = f.size, 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    Delta = _norm(x / _scaling(x, g)[0]**0.5) or 1.0
    f_augmented = np.zeros(m + 3)
    J_augmented = np.empty((m + 3, 3))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling(x, g)
        g_norm = np.abs(g * v).max()
        if g_norm < _TOL:
            status = 1
        if status is not None or nfev == _MAX_NFEV:
            break
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_augmented)):
            raise NumericalFailureError("frequency limit fit failed: the Jacobian is not finite")
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        # LAPACK's own layout, in which scipy returns them: the products
        # below round differently on the transposed one
        V = np.asfortranarray(Vt).T
        uf = np.asfortranarray(U).T.dot(f_augmented)
        terms = uf, s, s**2, s * uf, (s * uf) ** 2  # read by every step from this SVD
        theta = max(0.995, 1 - g_norm)  # how far a step stays off the bound
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < _MAX_NFEV:
            p_h, alpha = _trust_region_step(m, terms, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, theta)
            x_new = x + step
            lower, upper = x_new <= _LB, x_new >= _UB
            x_new[lower] = np.nextafter(_LB[lower], _UB[lower])
            x_new[upper] = np.nextafter(_UB[upper], _LB[upper])
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            ratio = (actual_reduction / predicted_reduction if predicted_reduction > 0
                     else 1 if predicted_reduction == actual_reduction == 0 else 0)
            Delta_new = (0.25 * step_h_norm if ratio < 0.25 else Delta * 2.0
                         if ratio > 0.75 and step_h_norm > 0.95 * Delta else Delta)
            if (actual_reduction < _TOL * cost and ratio > 0.25  # ftol
                    or _norm(step) < _TOL * (_TOL + _norm(x))):  # xtol
                status = 2
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f)
            g = J.T.dot(f)
    if status is None:
        raise NumericalFailureError(
            "frequency limit fit failed: Optimal parameters not found: "
            "The maximum number of function evaluations is exceeded.")
    return x


def _fit_frequency_limit(r_w: np.ndarray, n_w: np.ndarray, side: str):
    """(gamma, eps) of the least-squares fit of N(r) = gamma + C r^(+-eps)
    on the fit window, with 1e-3 <= eps <= 10."""
    near = 0 if side == "interior" else -1
    gamma0 = float(n_w[near])
    if np.ptp(n_w) < 1e-11:
        return gamma0, float("nan")
    sign = 1.0 if side == "interior" else -1.0
    x = np.log(r_w)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(n_w))):
        raise NumericalFailureError("frequency limit fit failed: the fit window is not finite")

    def residuals(p):
        g, c, e = p
        return g + c * np.exp(sign * e * x) - n_w

    c0 = n_w[-1 if side == "interior" else 0] - gamma0
    popt = _least_squares(residuals, np.array([gamma0, c0, 0.75]))
    return float(popt[0]), float(popt[2])


@dataclass(frozen=True)
class FrequencyTrace:
    """Frequency data at requested radii, on the fit window and, for H and D,
    on the whole radial grid; the singular limit is fitted on the window on
    first read of ``gamma_hat`` or ``eps_hat``."""

    r: np.ndarray
    H: np.ndarray
    D: np.ndarray
    N: np.ndarray
    side: str
    grid_r: np.ndarray
    grid_H: np.ndarray
    grid_D: np.ndarray
    dense_r: np.ndarray
    dense_H: np.ndarray
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
        return {"gamma_hat": self.gamma_hat, "eps_hat": self.eps_hat,
                "drift": float(np.ptp(self.dense_N))}


def frequency_trace(field: FieldSample, radii) -> FrequencyTrace:
    """N(r) = D(r)/H(r) at the requested radii, with the window of the
    fitted limit."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    N_dim = field.dimension
    r = field.r
    phi, dphi, zeta = field.phi, field.dphi, field.zeta
    mu = field.spectrum.eigenvalues
    # a diverged solve overflows here; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.sum(np.abs(phi) ** 2, axis=0)
        g = _energy_density(mu[np.subtract(field.modes, 1)], phi, dphi, r)
        g -= np.real(np.sum(zeta * np.conj(phi), axis=0))  # the h u conj(u) term
        f = r ** (N_dim - 1) * g
        # a magnitude reference for the integrand, so that tails made of pure
        # roundoff (e.g. differentiated constants) are dropped as zero
        scale = max(float(np.abs(f).max()),
                    float(np.max(r ** (N_dim - 3) * H)) * max(1.0, float(np.abs(mu).max())))
        D = grids.singular_integral(f, r, field.side, scale) / r ** (N_dim - 2)
        N = D / np.where(H > 0, H, np.nan)
    idx = np.array([grids.nearest_index(field.r, v) for v in radii])
    if np.any(H[idx] <= 0):
        raise DegenerateSolutionError("H(r) vanishes at a requested radius")
    order = np.argsort(radii)
    if field.side == "interior":
        order = order[::-1]  # stored toward the singular limit
    idx = idx[order]
    win = _fit_window(field, radii)
    if not np.all(np.isfinite(H[win]) & np.isfinite(D[win]) & np.isfinite(N[win])):
        raise NumericalFailureError("H, D or N is not finite on the fit window")
    if np.any(H[win] <= 0):
        raise DegenerateSolutionError("H(r) vanishes inside the fit window")
    return FrequencyTrace(
        r=r[idx], H=H[idx], D=D[idx], N=N[idx], side=field.side,
        grid_r=r, grid_H=H, grid_D=D, dense_r=r[win], dense_H=H[win], dense_N=N[win],
    )


def check_height_derivative(trace: FrequencyTrace) -> float:
    """Residual of the identity D(r) = r H'(r) / 2 over the resolved range,
    read from the trace's H and D on the whole radial grid.

    For exterior samples the volume integral runs over the complement of the
    ball, so the identity carries the opposite sign: D(r) = -r H'(r) / 2.
    The two decades next to the truncated grid end are excluded: there D is
    dominated by the power-law closure of the volume integral, whose model
    bias would be measured instead of the identity.
    """
    H, D, r = trace.grid_H, trace.grid_D, trace.grid_r
    dH = grids.log_derivative(H, r)
    if trace.side == "interior":
        mask = (r >= 100 * r[0]) & (r <= r[-1 - EDGE_EXCLUSION])
        sign = 1.0
    else:
        mask = (r <= r[-1] / 100) & (r >= r[EDGE_EXCLUSION])
        sign = -1.0
    resid = np.abs(D - sign * 0.5 * r * dH) / (np.abs(D) + np.abs(H) + 1e-300)
    return float(resid[mask].max())


@np.errstate(over="ignore", invalid="ignore")  # r^N far from r = 1: an error, not a warning
def pohozaev_residual(field: FieldSample, r: float) -> float:
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
    phi, dphi, zeta = field.phi, field.dphi, field.zeta
    mu = field.spectrum.eigenvalues[np.subtract(field.modes, 1)]
    i = grids.nearest_index(rg, r)
    ri = rg[i]
    def volume_to(f):
        try:
            return grids.singular_integral(f, rg, field.side)[i]
        except TailFitError:
            # a tail that is no clean power law (e.g. noisy samples) gets no
            # closure: with an infinite scale it counts as negligible, and
            # the identity defect left is the point of the residual
            return grids.singular_integral(f, rg, field.side, np.inf)[i]

    f0 = rg ** (N_dim - 1) * _energy_density(mu, phi, dphi, rg)
    E0 = volume_to(f0)
    e0 = f0[i]
    K = field.spectrum.count
    flux = ri**N_dim * _mode_sum(field.modes, K, np.abs(dphi[:, i]) ** 2)
    fh = rg**N_dim * np.real(np.sum(zeta * np.conj(dphi), axis=0))
    h_term = volume_to(fh) if np.abs(fh).max() > 0 else 0.0
    sgn = -1.0 if field.side == "exterior" else 1.0
    t1 = -(N_dim - 2) / 2.0 * E0
    t2 = sgn * 0.5 * ri * e0
    defect = abs((t1 + t2) - (sgn * flux + h_term))
    H_i = _mode_sum(field.modes, K, np.abs(phi[:, i]) ** 2)
    # floor keeps the trivial 0 = 0 case from dividing roundoff by roundoff
    scale = abs(t1) + abs(t2) + abs(flux) + abs(h_term) + 1e-10 * ri ** (N_dim - 1) * H_i
    if scale == 0:
        return 0.0
    if not np.isfinite(defect / scale):
        raise NumericalFailureError(f"the Pohozaev terms at r = {ri:g} are not finite")
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
