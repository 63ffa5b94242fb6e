"""Log-radial grids and quadrature helpers for singular radial integrands.

All radial integrals in the package are performed on geometric grids after the
substitution s = e^x, which turns power-law integrands into exponentials and
makes composite Simpson quadrature accurate down to the puncture.  The portion
of an integral below the lowest grid node (or above the highest, for exterior
problems) is closed by a fitted power law; ``singular_integral`` holds that
choice of end for every caller.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import TailFitError

#: default number of radial nodes
DEFAULT_RADIAL_NODES = 3000
#: default ratio r_min / R for interior grids
DEFAULT_RMIN_RATIO = 1e-8


def log_grid(r_min: float, r_max: float, num: int = DEFAULT_RADIAL_NODES) -> np.ndarray:
    """Strictly increasing geometric grid from r_min to r_max."""
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    return np.geomspace(r_min, r_max, num)


def cumulative_integral(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cumulative integral of f over [r[0], r[i]], Simpson in log space.

    f may be complex; r must be a log grid.  Returns an array of the same
    length as r with value 0 at the first node.
    """
    x = np.log(r)
    g = f * r  # ds = s dx
    if np.iscomplexobj(g):
        return cumulative_simpson(g.real, x=x, initial=0.0) + 1j * cumulative_simpson(
            g.imag, x=x, initial=0.0
        )
    return cumulative_simpson(g, x=x, initial=0.0)


def complement_cumulative(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Integral of f over [r[i], r[-1]] for every i, Simpson in log space.

    Accumulated starting from the top node, so the value near r[-1] carries
    only the local quadrature error.  Computing cum[-1] - cum[i] instead
    cancels catastrophically when the integrand decays fast.
    """
    x = np.log(r)
    g = (f * r)[::-1]
    xr = -x[::-1]
    if np.iscomplexobj(g):
        out = cumulative_simpson(g.real, x=xr, initial=0.0) + 1j * cumulative_simpson(
            g.imag, x=xr, initial=0.0
        )
    else:
        out = cumulative_simpson(g, x=xr, initial=0.0)
    return out[::-1]


def _fit_power(r: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Fit f ~ C r^p on a window of same-sign real data; returns (C, p)."""
    slope, intercept = np.polyfit(np.log(r), np.log(np.abs(f)), 1)
    sign = np.sign(f[np.argmax(np.abs(f))])
    return sign * np.exp(intercept), slope


def _tail_fit_real(
    r: np.ndarray, f: np.ndarray, lower: bool, scale: float
) -> float:
    """Closed-form tail integral of a real sampled power law.

    ``lower``: integral over (0, r[0]); otherwise over (r[-1], +inf).
    ``scale``: magnitude of the full array, used to detect a negligible tail.
    """
    window = np.abs(f)
    if window.max() <= 1e-300:
        return 0.0
    if window.min() <= 1e-14 * window.max():
        # sign changes / zeros in the window: tail is not a clean power law,
        # but then it is also negligible only if small -- refuse otherwise
        if window.max() <= 1e-9 * scale:
            return 0.0
        raise TailFitError("tail window is not sign-definite; cannot extrapolate")
    coef, p = _fit_power(r, f)
    diverges = (p <= -1.0) if lower else (p >= -1.0)
    if diverges:
        if window.max() <= 1e-13 * scale:
            # roundoff-level residue with a meaningless fitted exponent
            return 0.0
        raise TailFitError(
            f"{'lower' if lower else 'upper'} tail exponent {p:.3f} does not converge"
        )
    if lower:
        return coef * r[0] ** (p + 1) / (p + 1)
    return -coef * r[-1] ** (p + 1) / (p + 1)


def tail_integral(
    r: np.ndarray,
    f: np.ndarray,
    side: str = "lower",
    n_fit: int = 30,
    scale: float | None = None,
) -> complex | float:
    """Estimate the missing tail of ``∫ f ds`` beyond the grid.

    side="lower": integral over (0, r[0]) from a power-law fit of the first
    n_fit nodes.  side="upper": integral over (r[-1], +inf) from the last
    n_fit nodes.  Complex integrands are handled componentwise.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown side {side!r}")
    lower = side == "lower"
    sl = slice(0, n_fit) if lower else slice(-n_fit, None)
    rw, fw = r[sl], f[sl]
    if scale is None:
        scale = float(np.max(np.abs(f))) if len(f) else 0.0
    if np.iscomplexobj(f):
        return _tail_fit_real(rw, fw.real, lower, scale) + 1j * _tail_fit_real(
            rw, fw.imag, lower, scale
        )
    return _tail_fit_real(rw, fw, lower, scale)


def singular_integral(f: np.ndarray, r: np.ndarray, side: str,
                      scale: float | None = None) -> np.ndarray:
    """Integral of f between the singular end and each node, closed beyond
    the grid by the power-law tail: over (0, r[i]] for side="interior",
    over [r[i], +inf) for side="exterior".  ``scale`` is passed to
    ``tail_integral``.
    """
    if side == "interior":
        return tail_integral(r, f, side="lower", scale=scale) + cumulative_integral(f, r)
    if side == "exterior":
        return complement_cumulative(f, r) + tail_integral(r, f, side="upper", scale=scale)
    raise ValueError(f"unknown side {side!r}")


def log_derivative(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """d f / d r on a geometric grid, fourth-order stencil in x = log r."""
    x = np.log(r)
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-8):
        raise ValueError("log_derivative requires a geometric grid")
    df = np.empty_like(f)
    # interior: five-point fourth-order centered stencil
    df[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    # one-sided fourth-order stencils at the edges
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    df[0] = np.dot(c, f[:5]) / h
    df[1] = np.dot(c, f[1:6]) / h
    df[-1] = -np.dot(c, f[-1:-6:-1]) / h
    df[-2] = -np.dot(c, f[-2:-7:-1]) / h
    shape = (len(r),) + (1,) * (f.ndim - 1)
    return df / r.reshape(shape)


def fitted_slope(r: np.ndarray, f: np.ndarray) -> float:
    """Log-log slope of positive data f over the grid r."""
    return float(np.polyfit(np.log(r), np.log(f), 1)[0])


def nearest_index(r: np.ndarray, value: float) -> int:
    """Index of the grid node closest to value (in log distance)."""
    if not (r[0] <= value <= r[-1]):
        raise ValueError(f"radius {value} outside grid [{r[0]}, {r[-1]}]")
    return int(np.argmin(np.abs(np.log(r) - np.log(value))))
