"""Log-radial grids and quadrature helpers for singular radial integrands.

All radial integrals in the package are performed on geometric grids after the
substitution s = e^x, which turns power-law integrands into exponentials and
makes composite Simpson quadrature accurate down to the puncture.  The portion
of an integral below the lowest grid node (or above the highest, for exterior
problems) is closed by a fitted power law; ``singular_integral`` holds that
choice of end for every caller.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import OffGridError, TailFitError

#: default number of radial nodes
DEFAULT_RADIAL_NODES = 3000
#: default ratio r_min / R for interior grids
DEFAULT_RMIN_RATIO = 1e-8
#: grid nodes next to the singular end that the power-law tail is fitted on
TAIL_FIT_NODES = 30


class RadialGrid(np.ndarray):
    """A read-only radial grid that keeps log r and its ``_simpson_rule``,
    built on first read and freed with it.  A view of a grid is a grid of its
    own nodes; what numpy makes from one (r**p, zeros_like(r)) is a plain array."""

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        return arr[()] if return_scalar else arr

    def __array_function__(self, func, types, args, kwargs):
        out = super().__array_function__(func, types, args, kwargs)
        return out.view(np.ndarray) if isinstance(out, RadialGrid) else out

    @cached_property
    def log(self) -> np.ndarray:
        return np.log(self)

    @cached_property
    def simpson(self) -> list:
        return _simpson_rule(self.log)


def _grid(r) -> RadialGrid:
    """r if a read-only grid, else a grid view of r that builds all afresh."""
    keeps = isinstance(r, RadialGrid) and not r.flags.writeable
    return r if keeps else np.asarray(r).view(RadialGrid)


def log_grid(r_min: float, r_max: float, num: int = DEFAULT_RADIAL_NODES) -> RadialGrid:
    """Strictly increasing geometric grid from r_min to r_max."""
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    r = np.geomspace(r_min, r_max, num).view(RadialGrid)
    r.flags.writeable = False
    return r


def _simpson_rule(x: np.ndarray) -> list:
    """[forward, backward] Simpson weights (h21/6, 3 - h21/h31, 3 + cross +
    h21/h31, -cross), cross = h21/h31 * h21/h32, of the first interval of each
    node triple of x, for its spacings in order and reversed (of -x[::-1] swapped)."""
    if len(x) < 3:
        raise ValueError(f"Simpson quadrature needs at least 3 nodes, got {len(x)}")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    rule = []
    for h in (dx, dx[::-1]):
        h21, h32 = h[:-1], h[1:]
        h21_h31 = h21 / (h21 + h32)
        cross = h21_h31 * (h21 / h32)
        rule.append((h21 / 6, 3 - h21_h31, 3 + cross + h21_h31, -cross))
    return rule


def _cumulative_simpson(g: np.ndarray, x=None, *, rule=None) -> np.ndarray:
    """Integral of g over [x[0], x[i]] for every i, along the last axis of g,
    which may be complex: Simpson for unequal intervals (Cartwright, J. Math.
    Sci. Math. Educ. 12(2), 2017) in the operation order of scipy's
    ``cumulative_simpson(g, x=x, initial=0)``; ``rule``, if given, is
    ``_simpson_rule(x)``."""
    forward_w, backward_w = _simpson_rule(x) if rule is None else rule

    def intervals(y, w):
        # over the first interval of each node triple, by the parabola through all three
        return w[0] * (w[1] * y[..., :-2] + w[2] * y[..., 1:-1] + w[3] * y[..., 2:])

    forward = intervals(g, forward_w)
    backward = intervals(g[..., ::-1], backward_w)[..., ::-1]
    pieces = np.empty(g.shape[:-1] + (g.shape[-1] - 1,), dtype=np.result_type(g, forward_w[0]))
    pieces[..., :-1:2] = forward[..., ::2]
    pieces[..., 1::2] = backward[..., ::2]
    pieces[..., -1] = backward[..., -1]
    out = np.zeros(g.shape, dtype=pieces.dtype)
    out[..., 1:] = np.cumsum(pieces, axis=-1) + 0.0  # initial=0 turns -0.0 into 0.0
    return out


def cumulative_integral(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Integral of f over [r[0], r[i]] for every i, Simpson in log space;
    f may be complex, r must be increasing."""
    return _cumulative_simpson(f * r, rule=_grid(r).simpson)  # ds = s dx


def _tail_fit_real(r: np.ndarray, f: np.ndarray, lower: bool, scale: float) -> float:
    """Integral of the real power law f ~ C r^p fitted on the window r over
    (0, r[0]) if ``lower``, else over (r[-1], +inf); ``scale``, the magnitude
    of the whole integrand, tells when a tail is negligible."""
    window = np.abs(f)
    if window.max() <= 1e-300:
        return 0.0
    if window.min() <= 1e-14 * window.max():
        # sign changes / zeros in the window: tail is not a clean power law,
        # but then it is also negligible only if small -- refuse otherwise
        if window.max() <= 1e-9 * scale:
            return 0.0
        raise TailFitError("tail window is not sign-definite; cannot extrapolate")
    p, intercept = np.polyfit(np.log(r), np.log(window), 1)
    coef = np.sign(f[np.argmax(window)]) * np.exp(intercept)
    diverges = (p <= -1.0) if lower else (p >= -1.0)
    if diverges:
        if window.max() <= 1e-13 * scale:
            # roundoff-level residue with a meaningless fitted exponent
            return 0.0
        raise TailFitError(f"{'lower' if lower else 'upper'} tail exponent {p:.3f} "
                           "does not converge")
    if lower:
        return coef * r[0] ** (p + 1) / (p + 1)
    return -coef * r[-1] ** (p + 1) / (p + 1)


def singular_integral(f: np.ndarray, r: np.ndarray, side: str,
                      scale: float | None = None) -> np.ndarray:
    """Integral of f between the singular end and each node, Simpson in log
    space: over (0, r[i]] for side="interior", over [r[i], +inf) for
    side="exterior".  Beyond the grid a power law fitted on the TAIL_FIT_NODES
    end nodes closes it, real and imaginary parts apart; ``scale`` (default
    max|f|) sets when a tail that fits no power law is negligible.

    The exterior sum starts from the top node, so the value near r[-1] carries
    only the local error; cum[-1] - cum[i] cancels when f decays fast.
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"unknown side {side!r}")
    lower = side == "interior"
    window = slice(0, TAIL_FIT_NODES) if lower else slice(-TAIL_FIT_NODES, None)
    rw, fw = r[window], f[window]
    if scale is None:
        scale = float(np.abs(f).max())
    tail = _tail_fit_real(rw, fw.real, lower, scale)
    if np.iscomplexobj(f):
        tail = tail + 1j * _tail_fit_real(rw, fw.imag, lower, scale)
    if lower:
        return tail + cumulative_integral(f, r)
    rule = _grid(r).simpson[::-1]  # of the nodes -log(r)[::-1]
    return _cumulative_simpson((f * r)[::-1], rule=rule)[::-1] + tail


def log_derivative(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """d f / d r on a geometric grid, fourth-order stencil in x = log r."""
    x = _grid(r).log
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
        raise OffGridError(f"radius {value} outside grid [{r[0]}, {r[-1]}]")
    return int(np.argmin(np.abs(_grid(r).log - np.log(value))))
