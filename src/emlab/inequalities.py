"""Numerical verification of the quadratic-form inequality toolkit.

The quadratic form of the operator,

    Q(u) = int [ |grad u + i A(x/|x|) u / |x||^2 - a(x/|x|) |u|^2/|x|^2 ] dx,

is evaluated in polar form, for product test functions w(r) g(theta)
through angular scalars and one radial quadrature.  The classical
comparison statements are checked as nonnegative margins: positivity of Q,
the Hardy inequality with boundary terms, the sharp 2-d magnetic Hardy
constant, the diamagnetic inequality, and the eigenvalue comparison between
a magnetic operator and its field-free companion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache

import numpy as np

from . import grids
from .angular import (
    AngularPotential,
    AngularSpectrum,
    _frozen,
    angular_basis,
    angular_node_count,
    angular_spectrum,
    circulation,
)
from .errors import UnsupportedConfigurationError

#: quadrature tolerance for inequality margins
TOL_QUAD = 1e-8

#: nodes with |u| at or below this are excluded from pointwise gradient ratios
ZERO_CUTOFF = 1e-10
#: angular degree of the random and profile test functions
TEST_DEGREE = 8


def radial_bump(x: np.ndarray) -> np.ndarray:
    """C^2 profile x^2 (1 - x^2)^3 on [0, 1], zero outside.

    Vanishes quadratically at 0, which keeps the magnetic energy of every
    test function finite, and to third order at the support radius.
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= 0) & (x < 1)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = xi**2 * (1 - xi**2) ** 3
    return out


def radial_bump_derivative(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    inside = (x >= 0) & (x < 1)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = 2 * xi * (1 - xi**2) ** 2 * (1 - 4 * xi**2)
    return out


@dataclass(frozen=True)
class Product:
    """u = w(r) g(theta) with a real radial factor: w and w' on the radial
    grid, g and its tangential gradient components on the angular nodes.
    ``g`` and ``dg`` may carry a leading axis over several functions that
    share w; every form then returns one value per function.

    The forms reduce a product in separated form, from angular scalars and
    the two radial moments below, each integrated once per product; the
    products of a sweep read the moments of the shared bump, integrated once
    per dimension and grid.
    """

    dimension: int
    r: np.ndarray
    angular_nodes: tuple
    angular_weights: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    g: np.ndarray
    dg: tuple

    @cached_property
    def angular_mass(self) -> np.ndarray:
        """M = int |g|^2 over the unit sphere."""
        return (np.abs(self.g) ** 2) @ self.angular_weights

    @cached_property
    def energy_moment(self) -> np.ndarray:
        """A(s) = int_0^s t^{N-1} w'(t)^2 dt at each grid radius s."""
        return _energy_moment(self.dimension, self.r, self.dw)

    @cached_property
    def mass_moment(self) -> np.ndarray:
        """B(s) = int_0^s t^{N-3} w(t)^2 dt at each grid radius s."""
        return _mass_moment(self.dimension, self.r, self.w)


def _energy_moment(dimension: int, r: np.ndarray, dw: np.ndarray) -> np.ndarray:
    return grids.singular_integral(r ** (dimension - 1) * dw**2, r, "interior")


def _mass_moment(dimension: int, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    return grids.singular_integral(r ** (dimension - 3) * w**2, r, "interior")


@cache
def _sweep_grid() -> np.ndarray:
    """The default radial grid of a sweep, built once and kept read-only."""
    return _frozen(grids.log_grid(1e-6, 1.0, 2400))


@dataclass(frozen=True)
class _Bump:
    """The radial bump supported on a grid, w and w', with the moments of
    ``Product`` integrated on first read; every array is read-only."""

    dimension: int
    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray

    @cached_property
    def energy_moment(self) -> np.ndarray:
        return _frozen(_energy_moment(self.dimension, self.r, self.dw))

    @cached_property
    def mass_moment(self) -> np.ndarray:
        return _frozen(_mass_moment(self.dimension, self.r, self.w))


@lru_cache(maxsize=8)
def _shared_bump(dimension: int, grid: bytes) -> _Bump:
    """The bump of the float64 grid whose bytes are ``grid``, shared by
    every sweep of the dimension on that grid."""
    r = np.frombuffer(grid)
    support = float(r[-1])
    return _Bump(dimension, r, _frozen(radial_bump(r / support)),
                 _frozen(radial_bump_derivative(r / support) / support))


@dataclass(frozen=True)
class _OnBump(Product):
    """Products whose radial factor is a shared bump: they read its moments,
    integrated once per dimension and grid."""

    bump: _Bump

    @property
    def energy_moment(self) -> np.ndarray:
        return self.bump.energy_moment

    @property
    def mass_moment(self) -> np.ndarray:
        return self.bump.mass_moment


def _test_truncation(dimension: int) -> int:
    """The truncation of the basis whose grid holds the test nodes."""
    return 2 * TEST_DEGREE if dimension == 2 else TEST_DEGREE


def _circle_nodes():
    t, w = angular_basis(2, _test_truncation(2)).grid()
    return (t,), w


def _sphere_nodes():
    # the (degree+1) x (degree+1) tensor rule integrates bilinear products
    # of harmonics up to the degree exactly
    basis = angular_basis(3, _test_truncation(3))
    theta, phi, w = basis.grid()
    return basis, (theta, phi), w


@cache
def _test_table(dimension: int) -> tuple:
    """``(nodes, weights, values, gradients)``: the angular nodes of the test
    functions and the values and tangential gradients there of the functions
    their coefficients weight, e^{ijt} for |j| <= TEST_DEGREE on the circle
    and the real harmonics of the basis on the sphere; built once per
    dimension and kept read-only."""
    if dimension == 2:
        nodes, weights = _circle_nodes()
        j = np.arange(-TEST_DEGREE, TEST_DEGREE + 1)
        values = np.exp(1j * np.outer(nodes[0], j))
        return nodes, weights, _frozen(values), _frozen((values * (1j * j),))
    if dimension == 3:
        basis, nodes, weights = _sphere_nodes()
        return nodes, weights, basis.evaluate(), basis.gradient()
    raise UnsupportedConfigurationError(f"no test functions for N = {dimension}")


def sweep_batch_bytes(dimension: int, count: int) -> int:
    """Bytes of the angular arrays of a batch of ``count`` random test
    functions, known without drawing it: g and its N - 1 gradient
    components, complex, on the test nodes of each function."""
    return count * angular_node_count(dimension, _test_truncation(dimension)) * 16 * dimension


def _random_products(dimension: int, rng, r: np.ndarray, count: int) -> Product:
    """``count`` random test functions sharing the radial bump, as one
    Product whose ``g`` and ``dg`` carry a leading axis over the functions.

    The coefficients are drawn function after function, each its moduli and
    then its angles, so the batch is the same draw as ``count`` successive
    calls of ``random_test_function``.  The bump, its moments and the
    angular tables are the shared read-only ones of the dimension and grid.
    """
    nodes, weights, values, grads = _test_table(dimension)
    bump = _shared_bump(dimension, np.asarray(r, dtype=float).tobytes())
    u = rng.uniform(0, 1, (count, 2, values.shape[1]))
    c = np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
    return _OnBump(dimension=dimension, r=r, angular_nodes=nodes, angular_weights=weights,
                   w=bump.w, dw=bump.dw, g=c @ values.T, dg=tuple(c @ d.T for d in grads),
                   bump=bump)


def random_test_function(dimension: int, rng, r: np.ndarray) -> Product:
    """Radial bump times a random angular polynomial of degree TEST_DEGREE.

    Coefficients are drawn uniformly from the unit disk of the complex
    plane; on the sphere they weight the real harmonics up to the degree.
    """
    p = _random_products(dimension, rng, r, 1)
    return replace(p, g=p.g[0], dg=tuple(d[0] for d in p.dg))


def profile_test_function(dimension: int, r: np.ndarray, radial, radial_derivative,
                          angular=None) -> Product:
    """Explicit product test function w(r) g(theta) from callables.

    ``angular`` maps the angular nodes to (g, grad components); None means
    the constant profile g = 1.  The radial factor must be real.
    """
    if dimension == 2:
        nodes, weights = _circle_nodes()
    else:
        _, nodes, weights = _sphere_nodes()
    n_nodes = len(nodes[0])
    w_r = np.asarray(radial(r))
    dw_r = np.asarray(radial_derivative(r))
    if np.iscomplexobj(w_r) or np.iscomplexobj(dw_r):
        raise ValueError("the radial factor of a test function must be real")
    if angular is None:
        g = np.ones(n_nodes, dtype=complex)
        dg = tuple(np.zeros(n_nodes, dtype=complex) for _ in range(dimension - 1))
    else:
        g, dg = angular(*nodes)
    return Product(dimension=dimension, r=r, angular_nodes=nodes,
                   angular_weights=weights, w=w_r, dw=dw_r, g=g, dg=tuple(dg))


def _check_dimension(pot: AngularPotential, tf: Product) -> None:
    if pot.dimension != tf.dimension:
        raise UnsupportedConfigurationError("potential and samples disagree on N")


def _covariant_angular(pot: AngularPotential, nodes: tuple, u: np.ndarray, grad: tuple):
    """Angular part grad_S u + i A u on the nodes, as component arrays;
    ``u`` and ``grad`` may carry leading axes."""
    if len(nodes) == 1:
        return (grad[0] + 1j * pot.alpha(nodes[0]) * u,)
    return grad


def _ball_node(r: np.ndarray, radius: float) -> int:
    """The grid node nearest the radius, where int_0^radius is read."""
    return grids.nearest_index(r, min(radius, r[-1]))


def _check_support(tf: Product, r: float) -> None:
    beyond = tf.r > r * (1 + 1e-12)
    if not np.any(beyond):
        return
    # sup over the angles of |u(s, .)|, at each grid radius s
    sup = np.abs(tf.w) * np.abs(tf.g).max()
    mx = float(sup.max())
    if mx and float(sup[beyond].max()) > 1e-12 * mx:
        raise ValueError(f"test function is not supported in the ball of radius {r}")


def _angular_energy(pot: AngularPotential, tf: Product,
                    u: np.ndarray, grad: tuple) -> np.ndarray:
    """int over the unit sphere of |grad_S u + i A u|^2 - a |u|^2 for u
    and grad on the angular nodes of ``tf``, with any leading axes."""
    nodes, weights = tf.angular_nodes, tf.angular_weights
    a = pot.electric_circle(nodes[0]) if len(nodes) == 1 else pot.electric_sphere(*nodes)
    cov = _covariant_angular(pot, nodes, u, grad)
    return sum(np.abs(c) ** 2 for c in cov) @ weights - (a * np.abs(u) ** 2) @ weights


def quadratic_form(pot: AngularPotential, tf: Product,
                   r: float | None = None) -> float | np.ndarray:
    """Q(u) over the ball of radius r by polar quadrature: A M + B E, with
    E the angular energy of the product."""
    if r is None:
        r = float(tf.r[-1])
    _check_dimension(pot, tf)
    _check_support(tf, r)
    i = _ball_node(tf.r, r)
    energy = _angular_energy(pot, tf, tf.g, tf.dg)
    return float(tf.energy_moment[i]) * tf.angular_mass + float(tf.mass_moment[i]) * energy


def singular_mass(tf: Product, r: float) -> float | np.ndarray:
    """int over B_r of |u|^2 / |x|^2: B M."""
    return float(tf.mass_moment[_ball_node(tf.r, r)]) * tf.angular_mass


def boundary_mass(tf: Product, r: float) -> float | np.ndarray:
    """int over the sphere of radius r of |u|^2 dS, nearest grid node."""
    i = grids.nearest_index(tf.r, r)
    return tf.r[i] ** (tf.dimension - 1) * tf.w[i] ** 2 * tf.angular_mass


def lambda1_from_mu1(N: int, mu1: float) -> float:
    """First Hardy-weighted eigenvalue: mu1 + ((N-2)/2)^2."""
    return float(mu1 + ((N - 2) / 2.0) ** 2)


def mu1_of(pot: AngularPotential, truncation: int | None = None) -> float:
    return angular_spectrum(pot, count=1, truncation=truncation).mu1()


def hardy_boundary_margin(pot: AngularPotential, tf: Product, r: float,
                          mu1_value: float | None = None) -> float | np.ndarray:
    """LHS minus RHS of the Hardy inequality with boundary terms.

        Q over B_r + (N-2)/(2r) int_{dB_r} |u|^2 dS
            >= (mu1 + ((N-2)/2)^2) int_{B_r} |u|^2/|x|^2.
    """
    N = tf.dimension
    if mu1_value is None:
        mu1_value = mu1_of(pot)
    lhs = quadratic_form(pot, tf, r) + (N - 2) / (2 * r) * boundary_mass(tf, r)
    return lhs - lambda1_from_mu1(N, mu1_value) * singular_mass(tf, r)


def _sorted_search(a: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, keys, side="left")`` for keys of any shape,
    searched in increasing order and scattered back: each search then starts
    from where the last one ended."""
    flat = keys.ravel()
    order = np.argsort(flat)
    n = np.empty(flat.shape, dtype=np.intp)
    n[order] = np.searchsorted(a, flat[order], side="left")
    return n.reshape(keys.shape)


def diamagnetic_margin(pot: AngularPotential, tf: Product) -> float | np.ndarray:
    """min over nodes of |grad u + i A u/|x||^2 - |grad |u||^2.

    The modulus gradient is Re(conj(u) grad u)/|u|; nodes where |u| is at
    roundoff level are excluded, mirroring the zero set in the chain rule.
    For a product w(r) g(theta) with real w the radial terms cancel, so the
    margin is (w^2/r^2) D(theta) with the angular defect
    D = sum_j |cov_j g|^2 - (Re(conj(g) d_j g)/|g|)^2.
    """
    _check_dimension(pot, tf)
    cov = _covariant_angular(pot, tf.angular_nodes, tf.g, tf.dg)
    ag = np.abs(tf.g)
    with np.errstate(invalid="ignore", divide="ignore"):
        mod = sum((np.real(np.conj(tf.g) * d) / ag) ** 2 for d in tf.dg)
        need = ZERO_CUTOFF / ag  # |w| above this keeps |u| above the cutoff
    defect = sum(np.abs(c) ** 2 for c in cov) - mod
    # the extreme radial factor w^2/r^2 among the radii each node admits:
    # sorted by decreasing |w|, node j admits a prefix of length n[j]
    aw = np.abs(tf.w)
    order = np.argsort(-aw, kind="stable")
    q = (tf.w**2 / tf.r**2)[order]
    n = _sorted_search(-aw[order], -need)
    ok = n > 0
    if not np.all(np.any(ok, axis=-1)):
        raise ValueError("test function vanishes everywhere above the cutoff")
    last = np.maximum(n - 1, 0)
    # q >= 0, so q D is least at the least q where D >= 0, the greatest where not
    q_ext = np.where(defect >= 0, np.minimum.accumulate(q)[last],
                     np.maximum.accumulate(q)[last])
    return np.where(ok, q_ext * defect, np.inf).min(axis=-1)


def mu1_comparison(spectrum: AngularSpectrum) -> float:
    """mu1(A, a) - mu1(0, a), nonnegative by the diamagnetic inequality:
    the spectrum's mu1 against that of its potential without A, solved at
    the spectrum's truncation."""
    pot = spectrum.potential
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("the magnetic comparison needs N = 2")
    return spectrum.mu1() - mu1_of(pot.without_magnetic(), truncation=spectrum.truncation)


def _hardy_2d_closed_form(pot: AngularPotential) -> tuple[float, bool]:
    """(constant, degenerate) of the best 2-d magnetic Hardy inequality.

    For N = 2 and a = 0 the constant is (min over integers k of
    |k - Phi_A|)^2 with Phi_A the circulation of A.  Integer circulation is
    degenerate: the constant is 0 and the inequality is empty.
    """
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("the 2-d Hardy constant needs N = 2")
    flux = circulation(pot)
    dist = abs(flux - np.round(flux))
    return float(dist**2), bool(dist < 1e-9)


def hardy_2d_constant_check(spectrum: AngularSpectrum) -> dict:
    """Best 2-d magnetic Hardy constant: the lowest eigenvalue of the
    electric-free angular operator at the spectrum's truncation against its
    closed form.

    When the electric part of the spectrum's potential is identically zero
    that operator is the spectrum's own, and its mu1 is used."""
    pot = spectrum.potential
    closed, degenerate = _hardy_2d_closed_form(pot)
    if not np.any(pot.electric):
        mu = spectrum.mu1()
    else:
        mu = mu1_of(replace(pot, electric=np.zeros(1, dtype=complex)),
                    truncation=spectrum.truncation)
    return {
        "mu1": float(mu),
        "closed_form": closed,
        "degenerate": degenerate,
        "agreement": abs(float(mu) - closed),
    }


def inequality_sweep(pot: AngularPotential, check: str, count: int = 50,
                     rng=None, r: np.ndarray | None = None,
                     tol: float = TOL_QUAD, mu1_value: float | None = None) -> dict:
    """Margin sweep over random test functions; report {name, count,
    min_margin, status}.  The functions are drawn as one batch and reduced
    by the public forms; the Hardy sweep passes ``mu1_value`` on to
    ``hardy_boundary_margin``."""
    if check not in ("hardy", "diamagnetic", "hardy2d"):
        raise ValueError(f"unknown inequality check {check!r}")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    rng = np.random.default_rng(rng)
    if r is None:
        r = _sweep_grid()
    if check == "hardy2d":
        hardy_const, degenerate = _hardy_2d_closed_form(pot)
        if degenerate:
            return {"name": check, "count": 0, "min_margin": 0.0,
                    "status": "degenerate"}
    batch, radius = _random_products(pot.dimension, rng, r, count), float(r[-1])
    if check == "hardy":
        margins = hardy_boundary_margin(pot, batch, radius, mu1_value)
    elif check == "hardy2d":
        margins = quadratic_form(pot, batch, radius) - hardy_const * singular_mass(batch, radius)
    else:
        margins = diamagnetic_margin(pot, batch)
    min_margin = float(margins.min())
    return {
        "name": check,
        "count": int(count),
        "min_margin": min_margin,
        "status": "pass" if min_margin >= -tol else "fail",
    }
