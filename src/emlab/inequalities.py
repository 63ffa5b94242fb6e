"""Numerical verification of the quadratic-form inequality toolkit.

The quadratic form of the operator,

    Q(u) = int [ |grad u + i A(x/|x|) u / |x||^2 - a(x/|x|) |u|^2/|x|^2 ] dx,

is evaluated in polar form: for product test functions w(r) g(theta)
through angular scalars and one radial quadrature, for general sampled
fields by nodal quadrature.  The classical comparison statements are checked
as nonnegative margins: positivity of Q, the Hardy inequality with boundary
terms, the sharp 2-d magnetic Hardy constant, the diamagnetic inequality,
and the eigenvalue comparison between a magnetic operator and its field-free
companion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grids
from .angular import (
    AngularPotential,
    angular_basis,
    angular_spectrum,
    circulation,
)
from .errors import UnsupportedConfigurationError
from .modal import FieldSample

#: quadrature tolerance for inequality margins
TOL_QUAD = 1e-8

#: nodes with |u| at or below this are excluded from pointwise gradient ratios
ZERO_CUTOFF = 1e-10


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

    The forms below reduce a product through angular scalars and one radial
    quadrature.  Any other test function is a sampled ``FieldSample``,
    reduced by nodal quadrature, the oracle for the separated path.
    """

    dimension: int
    r: np.ndarray
    angular_nodes: tuple
    angular_weights: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    g: np.ndarray
    dg: tuple

    def samples(self) -> FieldSample:
        return FieldSample(
            dimension=self.dimension, r=self.r, angular_nodes=self.angular_nodes,
            angular_weights=self.angular_weights, values=np.outer(self.w, self.g),
            du_dr=np.outer(self.dw, self.g),
            angular_gradient=tuple(np.outer(self.w, d) for d in self.dg),
        )


def _circle_nodes(degree: int = 8):
    t, w = angular_basis(2, 2 * degree).grid()
    return (t,), w


def _sphere_nodes(degree: int = 8):
    # the (degree+1) x (degree+1) tensor rule integrates bilinear products
    # of harmonics up to the degree exactly
    basis = angular_basis(3, degree)
    theta, phi, w = basis.grid()
    return basis, (theta, phi), w


def random_test_function(dimension: int, rng, r: np.ndarray, degree: int = 8) -> Product:
    """Radial bump times a random angular polynomial of the given degree.

    Coefficients are drawn uniformly from the unit disk of the complex
    plane; on the sphere they weight the real harmonics up to the degree.
    """
    support = float(r[-1])
    w_r = radial_bump(r / support)
    dw_r = radial_bump_derivative(r / support) / support

    def disk(n):
        rho = np.sqrt(rng.uniform(0, 1, n))
        ang = rng.uniform(0, 2 * np.pi, n)
        return rho * np.exp(1j * ang)

    if dimension == 2:
        nodes, weights = _circle_nodes(degree)
        t = nodes[0]
        c = disk(2 * degree + 1)
        j = np.arange(-degree, degree + 1)
        modes = np.exp(1j * np.outer(t, j))
        g = modes @ c
        dg = (modes @ (1j * j * c),)
    elif dimension == 3:
        basis, nodes, weights = _sphere_nodes(degree)
        c = disk(basis.size)
        g = basis.evaluate(*nodes) @ c
        gth, gph = basis.gradient(*nodes)
        dg = (gth @ c, gph @ c)
    else:
        raise UnsupportedConfigurationError(f"no test functions for N = {dimension}")
    return Product(dimension=dimension, r=r, angular_nodes=nodes,
                   angular_weights=weights, w=w_r, dw=dw_r, g=g, dg=dg)


def profile_test_function(dimension: int, r: np.ndarray, radial, radial_derivative,
                          angular=None) -> Product | FieldSample:
    """Explicit product test function w(r) g(theta) from callables.

    ``angular`` maps the angular nodes to (g, grad components); None means
    the constant profile g = 1.  A complex radial factor gives a sampled
    test function.
    """
    if dimension == 2:
        nodes, weights = _circle_nodes()
    else:
        _, nodes, weights = _sphere_nodes()
    n_nodes = len(nodes[0])
    w_r = np.asarray(radial(r))
    dw_r = np.asarray(radial_derivative(r))
    if angular is None:
        g = np.ones(n_nodes, dtype=complex)
        dg = tuple(np.zeros(n_nodes, dtype=complex) for _ in range(dimension - 1))
    else:
        g, dg = angular(*nodes)
    product = Product(dimension=dimension, r=r, angular_nodes=nodes,
                      angular_weights=weights, w=w_r, dw=dw_r, g=g, dg=tuple(dg))
    if np.iscomplexobj(w_r) or np.iscomplexobj(dw_r):
        return product.samples()
    return product


def _check_dimension(pot: AngularPotential, tf: Product | FieldSample) -> None:
    if pot.dimension != tf.dimension:
        raise UnsupportedConfigurationError("potential and samples disagree on N")


def _covariant_angular(pot: AngularPotential, nodes: tuple, u: np.ndarray, grad: tuple):
    """Angular part grad_S u + i A u on the nodes, as component arrays;
    ``u`` and ``grad`` may carry a leading radial axis."""
    if len(nodes) == 1:
        return (grad[0] + 1j * pot.alpha(nodes[0]) * u,)
    return grad


def _electric_values(pot: AngularPotential, nodes: tuple) -> np.ndarray:
    if len(nodes) == 1:
        return pot.electric_circle(nodes[0])
    return pot.electric_sphere(*nodes)


def _sphere_mass(tf: Product | FieldSample) -> np.ndarray:
    """int over the unit sphere of |u(s, .)|^2, at each grid radius s."""
    if isinstance(tf, Product):
        return tf.w**2 * ((np.abs(tf.g) ** 2) @ tf.angular_weights)
    return (np.abs(tf.values) ** 2) @ tf.angular_weights


def _ball_integral(r: np.ndarray, f: np.ndarray, radius: float) -> float:
    """int_0^radius f ds: quadrature to the grid node nearest the radius,
    closed below r[0] by the power-law tail."""
    i = grids.nearest_index(r, min(radius, r[-1]))
    return float(grids.singular_integral(f, r, "interior", float(np.abs(f).max()))[i])


def _check_support(tf: Product | FieldSample, r: float) -> None:
    beyond = tf.r > r * (1 + 1e-12)
    if not np.any(beyond):
        return
    # sup over the angles of |u(s, .)|, at each grid radius s
    sup = (np.abs(tf.w) * np.abs(tf.g).max() if isinstance(tf, Product)
           else np.abs(tf.values).max(axis=1))
    mx = float(sup.max())
    if mx and float(sup[beyond].max()) > 1e-12 * mx:
        raise ValueError(f"test function is not supported in the ball of radius {r}")


def _angular_energy(pot: AngularPotential, nodes: tuple, weights: np.ndarray,
                    u: np.ndarray, grad: tuple) -> np.ndarray:
    """int over the unit sphere of |grad_S u + i A u|^2 - a |u|^2; ``u``
    and ``grad`` may carry a leading radial axis."""
    cov = _covariant_angular(pot, nodes, u, grad)
    energy = sum(np.abs(c) ** 2 for c in cov) @ weights
    energy -= (_electric_values(pot, nodes) * np.abs(u) ** 2) @ weights
    return energy


def _radial_energy_density(pot: AngularPotential, tf: Product | FieldSample) -> np.ndarray:
    """e(s) with Q = int s^{N-1} e(s) ds."""
    _check_dimension(pot, tf)
    w = tf.angular_weights
    if isinstance(tf, Product):
        energy = _angular_energy(pot, tf.angular_nodes, w, tf.g, tf.dg)
        return tf.dw**2 * ((np.abs(tf.g) ** 2) @ w) + tf.w**2 * energy / tf.r**2
    energy = _angular_energy(pot, tf.angular_nodes, w, tf.values, tf.angular_gradient)
    return (np.abs(tf.du_dr) ** 2) @ w + energy / tf.r**2


def quadratic_form(pot: AngularPotential, tf: Product | FieldSample,
                   r: float | None = None) -> float:
    """Q(u) over the ball of radius r by polar quadrature."""
    if r is None:
        r = float(tf.r[-1])
    _check_support(tf, r)
    f = tf.r ** (tf.dimension - 1) * _radial_energy_density(pot, tf)
    return _ball_integral(tf.r, f, r)


def singular_mass(tf: Product | FieldSample, r: float) -> float:
    """int over B_r of |u|^2 / |x|^2."""
    return _ball_integral(tf.r, tf.r ** (tf.dimension - 3) * _sphere_mass(tf), r)


def boundary_mass(tf: Product | FieldSample, r: float) -> float:
    """int over the sphere of radius r of |u|^2 dS, nearest grid node."""
    i = grids.nearest_index(tf.r, r)
    return float(tf.r[i] ** (tf.dimension - 1) * _sphere_mass(tf)[i])


def lambda1_from_mu1(N: int, mu1: float) -> float:
    """First Hardy-weighted eigenvalue: mu1 + ((N-2)/2)^2."""
    return float(mu1 + ((N - 2) / 2.0) ** 2)


def mu1_of(pot: AngularPotential, count: int = 1) -> float:
    return angular_spectrum(pot, count=count).mu1()


def hardy_boundary_margin(pot: AngularPotential, tf: Product | FieldSample, r: float,
                          mu1_value: float | None = None) -> float:
    """LHS minus RHS of the Hardy inequality with boundary terms.

        Q over B_r + (N-2)/(2r) int_{dB_r} |u|^2 dS
            >= (mu1 + ((N-2)/2)^2) int_{B_r} |u|^2/|x|^2.
    """
    N = tf.dimension
    if mu1_value is None:
        mu1_value = mu1_of(pot)
    lhs = quadratic_form(pot, tf, r) + (N - 2) / (2 * r) * boundary_mass(tf, r)
    rhs = lambda1_from_mu1(N, mu1_value) * singular_mass(tf, r)
    return float(lhs - rhs)


def diamagnetic_margin(pot: AngularPotential, tf: Product | FieldSample) -> float:
    """min over nodes of |grad u + i A u/|x||^2 - |grad |u||^2.

    The modulus gradient is Re(conj(u) grad u)/|u|; nodes where |u| is at
    roundoff level are excluded, mirroring the zero set in the chain rule.
    For a product w(r) g(theta) with real w the radial terms cancel, so the
    margin is (w^2/r^2) D(theta) with the angular defect
    D = sum_j |cov_j g|^2 - (Re(conj(g) d_j g)/|g|)^2.
    """
    _check_dimension(pot, tf)
    if isinstance(tf, Product):
        return _product_diamagnetic_margin(pot, tf)
    cov = _covariant_angular(pot, tf.angular_nodes, tf.values, tf.angular_gradient)
    u = tf.values
    m = np.abs(u)
    mask = m > ZERO_CUTOFF
    if not np.any(mask):
        raise ValueError("test function vanishes everywhere above the cutoff")
    r2 = tf.r[:, None] ** 2
    mag = np.abs(tf.du_dr) ** 2 + sum(np.abs(c) ** 2 for c in cov) / r2
    with np.errstate(invalid="ignore", divide="ignore"):
        dm_r = np.real(np.conj(u) * tf.du_dr) / m
        dm_ang = [np.real(np.conj(u) * g) / m for g in tf.angular_gradient]
    mod = dm_r**2 + sum(d**2 for d in dm_ang) / r2
    return float((mag - mod)[mask].min())


def _product_diamagnetic_margin(pot: AngularPotential, p: Product) -> float:
    cov = _covariant_angular(pot, p.angular_nodes, p.g, p.dg)
    ag = np.abs(p.g)
    with np.errstate(invalid="ignore", divide="ignore"):
        mod = sum((np.real(np.conj(p.g) * d) / ag) ** 2 for d in p.dg)
        need = ZERO_CUTOFF / ag  # |w| above this keeps |u| above the cutoff
    defect = sum(np.abs(c) ** 2 for c in cov) - mod
    # the extreme radial factor w^2/r^2 among the radii each node admits:
    # sorted by decreasing |w|, node j admits a prefix of length n[j]
    aw = np.abs(p.w)
    order = np.argsort(-aw, kind="stable")
    q = (p.w**2 / p.r**2)[order]
    n = np.searchsorted(-aw[order], -need, side="left")
    ok = n > 0
    if not np.any(ok):
        raise ValueError("test function vanishes everywhere above the cutoff")
    last = n[ok] - 1
    d = defect[ok]
    # q >= 0, so q D is least at the least q where D >= 0, the greatest where not
    q_ext = np.where(d >= 0, np.minimum.accumulate(q)[last], np.maximum.accumulate(q)[last])
    return float((q_ext * d).min())


def mu1_comparison(pot: AngularPotential) -> float:
    """mu1(A, a) - mu1(0, a), nonnegative by the diamagnetic inequality."""
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("the magnetic comparison needs N = 2")
    return mu1_of(pot) - mu1_of(pot.without_magnetic())


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


def hardy_2d_constant_check(pot: AngularPotential) -> dict:
    """Best 2-d magnetic Hardy constant: the lowest eigenvalue of the
    electric-free angular operator against its closed form."""
    closed, degenerate = _hardy_2d_closed_form(pot)
    pot0 = replace(pot, electric=np.zeros(1, dtype=complex))
    mu = mu1_of(pot0)
    return {
        "mu1": float(mu),
        "closed_form": closed,
        "degenerate": degenerate,
        "agreement": abs(float(mu) - closed),
    }


def _sweep_margin(check: str, pot: AngularPotential, tf: Product,
                  r: float, mu1_value: float, hardy_const: float) -> float:
    if check == "hardy":
        return hardy_boundary_margin(pot, tf, r, mu1_value=mu1_value)
    if check == "diamagnetic":
        return diamagnetic_margin(pot, tf)
    if check == "hardy2d":
        return quadratic_form(pot, tf, r) - hardy_const * singular_mass(tf, r)
    raise ValueError(f"unknown inequality check {check!r}")


def inequality_sweep(pot: AngularPotential, check: str, count: int = 50,
                     rng=None, r: np.ndarray | None = None,
                     tol: float = TOL_QUAD, mu1_value: float | None = None) -> dict:
    """Margin sweep over random test functions; report {name, count,
    min_margin, status}.  The Hardy sweep uses ``mu1_value`` when given,
    as ``hardy_boundary_margin`` does, and computes mu1 otherwise."""
    rng = np.random.default_rng(rng)
    if r is None:
        r = grids.log_grid(1e-6, 1.0, 2400)
    hardy_const = float("nan")
    if check == "hardy" and mu1_value is None:
        mu1_value = mu1_of(pot)
    if check == "hardy2d":
        hardy_const, degenerate = _hardy_2d_closed_form(pot)
        if degenerate:
            return {"name": check, "count": 0, "min_margin": 0.0,
                    "status": "degenerate"}
    margins = np.array([
        _sweep_margin(check, pot, random_test_function(pot.dimension, rng, r),
                      float(r[-1]), mu1_value, hardy_const)
        for _ in range(count)
    ])
    min_margin = float(margins.min())
    return {
        "name": check,
        "count": int(count),
        "min_margin": min_margin,
        "status": "pass" if min_margin >= -tol else "fail",
    }
