"""Numerical verification of the quadratic-form inequality toolkit.

The quadratic form of the operator,

    Q(u) = int [ |grad u + i A(x/|x|) u / |x||^2 - a(x/|x|) |u|^2/|x|^2 ] dx,

is evaluated in polar form on sampled test functions, and the classical
comparison statements are checked as nonnegative margins: positivity of Q,
the Hardy inequality with boundary terms, the sharp 2-d magnetic Hardy
constant, the diamagnetic inequality, and the eigenvalue comparison between
a magnetic operator and its field-free companion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grids
from .angular import (
    AngularPotential,
    CircleBasis,
    SphereBasis,
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
class TestFunction:
    """A sampled function of compact (or full-ball) support with gradients."""

    field: FieldSample
    support: float
    tag: str

    @property
    def dimension(self) -> int:
        return self.field.dimension

    def gradient_defect(self) -> float:
        """Sup-norm disagreement between du_dr samples and a finite
        difference of the values, relative to the gradient scale."""
        fd = grids.log_derivative(self.field.values, self.field.r)
        scale = float(np.abs(self.field.du_dr).max())
        if scale == 0:
            return float(np.abs(fd[5:-5]).max())
        return float(np.abs(fd - self.field.du_dr)[5:-5].max() / scale)


def _circle_nodes(degree: int = 8):
    basis = CircleBasis(2 * degree)
    t, w = basis.grid()
    return (t,), w


def _sphere_nodes(degree: int = 8):
    # the (degree+1) x (degree+1) tensor rule integrates bilinear products
    # of harmonics up to the degree exactly
    basis = SphereBasis(degree)
    theta, phi, w = basis.grid()
    return basis, (theta, phi), w


def random_test_function(dimension: int, rng, r: np.ndarray,
                         degree: int = 8, tag: str = "random") -> TestFunction:
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
        g = np.exp(1j * np.outer(t, j)) @ c
        dg = np.exp(1j * np.outer(t, j)) @ (1j * j * c)
        values = np.outer(w_r, g)
        du_dr = np.outer(dw_r, g)
        ang_grad = (np.outer(w_r, dg),)
    elif dimension == 3:
        basis, nodes, weights = _sphere_nodes(degree)
        c = disk(basis.size)
        g = basis.evaluate(*nodes) @ c
        gth, gph = basis.gradient(*nodes)
        values = np.outer(w_r, g)
        du_dr = np.outer(dw_r, g)
        ang_grad = (np.outer(w_r, gth @ c), np.outer(w_r, gph @ c))
    else:
        raise UnsupportedConfigurationError(f"no test functions for N = {dimension}")
    field = FieldSample(
        dimension=dimension, r=r, angular_nodes=nodes, angular_weights=weights,
        values=values, du_dr=du_dr, angular_gradient=ang_grad,
    )
    return TestFunction(field=field, support=support, tag=tag)


def profile_test_function(dimension: int, r: np.ndarray, radial, radial_derivative,
                          angular=None, support: float | None = None,
                          tag: str = "explicit") -> TestFunction:
    """Explicit product test function w(r) g(theta) from callables.

    ``angular`` maps the angular nodes to (g, grad components); None means
    the constant profile g = 1.
    """
    if dimension == 2:
        nodes, weights = _circle_nodes()
    else:
        _, nodes, weights = _sphere_nodes()
    n_nodes = len(nodes[0])
    w_r = np.asarray(radial(r), dtype=complex)
    dw_r = np.asarray(radial_derivative(r), dtype=complex)
    if angular is None:
        g = np.ones(n_nodes, dtype=complex)
        dg = tuple(np.zeros(n_nodes, dtype=complex) for _ in range(dimension - 1))
    else:
        g, dg = angular(*nodes)
    field = FieldSample(
        dimension=dimension, r=r, angular_nodes=nodes, angular_weights=weights,
        values=np.outer(w_r, g), du_dr=np.outer(dw_r, g),
        angular_gradient=tuple(np.outer(w_r, d) for d in dg),
    )
    return TestFunction(field=field, support=float(support or r[-1]), tag=tag)


def _covariant_angular(pot: AngularPotential, field: FieldSample):
    """Angular part grad_S u + i A u on the nodes, as component arrays."""
    if pot.dimension != field.dimension:
        raise UnsupportedConfigurationError("potential and samples disagree on N")
    if field.dimension == 2:
        alpha = pot.alpha(field.angular_nodes[0])
        return (field.angular_gradient[0] + 1j * alpha[None, :] * field.values,)
    return field.angular_gradient


def _electric_values(pot: AngularPotential, field: FieldSample) -> np.ndarray:
    if field.dimension == 2:
        return pot.electric_circle(field.angular_nodes[0])
    return pot.electric_sphere(*field.angular_nodes)


def _check_support(tf: TestFunction, r: float) -> None:
    beyond = tf.field.r > r * (1 + 1e-12)
    if not np.any(beyond):
        return
    mx = float(np.abs(tf.field.values).max())
    if mx and float(np.abs(tf.field.values[beyond]).max()) > 1e-12 * mx:
        raise ValueError(f"test function is not supported in the ball of radius {r}")


def _radial_energy_density(pot: AngularPotential, tf: TestFunction) -> np.ndarray:
    """g(s) with Q = int s^{N-1} g(s) ds."""
    field = tf.field
    w = field.angular_weights
    cov = _covariant_angular(pot, field)
    a_vals = _electric_values(pot, field)
    p_rad = (np.abs(field.du_dr) ** 2) @ w
    p_ang = sum(np.abs(c) ** 2 for c in cov) @ w
    p_ang -= (a_vals[None, :] * np.abs(field.values) ** 2) @ w
    return p_rad + p_ang / field.r**2


def quadratic_form(pot: AngularPotential, tf: TestFunction, r: float | None = None) -> float:
    """Q(u) over the ball of radius r by polar quadrature."""
    field = tf.field
    if r is None:
        r = float(field.r[-1])
    _check_support(tf, r)
    g = _radial_energy_density(pot, tf)
    f = field.r ** (field.dimension - 1) * g
    i = grids.nearest_index(field.r, min(r, field.r[-1]))
    cum = grids.cumulative_integral(f, field.r)
    tail = grids.tail_integral(field.r, f, side="lower", scale=float(np.abs(f).max()))
    return float((complex(tail).real + cum[i]).real)


def singular_mass(tf: TestFunction, r: float) -> float:
    """int over B_r of |u|^2 / |x|^2."""
    field = tf.field
    m = (np.abs(field.values) ** 2) @ field.angular_weights
    f = field.r ** (field.dimension - 3) * m
    i = grids.nearest_index(field.r, min(r, field.r[-1]))
    cum = grids.cumulative_integral(f, field.r)
    tail = grids.tail_integral(field.r, f, side="lower", scale=float(np.abs(f).max()))
    return float(complex(tail).real + cum[i])


def boundary_mass(tf: TestFunction, r: float) -> float:
    """int over the sphere of radius r of |u|^2 dS, nearest grid node."""
    field = tf.field
    i = grids.nearest_index(field.r, r)
    return float(field.r[i] ** (field.dimension - 1)
                 * (np.abs(field.values[i]) ** 2) @ field.angular_weights)


def lambda1_from_mu1(N: int, mu1: float) -> float:
    """First Hardy-weighted eigenvalue: mu1 + ((N-2)/2)^2."""
    return float(mu1 + ((N - 2) / 2.0) ** 2)


def positivity_check(N: int, mu1: float) -> dict:
    """Strict positive definiteness of the quadratic form."""
    margin = lambda1_from_mu1(N, mu1)
    return {"positive": bool(margin > 0), "margin": margin}


def mu1_of(pot: AngularPotential, count: int = 1) -> float:
    return angular_spectrum(pot, count=count).mu1()


def hardy_boundary_margin(pot: AngularPotential, tf: TestFunction, r: float,
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


def diamagnetic_margin(pot: AngularPotential, tf: TestFunction) -> float:
    """min over nodes of |grad u + i A u/|x||^2 - |grad |u||^2.

    The modulus gradient is Re(conj(u) grad u)/|u|; nodes where |u| is at
    roundoff level are excluded, mirroring the zero set in the chain rule.
    """
    field = tf.field
    cov = _covariant_angular(pot, field)
    u = field.values
    m = np.abs(u)
    mask = m > ZERO_CUTOFF
    if not np.any(mask):
        raise ValueError("test function vanishes everywhere above the cutoff")
    r2 = field.r[:, None] ** 2
    mag = np.abs(field.du_dr) ** 2 + sum(np.abs(c) ** 2 for c in cov) / r2
    with np.errstate(invalid="ignore", divide="ignore"):
        dm_r = np.real(np.conj(u) * field.du_dr) / m
        dm_ang = [np.real(np.conj(u) * g) / m for g in field.angular_gradient]
    mod = dm_r**2 + sum(d**2 for d in dm_ang) / r2
    return float((mag - mod)[mask].min())


def mu1_comparison(pot: AngularPotential) -> float:
    """mu1(A, a) - mu1(0, a), nonnegative by the diamagnetic inequality."""
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("the magnetic comparison needs N = 2")
    return mu1_of(pot) - mu1_of(pot.without_magnetic())


def hardy_2d_constant_check(pot: AngularPotential) -> dict:
    """Best 2-d magnetic Hardy constant against its closed form.

    For N = 2 and a = 0 the constant is (min over integers k of
    |k - Phi_A|)^2 with Phi_A the circulation of A.  Integer circulation is
    degenerate: the constant is 0 and the inequality is empty.
    """
    if pot.dimension != 2:
        raise UnsupportedConfigurationError("the 2-d Hardy constant needs N = 2")
    flux = circulation(pot)
    dist = abs(flux - np.round(flux))
    closed = float(dist**2)
    pot0 = replace(pot, electric=np.zeros(1, dtype=complex))
    mu = mu1_of(pot0)
    return {
        "mu1": float(mu),
        "closed_form": closed,
        "degenerate": bool(dist < 1e-9),
        "agreement": abs(float(mu) - closed),
    }


def _sweep_margin(check: str, pot: AngularPotential, tf: TestFunction,
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
        info = hardy_2d_constant_check(pot)
        hardy_const = info["closed_form"]
        if info["degenerate"]:
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
