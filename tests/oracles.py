"""Slow paths of emlab, kept as the oracles of the fast paths that replaced
them.  Each was moved here from the library with its arithmetic unchanged,
so that the tests hold the new path to the old one.  The library holds a field as its modal
profiles only; sampled fields (``Sampled``) live here, with the nodal Kelvin
transform and the nodal quadrature of the forms of ``emlab.inequalities``.
The library runs on numpy alone; scipy's harmonics, Gauss rule and subset
eigensolver, which it used before, are here.  The library holds a dipole in
the frame of its axis; its dense matrix in the scenario's frame, from the x,
y and z couplings, is here.  The fit of the frequency limit by scipy's
``curve_fit``, which the library's trust-region port reproduces, is here.
The forcing projection and the Picard loop that rebuilt their operator,
branch powers and quadrature weights on every call are here too, and so
are the grid lookups that scanned the whole grid and the tail fit that
called ``np.polyfit`` on every call.  So is the truth: the exact series of
a one-mode field under a perturbation with a constant angular factor."""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import curve_fit
from scipy.special import roots_legendre, sph_harm_y

import emlab.angular
import emlab.inequalities as ineq
from emlab import grids, modal
from emlab.angular import AngularPotential, AngularSpectrum, SphereBasis, angular_basis
from emlab.errors import OffGridError, TailFitError
from emlab.inequalities import Product
from emlab.modal import (
    FieldSample,
    ModalExponents,
    ModalSolution,
    characteristic_exponents,
    homogeneous_solutions,
    solve_radial_mode,
    sup_norm,
    synthesize_field,
)


def nearest_index(r: np.ndarray, value: float) -> int:
    """``grids.nearest_index`` as it was: an argmin of the log distance over
    the whole grid, the first node on a tie."""
    if not (r[0] <= value <= r[-1]):
        raise OffGridError(f"radius {value} outside grid [{r[0]}, {r[-1]}]")
    return int(np.argmin(np.abs(grids._grid(r).log - np.log(value))))


def tail_fit_real(r: np.ndarray, f: np.ndarray, lower: bool, scale: float) -> float:
    """``grids._tail_fit_real`` as it was: the power law fitted by
    ``np.polyfit`` on the window r of f on every call."""
    window = np.abs(f)
    if window.max() <= 1e-300:
        return 0.0
    if window.min() <= 1e-14 * window.max():
        if window.max() <= 1e-9 * scale:
            return 0.0
        raise TailFitError("tail window is not sign-definite; cannot extrapolate")
    p, intercept = np.polyfit(np.log(r), np.log(window), 1)
    coef = np.sign(f[np.argmax(window)]) * np.exp(intercept)
    diverges = (p <= -1.0) if lower else (p >= -1.0)
    if diverges:
        if window.max() <= 1e-13 * scale:
            return 0.0
        raise TailFitError(f"{'lower' if lower else 'upper'} tail exponent {p:.3f} "
                           "does not converge")
    if lower:
        return coef * r[0] ** (p + 1) / (p + 1)
    return -coef * r[-1] ** (p + 1) / (p + 1)


def couplings(basis: SphereBasis):
    """The coordinate functions x, y, z in the real harmonics of ``basis``:
    ``(rows, cols, coefficients, component, starts)`` such that the matrix
    of lam . theta has the entry lam[component] * coefficient at (row,
    col), every nonzero entry listed once, sorted by row; row i's entries
    begin at ``starts[i]``, and every row has one.

    Each couples degree l to degree l + 1 only (Edmonds 1957, ch. 4-5).
    S_lm is a multiple of P_l^|m|(cos theta) times cos(m phi) (m > 0), 1
    (m = 0) or sin(|m| phi) (m < 0).  z = cos(theta) keeps m; x and y,
    sin(theta) times cos(phi) and sin(phi), move |m| = mu to mu + 1
    through

        sin(theta) p_l^mu = sqrt((l+mu+1)(l+mu+2) / ((2l+1)(2l+3))) p_{l+1}^{mu+1}
                          - sqrt((l-mu-1)(l-mu) / ((2l-1)(2l+1))) p_{l-1}^{mu+1}

    for the normalized p_l^mu without the Condon-Shortley phase; the
    couplings from mu + 1 down to mu are the transposed entries.
    """
    T = basis.truncation
    l, m = np.array(basis.indices[: T * T]).T  # the lower degree of each pair

    def pos(l, m):
        return l * (l + 1) + m

    d = (2 * l + 1) * (2 * l + 3)
    rows, cols = [pos(l, m)], [pos(l + 1, m)]
    coef, comp = [np.sqrt(((l + 1) ** 2 - m**2) / d)], [np.full(len(l), 2)]
    l, m, d = l[m >= 0], m[m >= 0], d[m >= 0]
    # 1/sqrt(2) from the m = 0 normalization, 1/2 from the product of cosines or sines
    f = np.where(m == 0, np.sqrt(0.5), 0.5)
    up = f * np.sqrt((l + m + 1) * (l + m + 2) / d)
    down = -f * np.sqrt((l - m) * (l - m + 1) / d)
    # source (degree ls, order +-m) -- target (degree lt, order +-(m + 1))
    for ls, lt, c in ((l, l + 1, up), (l + 1, l, down)):
        for s, t, axis, sign, sine in ((1, 1, 0, 1, False), (-1, -1, 0, 1, True),
                                       (1, -1, 1, 1, False), (-1, 1, 1, -1, True)):
            k = (m < lt) & (m > 0) if sine else m < lt
            rows.append(pos(ls, s * m)[k])
            cols.append(pos(lt, t * (m + 1))[k])
            coef.append(sign * c[k])
            comp.append(np.full(k.sum(), axis))
    # each pair of degrees is listed once; the transposed entries follow
    i, j = np.concatenate(rows + cols), np.concatenate(cols + rows)
    coef, comp = np.tile(np.concatenate(coef), 2), np.tile(np.concatenate(comp), 2)
    order = np.argsort(i, kind="stable")
    i = i[order]
    starts = np.searchsorted(i, np.arange(basis.size))
    return i, j[order], coef[order], comp[order], starts


def _dipole_matrix(pot: AngularPotential, basis: SphereBasis) -> np.ndarray:
    """Real symmetric Galerkin matrix diag(l(l+1)) - lam (n_x X + n_y Y + n_z Z)
    of the dipole a = lam (n . theta) in the real harmonics of ``SphereBasis``,
    in the scenario's frame, from the closed-form ``couplings``; the dense
    oracle of ``_dipole_eigenpairs``."""
    i, j, coef, comp, _ = couplings(basis)
    M = np.diag(basis.laplace_eigs)
    M[i, j] = -(pot.dipole_strength * pot.dipole_axis)[comp] * coef
    return M


def assemble_angular_matrix(pot: AngularPotential, truncation: int):
    """Dense Galerkin matrix of the angular sesquilinear form; returns
    (M, basis).  N = 2: ``emlab.angular.assemble_angular_matrix``.  N = 3:
    the real symmetric dipole matrix of ``_dipole_matrix``, checked to be
    Hermitian and symmetrized by the library's own check."""
    if pot.dimension == 2:
        return emlab.angular.assemble_angular_matrix(pot, truncation)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    basis = angular_basis(pot.dimension, truncation)
    return emlab.angular._hermitian_part(_dipole_matrix(pot, basis)), basis


def fit_frequency_limit(r_w: np.ndarray, n_w: np.ndarray, side: str, maxfev: int = 20000):
    """(gamma, eps) of N(r) = gamma + C r^(+-eps) fitted by ``curve_fit``;
    the oracle of ``emlab.frequency._fit_frequency_limit``."""
    near = 0 if side == "interior" else -1
    gamma0 = float(n_w[near])
    if np.ptp(n_w) < 1e-11:
        return gamma0, float("nan")
    sign = 1.0 if side == "interior" else -1.0

    def model(logr, g, c, e):
        return g + c * np.exp(sign * e * logr)

    x = np.log(r_w)
    c0 = n_w[-1 if side == "interior" else 0] - gamma0
    popt, _ = curve_fit(
        model, x, n_w, p0=(gamma0, c0, 0.75),
        bounds=([-np.inf, -np.inf, 1e-3], [np.inf, np.inf, 10.0]),
        maxfev=maxfev,
    )
    return float(popt[0]), float(popt[2])


def subset_eigh(matrix: np.ndarray, count: int):
    """The lowest ``count`` eigenpairs by scipy's subset solver; the oracle
    of ``emlab.angular._eigh``."""
    return eigh(matrix, subset_by_index=(0, count - 1), check_finite=False)


def sphere_grid(basis: SphereBasis):
    """The product grid of ``SphereBasis.grid`` from scipy's Gauss rule."""
    n = 2 * basis.truncation + 2
    x, wx = roots_legendre(n)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    W = np.outer(wx, np.full(n, 2 * np.pi / n))
    return TH.ravel(), PH.ravel(), W.ravel()


def sphere_tables(basis: SphereBasis, theta, phi):
    """``(values, d/dtheta, (1/sin theta) d/dphi)`` of the real harmonics of
    ``basis`` at the nodes, one column per basis function, from scipy's
    ``sph_harm_y``; the oracle of ``SphereBasis.evaluate`` and ``gradient``."""
    tables = {}, {}, {}
    for l in range(basis.truncation + 1):
        for m in range(0, l + 1):
            v, grad = sph_harm_y(l, m, theta, phi, diff_n=1)
            for table, part in zip(tables, (v, grad[..., 0], grad[..., 1])):
                table[(l, m)] = part

    def realize(table, l, m):
        if m == 0:
            return table[(l, 0)].real
        if m > 0:
            return np.sqrt(2.0) * (-1.0) ** m * table[(l, m)].real
        return np.sqrt(2.0) * (-1.0) ** (-m) * table[(l, -m)].imag

    values, dth, dph = (np.stack([realize(t, l, m) for l, m in basis.indices], axis=-1)
                        for t in tables)
    return values, dth, dph / np.sin(theta)[..., None]


@dataclass(frozen=True)
class Sampled:
    """Complex samples of a field on a log-radial x angular product grid:
    the values and, when known, the radial and tangential derivatives."""

    dimension: int
    r: np.ndarray
    angular_nodes: tuple
    angular_weights: np.ndarray
    values: np.ndarray  # (n_r, n_nodes)
    du_dr: np.ndarray | None = None
    angular_gradient: tuple | None = None  # per-component (n_r, n_nodes)
    side: str = "interior"


def samples_of(field: FieldSample) -> Sampled:
    """The nodal arrays of a modal field, shared with it."""
    return Sampled(field.dimension, field.r, field.angular_nodes, field.angular_weights,
                   field.values, field.du_dr, field.angular_gradient, field.side)


def corrupted(samples: Sampled, noise: float, rng=None) -> Sampled:
    """Multiplicative noise on the values; drops the derivative samples."""
    factor = 1.0 + noise * np.random.default_rng(rng).standard_normal(samples.values.shape)
    return replace(samples, values=samples.values * factor, du_dr=None,
                   angular_gradient=None)


def project(spectrum: AngularSpectrum, data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(K, n_r) profiles of nodal data on the spectrum's grid on its modes,
    by the angular quadrature of ``project_onto_modes`` with these
    weights."""
    psis = np.stack([spectrum.psi_values(k) for k in range(1, spectrum.count + 1)])
    return (data @ (np.conj(psis).T * weights[:, None])).T


def from_samples(samples: Sampled, spectrum: AngularSpectrum, perturbation=None) -> FieldSample:
    """A modal field over all K = spectrum.count modes, projected from the
    samples, taken on the spectrum's grid, by angular quadrature: phi_k from
    the values, phi_k' from the du_dr samples or, without them, by log-grid
    finite differences, and zeta_k of h u, h = ``perturbation``, with its
    angular factor folded into the weights as ``perturbation_samples``
    does.  The projected profiles solve no radial equation, so their
    exponents are NaN."""
    nodes, w, r = samples.angular_nodes, samples.angular_weights, samples.r
    phi = project(spectrum, samples.values, w)
    dphi = (grids.log_derivative(phi.T, r).T if samples.du_dr is None
            else project(spectrum, samples.du_dr, w))
    zeta = np.zeros(phi.shape, dtype=complex) if perturbation is None else (
        project(spectrum, samples.values, w * perturbation.angular_factor(*nodes))
        * perturbation.radial_factor(r)[None, :])
    R = r[-1] if samples.side == "interior" else r[0]
    return synthesize_field(spectrum, {k: ModalSolution(
        ModalExponents(k, spectrum.mu(k), np.nan, np.nan), r, phi[k - 1], dphi[k - 1],
        zeta[k - 1], float(R), complex(np.nan), samples.side,
    ) for k in range(1, spectrum.count + 1)}, perturbation)


def padded(field: FieldSample) -> FieldSample:
    """The field over all K = spectrum.count modes, mode k at row k - 1 of
    its stacks and the modes it does not hold as zero rows: the oracle of a
    field that holds only the modes it carries."""
    K, n_r = field.spectrum.count, len(field.r)
    stack = {}
    for name in ("phi", "dphi", "zeta"):
        stack[name] = np.zeros((K, n_r), dtype=complex)
        stack[name][np.subtract(field.modes, 1)] = getattr(field, name)
    return replace(field, modes=tuple(range(1, K + 1)), **stack)


def kelvin_transform(samples: Sampled) -> Sampled:
    """v(x) = |x|^{2-N} u(x/|x|^2) on the inverted radial grid, sample by
    sample; the oracle of ``asymptotics.kelvin_transform``."""
    N, u, du = samples.dimension, samples.values[::-1], samples.du_dr
    t = 1.0 / samples.r[::-1]
    factor = (t ** (2 - N))[:, None]
    if du is not None:
        du = ((2 - N) * t ** (1 - N))[:, None] * u - (t ** (-N))[:, None] * du[::-1]
    ang = samples.angular_gradient
    if ang is not None:
        ang = tuple(factor * comp[::-1] for comp in ang)
    side = "exterior" if samples.side == "interior" else "interior"
    return replace(samples, r=t, values=factor * u, du_dr=du, angular_gradient=ang, side=side)


def product_samples(tf: Product) -> Sampled:
    """The samples w(r) g(theta) of a product test function."""
    return Sampled(tf.dimension, tf.r, tf.angular_nodes, tf.angular_weights,
                   np.outer(tf.w, tf.g), np.outer(tf.dw, tf.g),
                   tuple(np.outer(tf.w, d) for d in tf.dg))


def _ball_integral(s: Sampled, f: np.ndarray, radius: float) -> float:
    """int_0^radius f ds, to the grid node nearest the radius."""
    return float(grids.singular_integral(f, s.r, "interior")[ineq._ball_node(s.r, radius)])


def _sphere_mass(s: Sampled) -> np.ndarray:
    """int over the unit sphere of |u(s, .)|^2, at each grid radius s."""
    return (np.abs(s.values) ** 2) @ s.angular_weights


def quadratic_form(pot: AngularPotential, s: Sampled, r: float | None = None) -> float:
    """Q(u) over B_r, the whole grid by default:
    int_0^r s^{N-1} (int |du/dr|^2 + angular energy / s^2)."""
    energy = ineq._angular_energy(pot, s, s.values, s.angular_gradient)
    density = (np.abs(s.du_dr) ** 2) @ s.angular_weights + energy / s.r**2
    return _ball_integral(s, s.r ** (s.dimension - 1) * density, s.r[-1] if r is None else r)


def singular_mass(s: Sampled, r: float) -> float:
    """int over B_r of |u|^2 / |x|^2."""
    return _ball_integral(s, s.r ** (s.dimension - 3) * _sphere_mass(s), r)


def boundary_mass(s: Sampled, r: float) -> float:
    """int over the sphere of radius r of |u|^2 dS, nearest grid node."""
    i = grids.nearest_index(s.r, r)
    return float(s.r[i] ** (s.dimension - 1) * _sphere_mass(s)[i])


def diamagnetic_margin(pot: AngularPotential, s: Sampled) -> float:
    """min over the nodes where |u| > ZERO_CUTOFF of
    |grad u + i A u/|x||^2 - |grad |u||^2."""
    cov = ineq._covariant_angular(pot, s.angular_nodes, s.values, s.angular_gradient)
    u, m, r2 = s.values, np.abs(s.values), s.r[:, None] ** 2
    mag = np.abs(s.du_dr) ** 2 + sum(np.abs(c) ** 2 for c in cov) / r2
    with np.errstate(invalid="ignore", divide="ignore"):
        mod = (np.real(np.conj(u) * s.du_dr) / m) ** 2 + sum(
            (np.real(np.conj(u) * g) / m) ** 2 for g in s.angular_gradient) / r2
    return float((mag - mod)[m > ineq.ZERO_CUTOFF].min())


def project_onto_modes(field: FieldSample, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-mode radial profiles (K, n_r) of the field's values by angular
    quadrature, with the field's weights or ``weights`` (pass w*g to project
    g*u): the library's projection as it was, with a fresh operator on each
    call and a one-mode field's values summed by ``np.outer`` one block of
    rows at a time (``FieldSample.sum_rows``)."""
    spectrum = field.spectrum
    if weights is None:
        weights = field.angular_weights
    psis = np.stack([spectrum.psi_values(k) for k in range(1, spectrum.count + 1)])
    proj = np.conj(psis).T * weights[:, None]
    if "values" not in vars(field) and sum(p.any() for p in field.phi) == 1:
        out = np.empty((len(field.r), spectrum.count), dtype=complex)
        for rows in modal._row_blocks(len(field.r), len(weights)):
            out[rows] = field.sum_rows("phi", spectrum.psi_values, rows) @ proj
        return out.T
    return (field.values @ proj).T


def perturbation_samples(field: FieldSample) -> np.ndarray:
    """Forcing coefficients zeta_k(r_i) of h*u, h the field's perturbation,
    shape (K, n_r); the angular factor g is folded into the weights."""
    h = field.perturbation
    g = h.angular_factor(*field.angular_nodes)
    zeta = project_onto_modes(field, weights=field.angular_weights * g)
    return zeta * h.radial_factor(field.r)[None, :]


def solve_perturbed_field(spectrum: AngularSpectrum, h, boundary_values: dict, r):
    """``modal.solve_perturbed_field`` as it was, with nothing kept between
    calls: each iteration projects the forcing with ``perturbation_samples``
    above, and each radial solve builds its exponents, branch powers and
    Simpson weights afresh, on a plain array copy of the grid."""
    r = np.array(r)  # a plain array keeps no quadrature rule
    N, K = spectrum.potential.dimension, spectrum.count
    bvals = {k: complex(boundary_values.get(k, 0.0)) for k in range(1, K + 1)}
    field = synthesize_field(spectrum, homogeneous_solutions(spectrum, bvals, r, side=h.side), h)
    zero = np.zeros_like(r, dtype=complex)
    residuals = []
    for _ in range(modal.PICARD_MAX_ITER):
        with np.errstate(all="ignore"):
            zeta = perturbation_samples(field)
        zmax = np.abs(zeta).max()
        field_next = synthesize_field(spectrum, {
            k: solve_radial_mode(
                characteristic_exponents(N, spectrum.mu(k), k),
                zeta[k - 1] if np.abs(zeta[k - 1]).max() > 1e-13 * zmax else zero,
                bvals[k], r, side=h.side,
            )
            for k in range(1, K + 1)
        }, h)
        residuals.append(sup_norm(field_next, field))
        field = field_next
        scale = max(sup_norm(field), 1e-300)
        if residuals[-1] < modal.PICARD_TOL * scale:
            break
    converged = bool(residuals and residuals[-1] < modal.PICARD_TOL * scale)
    return field, {"iterations": len(residuals), "residuals": residuals, "converged": converged}


def exact_series(N: int, mu: float, c: complex, eps: float, side: str):
    """(s, a): the exponents and coefficients of the exact profile
    phi = sum_j a_j r^(s_j) of a mode with eigenvalue ``mu`` under
    h = c |x|^(-2 +- eps) with a constant angular factor, a_0 = 1.

    s_j = sigma_+ + j eps inside and sigma_- - j eps outside, the branch
    that ``modal.solve_radial_mode`` keeps, and -phi'' - (N-1)/r phi'
    + mu/r^2 phi = c r^(-2 +- eps) phi term by term gives

        a_j = -c a_(j-1) / (s_j (s_j + N - 2) - mu),

    summed until a term falls below 1e-18 (at r = 1, where the terms are
    largest on the grid of either side)."""
    exp = characteristic_exponents(N, mu)
    s0, step = ((exp.sigma_plus, eps) if side == "interior" else (exp.sigma_minus, -eps))
    s, a = [s0], [1.0 + 0j]
    while abs(a[-1]) >= 1e-18:
        s.append(s[-1] + step)
        a.append(-c * a[-1] / (s[-1] * (s[-1] + N - 2) - mu))
    return np.array(s), np.array(a)


def series_frequency(s: np.ndarray, a: np.ndarray, r: np.ndarray, side: str) -> np.ndarray:
    """N(r) of the one-mode field phi(r) psi of the series (s, a):
    r Re(phi'/phi) inside, minus that outside, where the energy is taken
    over the complement of the ball."""
    powers = np.asarray(r, dtype=float)[:, None] ** s[None, :]
    n = np.real((powers * (a * s)[None, :]).sum(axis=1) / (powers * a[None, :]).sum(axis=1))
    return n if side == "interior" else -n


def series_beta(s: np.ndarray, a: np.ndarray, b: complex, R: float) -> complex:
    """beta of the series profile matching phi(R) = b: its leading
    coefficient, the a_0 = 1 term's, after scaling by b / sum_j a_j R^(s_j)."""
    return b / complex(np.sum(a * R**s))
