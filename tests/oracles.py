"""Slow paths of emlab, kept as the oracles of the fast paths that replaced
them.  Each was moved here from the library with its arithmetic unchanged,
so that the tests hold the new path to the old one.  The library holds a field as its modal
profiles only; sampled fields (``Sampled``) live here, with the nodal Kelvin
transform and the nodal quadrature of the forms of ``emlab.inequalities``.
The library runs on numpy alone; scipy's harmonics, Gauss rule and subset
eigensolver, which it used before, are here.  The library holds a dipole in
the frame of its axis; its dense matrix in the scenario's frame, from the x,
y and z couplings, is here."""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh
from scipy.special import roots_legendre, sph_harm_y

import emlab.angular
import emlab.inequalities as ineq
from emlab import grids
from emlab.angular import AngularPotential, AngularSpectrum, SphereBasis, angular_basis
from emlab.inequalities import Product
from emlab.modal import FieldSample, ModalExponents, ModalSolution, synthesize_field


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
    by the angular quadrature of ``modal.project_onto_modes`` with these
    weights."""
    psis = np.stack([spectrum.psi_values(k) for k in range(1, spectrum.count + 1)])
    return (data @ (np.conj(psis).T * weights[:, None])).T


def from_samples(samples: Sampled, spectrum: AngularSpectrum, perturbation=None) -> FieldSample:
    """A modal field over all K = spectrum.count modes, projected from the
    samples, taken on the spectrum's grid, by angular quadrature: phi_k from
    the values, phi_k' from the du_dr samples or, without them, by log-grid
    finite differences, and zeta_k of h u, h = ``perturbation``, with its
    angular factor folded into the weights as ``modal.perturbation_samples``
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
