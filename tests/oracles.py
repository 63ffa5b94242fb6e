"""Slow paths of emlab, kept as the oracles of the fast paths that replaced
them.  Each was moved here from the library unchanged, so that the tests
hold the new path to the old one."""

import numpy as np

import emlab.angular
from emlab.angular import AngularPotential, SphereBasis, angular_basis


def _dipole_matrix(pot: AngularPotential, basis: SphereBasis) -> np.ndarray:
    """Real symmetric Galerkin matrix diag(l(l+1)) - lam (n_x X + n_y Y + n_z Z)
    of the dipole a = lam (n . theta) in the real harmonics of ``SphereBasis``,
    from the closed-form couplings of ``SphereBasis.couplings``; the dense
    oracle of ``_reflection_blocks``."""
    i, j, coef, comp, _ = basis.couplings()
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
