"""
Angular spectra of singular electromagnetic potentials
======================================================

Builds two benchmark potentials, prints the first eigenvalues with their
multiplicity blocks, and checks the sharp two-dimensional magnetic Hardy
constant against its closed form.
"""

import numpy as np

from emlab.angular import angular_spectrum, build_potential
from emlab.inequalities import hardy_2d_constant_check, lambda1_from_mu1

# A thin solenoid with circulation alpha: every eigenvalue is (alpha - j)^2
# for an integer j, so the Galerkin output can be checked by eye.
ab = build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})
sp = angular_spectrum(ab, count=8)
print("Aharonov-Bohm, alpha = 0.3")
print("  eigenvalues:", np.round(sp.eigenvalues, 6))
print("  blocks (start, size):", sp.blocks)
print("  exact:", sorted((0.3 - j) ** 2 for j in range(-3, 5))[:8])

# The same machinery on the sphere: a dipole field of unit strength.  The
# ground eigenvalue dips below zero but stays above the Hardy threshold.
dip = build_potential({"kind": "dipole", "strength": 1.0, "axis": [0, 0, 1]})
sp3 = angular_spectrum(dip, count=6, truncation=16)
print("\nDipole on the sphere, strength 1")
print("  eigenvalues:", np.round(sp3.eigenvalues, 6))
print("  lambda_1 = mu_1 + ((N-2)/2)^2 =",
      lambda1_from_mu1(3, sp3.mu1()))

# In two dimensions the best Hardy constant is (dist(alpha, Z))^2.
print("\nBest 2-d magnetic Hardy constants")
for alpha in (0.1, 0.3, 0.5, 1.2, 2.0):
    pot = build_potential({"kind": "aharonov_bohm", "alpha": alpha, "a0": 0.0})
    out = hardy_2d_constant_check(angular_spectrum(pot, count=1))
    tag = " (integer circulation, inequality empty)" if out["degenerate"] else ""
    print(f"  alpha = {alpha}: mu1 = {out['mu1']:.12f}, "
          f"closed form = {out['closed_form']:.12f}{tag}")
