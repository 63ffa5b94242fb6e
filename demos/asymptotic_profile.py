"""
Leading asymptotic profile at the singularity
=============================================

Extracts the coefficients beta_i of the limiting profile
u(x) ~ |x|^gamma sum_i beta_i psi_i(x/|x|) from sphere data at a radius R
plus a volume correction.  The result does not depend on R, the rescaled
solution converges to the profile at rate lambda^eps, and the exponent gamma
dictates the regularity class at the origin.
"""

import numpy as np

from emlab import grids
from emlab.angular import angular_spectrum, build_potential
from emlab.asymptotics import (
    blowup_profile,
    extract_coefficients,
    gradient_blowup_profile,
)
from emlab.modal import PerturbationSpec, solve_perturbed_field

pot = build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})
spectrum = angular_spectrum(pot, count=8)
h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
r = grids.log_grid(1e-8, 1.0, 3000)
field, _ = solve_perturbed_field(spectrum, h, {1: 1.0}, r)

gamma = 0.3  # characteristic exponent of the attached ground mode
print("coefficient extraction at three observation radii")
for R in (1.0, 0.5, 0.25):
    prof = extract_coefficients(field, gamma, R, h)
    print(f"  R = {R:5.2f}: beta = {prof.beta}")

prof = extract_coefficients(field, gamma, 1.0, h)
print(f"\nmatched block: k0 = {prof.k0}, (j0, m) = ({prof.j0}, {prof.m})")
print("regularity at the origin:", prof.regularity)

lams = np.geomspace(1e-6, 1e-2, 12)
bp = blowup_profile(field, gamma, lams, h, prof)
gp = gradient_blowup_profile(field, gamma, lams, h, prof)
print("\nblow-up family lambda^-gamma u(lambda x) against the profile")
print("  distances:", ["%.2e" % d for d in bp["distances"]])
print(f"  fitted rate {bp['rate']:.4f} (forcing decays like r^{h.epsilon})")
print(f"  gradient family rate {gp['rate']:.4f}")
