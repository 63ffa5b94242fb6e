"""
Almgren frequency of a perturbed singular solution
==================================================

Solves L u = h u for a potential perturbed by h(x) = c |x|^(-2+eps) g(theta),
then follows the frequency N(r) = D(r)/H(r) toward the origin.  The trace
converges to the characteristic exponent of the attached angular mode at the
rate r^eps, and the derivative and Pohozaev identities hold along the way.
"""

import numpy as np

from emlab import grids
from emlab.angular import angular_spectrum, build_potential
from emlab.frequency import (
    check_height_derivative,
    frequency_trace,
    height_scaling_limit,
    pohozaev_residual,
)
from emlab.modal import PerturbationSpec, solve_perturbed_field

pot = build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})
spectrum = angular_spectrum(pot, count=8)
h = PerturbationSpec(amplitude=0.05, epsilon=0.5)
r = grids.log_grid(1e-8, 1.0, 3000)

field, info = solve_perturbed_field(spectrum, h, {1: 1.0}, r)
print(f"Picard iteration: converged = {info['converged']} "
      f"after {info['iterations']} sweeps")
print("  residuals:", ["%.1e" % v for v in info["residuals"]])

radii = np.geomspace(1e-5, 0.5, 10)
tr = frequency_trace(field, radii)  # D(r) reads h from the field
print("\n        r            N(r)")
for ri, ni in zip(tr.r, tr.N):
    print(f"  {ri:12.4e}  {ni:.12f}")

# sigma_plus for mu_1 = 0.09 in two dimensions is exactly 0.3
print(f"\nfitted limit gamma_hat = {tr.gamma_hat:.10f}   (exact 0.3)")
print(f"fitted rate  eps_hat   = {tr.eps_hat:.6f}       (exact {h.epsilon})")

scaling = height_scaling_limit(tr, 0.3)
print(f"\nH(r) ~ r^(2 gamma): log-log slope = {scaling['slope']:.8f}, "
      f"drift of r^-2gamma H = {scaling['drift']:.2e}")

print(f"D = r H'/2 residual: {check_height_derivative(tr):.2e}")
print(f"Pohozaev residual at r = 0.3: {pohozaev_residual(field, 0.3):.2e}")
