"""
Exterior decay and the Kelvin transform
=======================================

Solves the perturbed equation on the exterior of the unit ball, reads off
the decay exponent from the frequency at infinity, and checks that the
Kelvin transform v(x) = |x|^(2-N) u(x/|x|^2) turns the exterior problem
into an interior one with conjugated frequency
N_v(t) = N_u(1/t) - (N - 2).
"""

import numpy as np

from emlab import grids
from emlab.angular import angular_spectrum, build_potential
from emlab.asymptotics import extract_coefficients, kelvin_transform
from emlab.frequency import frequency_trace
from emlab.modal import PerturbationSpec, solve_perturbed_field

pot = build_potential({"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0})
spectrum = angular_spectrum(pot, count=8)
h = PerturbationSpec(amplitude=0.05, epsilon=0.5, side="exterior")
r = grids.log_grid(1.0, 1e8, 3000)
field, info = solve_perturbed_field(spectrum, h, {1: 1.0}, r)
print("exterior Picard solve converged:", info["converged"])

tr = frequency_trace(field, h, np.geomspace(2.0, 1e5, 12))
print(f"decay exponent fit: gamma_tilde = {tr.gamma_hat:.10f} (exact 0.3)")

for R in (1.0, 2.0, 4.0):
    prof = extract_coefficients(field, 0.3, R, h)
    print(f"  R = {R}: beta_tilde = {prof.beta}")

v = kelvin_transform(field)
back = kelvin_transform(v)
inv = np.abs(back.values - field.values).max() / np.abs(field.values).max()
print(f"\ndouble Kelvin transform defect: {inv:.2e}")

# compare N at reciprocal radii; reuse the snapped grid radii of the
# exterior trace so both traces sample identical points.  Both traces are
# stored toward their singular limit, so rows pair up directly.
tr_u = frequency_trace(field, None, np.geomspace(2.0, 1e4, 8))
tr_v = frequency_trace(v, None, np.sort(1.0 / tr_u.r))
print("\n     r          N_u(r)        N_v(1/r) + (N-2)")
for ru, nu, nv in zip(tr_u.r, tr_u.N, tr_v.N):
    print(f"  {ru:10.3e}  {nu:.10f}  {nv:.10f}")
