"""The pipeline against exact relations of the problem L u = h u.

Each relation maps a scenario document to a second one whose report follows
from the first's: the same values, or values scaled by a known factor.
Every report value is compared, the two documents' echo excepted:

- values the relation maps exactly must agree to roundoff, 1e-12 of their
  size (the largest deviation measured on these documents is 5.4e-14);
- the fitted frequency limit and the blow-up rate are least-squares fits
  that amplify roundoff, so they (and the checks made from them) get bounds
  of their own, set from the measured deviations (``FIT_BOUNDS``).

The documents are small (600 radial nodes, 4 modes): each relation runs on
8 documents in about half a second.
"""

import math

import pytest

from emlab import run_scenario, scenario_from_dict

CHECKS = {"frequency": True, "identities": True, "asymptotics": True, "kelvin": True}

#: (alpha, a0, amplitude, epsilon, side, boundary values) of the 2-d documents
AB_CASES = [
    (0.15, 0.0, 0.05, 0.6, "interior", {1: 1}),
    (0.25, -0.1, 0.08, 0.7, "interior", {2: 1}),
    (0.35, 0.0, 0.02, 0.8, "interior", {1: 1, 2: 0.5}),
    (0.45, 0.1, 0.05, 0.5, "interior", {1: 0.6 + 0.8j}),
    (0.2, 0.0, 0.05, 0.6, "exterior", {1: 1}),
    (0.3, -0.1, 0.03, 0.7, "exterior", {2: 1}),
    (0.4, 0.0, 0.06, 0.8, "exterior", {1: 1, 3: -0.5}),
    (0.3, 0.0, 0.0, 0.5, "interior", {1: 1}),
]
AB_IDS = [f"{side[:3]}-alpha{alpha}-c{c}" for alpha, _, c, _, side, _ in AB_CASES]

#: (strength, side, boundary values) of the 3-d dipole documents
DIPOLE_CASES = [
    (0.5, "interior", {1: 1}),
    (0.8, "interior", {2: 1}),
    (1.0, "interior", {3: 1}),
    (1.2, "interior", {1: 1, 4: 0.5}),
    (0.5, "exterior", {2: 1}),
    (0.9, "exterior", {1: 1}),
    (1.1, "exterior", {3: 1}),
    (0.7, "interior", {4: 1j}),
]


def _fit_bounds(gamma_hat: float, eps_hat: float, blowup_rate: float) -> dict:
    """Bounds of the fitted values and of the checks made from them;
    eps_rate and the blow-up check are deviations over epsilon >= 0.5."""
    return {"frequency.gamma_hat": gamma_hat, "checks.gamma_fit.value": gamma_hat,
            "frequency.eps_hat": eps_hat, "checks.eps_rate.value": 2 * eps_hat,
            "blowup_rate": blowup_rate, "checks.blowup_rate.value": 2 * blowup_rate}


#: about five times the largest deviation measured on these documents with
#: 1 and 2 BLAS threads (gamma_hat, eps_hat, blowup_rate): linear 1.3e-9,
#: 4.4e-4, 8.4e-13; gauge 1.6e-10, 7.4e-6, 2.5e-13; scaling 2.8e-9, 2.5e-4,
#: 3.6e-3.  The blow-up rate is a slope fitted to distances of about 1e-4 of
#: the profile, and under scaling its radius 1e-4 R falls midway between two
#: nodes of an even grid, where rounding picks one or the other
FIT_BOUNDS = {
    "linear": _fit_bounds(5e-9, 2e-3, 5e-12),
    "gauge": _fit_bounds(1e-9, 5e-5, 2e-12),
    "scaling": _fit_bounds(1e-8, 1e-3, 1e-2),
}


def _boundary(values: dict, R: float = 1.0, z: complex = 1) -> dict:
    """The boundary entry of a document with the data z b_k of each mode k."""
    return {"radius": R, "values": {str(k): [(z * b).real, (z * b).imag]
                                    for k, b in values.items()}}


def ab_doc(alpha, a0, c, eps, side, values, R=1.0, z=1) -> dict:
    doc = {"dimension": 2, "potential": {"kind": "aharonov_bohm", "alpha": alpha, "a0": a0},
           "side": side, "boundary": _boundary(values, R, z),
           "grid": {"nodes": 600}, "eigen_count": 4, "checks": CHECKS}
    if c:
        doc["perturbation"] = {"amplitude": c, "epsilon": eps, "side": side}
    return doc


def dipole_doc(strength, side, values, axis) -> dict:
    return {"dimension": 3, "potential": {"kind": "dipole", "strength": strength, "axis": axis},
            "side": side, "boundary": _boundary(values),
            "grid": {"nodes": 600}, "eigen_count": 4, "truncation": 8, "checks": CHECKS}


def _report(doc: dict) -> dict:
    """The report of a document without its echo and timing, its checks
    keyed by name and its beta as complex numbers."""
    report = run_scenario(scenario_from_dict(doc))
    assert report["status"] != "error", report.get("error")
    for key in ("scenario", "scenario_hash", "wall_clock"):
        del report[key]
    report["checks"] = {c["name"]: c for c in report["checks"]}
    report["profile"]["beta"] = [complex(*b) for b in report["profile"]["beta"]]
    return report


def _leaves(x, path=""):
    """(path, value) of every leaf of a report, paths joined by dots."""
    if isinstance(x, dict):
        for key, value in x.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(x, list):
        for i, value in enumerate(x):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, x


def assert_reports_match(got: dict, want: dict, bounds: dict | None = None) -> None:
    """Every leaf of ``got`` equals that of ``want``: numbers to 1e-12 of
    their size (at least 1), or to ``bounds[path]`` where it names one."""
    bounds = bounds or {}
    got, want = dict(_leaves(got)), dict(_leaves(want))
    assert got.keys() == want.keys()
    for path, w in want.items():
        g = got[path]
        if isinstance(w, (bool, str)) or w is None:
            assert g == w, path
        elif not (isinstance(w, float) and math.isnan(w) and math.isnan(g)):
            tol = bounds.get(path, 1e-12)
            assert abs(g - w) <= tol * max(1.0, abs(w)), (path, g, w)


def _scaled(report: dict, beta: complex, beta_abs: float) -> dict:
    """The report with beta multiplied by ``beta``, and the beta radius check
    and the limit of r^-2gamma H by ``beta_abs`` and its square."""
    report["profile"]["beta"] = [beta * b for b in report["profile"]["beta"]]
    report["checks"]["beta_r_independence"]["value"] *= beta_abs
    report["h_scaling"]["limit"] *= beta_abs**2
    return report


@pytest.mark.parametrize("case", AB_CASES, ids=AB_IDS)
def test_linear_in_the_boundary_data(case):
    # b -> z b multiplies u and beta by z and H by |z|^2; N and every
    # relative residual stay
    z = complex(-1.5, 2.0)
    want = _scaled(_report(ab_doc(*case)), z, abs(z))
    assert_reports_match(_report(ab_doc(*case, z=z)), want, FIT_BOUNDS["linear"])


@pytest.mark.parametrize("case", AB_CASES, ids=AB_IDS)
def test_aharonov_bohm_gauge(case):
    # alpha -> alpha + 1 is the gauge e^{i theta}: the same spectrum, the same report
    alpha, *rest = case
    assert_reports_match(_report(ab_doc(alpha + 1, *rest)), _report(ab_doc(*case)),
                         FIT_BOUNDS["gauge"])


@pytest.mark.parametrize("case", AB_CASES, ids=AB_IDS)
def test_scaling(case):
    # u_lam(x) = u(x / lam) solves the problem on the ball (or exterior) of
    # radius lam R with h_lam(x) = lam^-2 h(x / lam), i.e. c -> c lam^-+eps;
    # every radius the pipeline reads scales with R
    alpha, a0, c, eps, side, values = case
    lam = 2.0
    want = _report(ab_doc(*case))
    g = want["gamma_target"] if side == "interior" else -want["gamma_target"]
    want = _scaled(want, lam ** -g, lam ** -g)
    want["profile"]["R"] *= lam
    c_lam = c * lam ** (-eps if side == "interior" else eps)
    got = _report(ab_doc(alpha, a0, c_lam, eps, side, values, R=lam))
    assert_reports_match(got, want, FIT_BOUNDS["scaling"])


@pytest.mark.parametrize("case", DIPOLE_CASES)
def test_dipole_axis(case):
    # the dipole along xyz is the z one turned, and its spectrum is solved in
    # the axis frame: the reports agree, the Kelvin involution residual of a
    # field in several modes to roundoff since it reads the nodal values
    assert_reports_match(_report(dipole_doc(*case, axis=[1, 1, 1])),
                         _report(dipole_doc(*case, axis=[0, 0, 1])))
