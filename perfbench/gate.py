"""Output-correctness gate: every report is checked before it counts.

A scenario counts as failed when it raised, when its status is not "pass",
when an Aharonov-Bohm spectrum differs from the closed form, when a key
value differs from the reference commit's output in ``reference.json`` by more
than the roundoff bounds below, or when the checks it ran or its Picard
iteration count differ from the reference at all (so skipped work shows).
"""

from __future__ import annotations

import json
import math

from common import HERE
from workloads import case_key

REFERENCE = HERE / "reference.json"

#: (absolute, relative) bounds; see NOTES.md "Output-correctness gate" for the
#: measured 1-vs-2 BLAS-thread spread each bound is set against
BOUNDS = {
    "mu": (1e-10, 1e-10),
    "gamma_hat": (1e-8, 0.0),
    "eps_hat": (1e-5, 0.0),
    "beta": (1e-9, 1e-8),
    "min_margin": (1e-10, 1e-8),
}
#: compared exactly: the names of the checks that ran, and the solver's iterations
EXACT = ("checks", "iterations")
#: the Galerkin matrix of a constant AB potential is diagonal, so eigh
#: returns the closed form up to roundoff on entries of size T^2 = 4096
CLOSED_FORM_ATOL = 1e-9


def key_values(report: dict) -> dict:
    """The report values the gate compares against the reference."""
    out = {"status": report.get("status"),
           "checks": sorted(c["name"] for c in report.get("checks", []))}
    if "solver" in report:
        out["iterations"] = report["solver"]["iterations"]
    if "spectrum" in report:
        out["mu"] = report["spectrum"]["mu"]
    if "frequency" in report:
        out["gamma_hat"] = report["frequency"]["gamma_hat"]
        out["eps_hat"] = report["frequency"]["eps_hat"]
    if "profile" in report:
        out["beta"] = [v for pair in report["profile"]["beta"] for v in pair]
    if "margins" in report:
        out["min_margin"] = [m["min_margin"] for _, m in sorted(report["margins"].items())
                             if "min_margin" in m]
    return out


def _flat(v) -> list:
    return [float(x) for x in (v if isinstance(v, list) else [v])]


def _close(name: str, got, want) -> bool:
    atol, rtol = BOUNDS[name]
    a, b = _flat(got), _flat(want)
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if math.isnan(x) or math.isnan(y):
            if not (math.isnan(x) and math.isnan(y)):
                return False
        elif abs(x - y) > atol + rtol * abs(y):
            return False
    return True


def check_report(doc: dict, report: dict, reference: dict | None) -> list[str]:
    """Reasons the report fails the gate; empty when it passes.

    ``reference`` is the recorded entry for this document, or None when the
    reference has no entry (which is itself a failure).
    """
    from emlab import closed_form_ab_spectrum

    problems = []
    if report.get("status") != "pass":
        failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
        problems.append(f"status {report.get('status')!r} {failing or report.get('error')}")
    pot = doc["potential"]
    if pot["kind"] == "aharonov_bohm" and "spectrum" in report:
        mu = report["spectrum"]["mu"]
        exact = closed_form_ab_spectrum(pot["alpha"], pot["a0"], len(mu))
        err = max(abs(a - b) for a, b in zip(mu, exact))
        if err > CLOSED_FORM_ATOL:
            problems.append(f"spectrum differs from the closed form by {err:.2e}")
    if reference is None:
        problems.append("no reference value for this document")
        return problems
    got = key_values(report)
    for name, want in reference.items():
        if name == "status":
            continue
        if name not in got:
            problems.append(f"{name} missing from the report")
        elif not (got[name] == want if name in EXACT else _close(name, got[name], want)):
            problems.append(f"{name} {got[name]} differs from reference {want}")
    return problems


class Gate:
    """Counts attempted and failed scenarios of one run."""

    def __init__(self):
        self.reference = json.loads(REFERENCE.read_text())["cases"]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, doc: dict, outcome) -> None:
        """Gate one scenario; ``outcome`` is its report or what it raised."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            problems = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            problems = check_report(doc, outcome, self.reference.get(case_key(doc)))
        if problems:
            self.failed += 1
            self.problems.append({"key": case_key(doc), "problems": problems})
