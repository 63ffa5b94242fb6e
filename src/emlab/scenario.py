"""Configuration-driven pipeline: scenario files in, JSON reports out.

A scenario JSON describes one singular problem (potential, perturbation,
boundary data, grid, requested radii and checks).  ``Pipeline`` defines the
chain spectrum -> modal solve -> frequency trace -> asymptotic profile ->
Kelvin picture once; ``run_scenario`` and ``verify_suite`` run check blocks
on it and return a report where every asserted quantity carries
{value, tolerance, pass}.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, grids
from .angular import (
    DEFAULT_TRUNCATION_CIRCLE,
    DEFAULT_TRUNCATION_SPHERE,
    angular_node_count,
    angular_spectrum,
    basis_table_bytes,
    build_potential,
    dense_matrix_bytes,
)
from .asymptotics import (
    blowup_profile,
    classify_regularity,
    extract_coefficients,
    kelvin_transform,
)
from .errors import EmlabError, ScenarioValidationError
from .frequency import (
    check_height_derivative,
    frequency_trace,
    height_scaling_limit,
    pohozaev_residual,
)
from .inequalities import (
    hardy_2d_constant_check,
    inequality_sweep,
    mu1_comparison,
    sweep_batch_bytes,
)
from .modal import (
    PerturbationSpec,
    characteristic_exponents,
    homogeneous_solutions,
    solve_perturbed_field,
    sup_norm,
    synthesize_field,
)

SCHEMA_VERSION = 1

#: acceptance thresholds, each multiplied by --tol-scale; the picard_converged
#: check is the exception, a 0/1 flag held at 0.5
TOLERANCES = {
    "gamma_fit": 1e-5,
    "eps_rate": 0.1,
    "height_derivative": 1e-6,
    "pohozaev": 1e-6,
    "h_scaling_slope": 1e-3,
    "h_scaling_drift": 0.01,
    "beta_r_independence": 1e-8,
    "beta_unit": 1e-10,
    "blowup_rate": 0.1,
    "kelvin_conjugacy": 1e-8,
    "kelvin_involution": 1e-12,
    "margin": 1e-8,
    "mu1_comparison": 1e-10,
    "hardy2d_agreement": 1e-9,
}

DEFAULT_CHECKS = {
    "frequency": True,
    "identities": True,
    "asymptotics": True,
    "kelvin": False,
    "inequalities": False,
}

#: run toggle -> the check blocks it enables
TOGGLE_BLOCKS = {
    "frequency": ("solve", "frequency"),
    "identities": ("solve", "height_derivative", "pohozaev"),
    "asymptotics": ("solve", "asymptotics"),
    "kelvin": ("solve", "kelvin"),
    "inequalities": ("hardy", "diamagnetic", "hardy2d", "mu1", "hardy2d_constant"),
}

#: the blocks ``verify`` may name, in the order the pipeline runs them
VERIFY_CHECKS = ("height_derivative", "pohozaev", "hardy", "diamagnetic",
                 "hardy2d", "mu1")

#: bytes of one nodal array of a field, n_r x n_nodes complex samples on its
#: radial x angular grid, that a scenario may ask for; the 9000 x 34^2 grid
#: of a T = 16 dipole run takes 159 MiB.  The largest dense matrix of the
#: angular spectrum, the tables of a sphere basis and the angular arrays of
#: a sweep's batch are held to the same budget.
NODAL_ARRAY_BUDGET = 256 << 20


@dataclass(frozen=True)
class Scenario:
    dimension: int
    potential: dict
    perturbation: dict | None
    side: str
    boundary_radius: float
    boundary_values: dict  # mode index -> complex
    grid_nodes: int
    rmin_ratio: float
    exterior_span: float
    eigen_count: int
    truncation: int | None
    radii: np.ndarray
    checks: dict
    sweep_count: int
    seed: int

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "potential": self.potential,
            "perturbation": self.perturbation,
            "side": self.side,
            "boundary": {
                "radius": self.boundary_radius,
                "values": {
                    str(k): [v.real, v.imag] for k, v in
                    sorted(self.boundary_values.items())
                },
            },
            "grid": {
                "nodes": self.grid_nodes,
                "rmin_ratio": self.rmin_ratio,
                "exterior_span": self.exterior_span,
            },
            "eigen_count": self.eigen_count,
            "truncation": self.truncation,
            "radii": [float(v) for v in self.radii],
            "checks": dict(sorted(self.checks.items())),
            "sweep_count": self.sweep_count,
            "seed": self.seed,
        }


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def _validate(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioValidationError(message)


def _number(value, what: str, kind=float):
    """``kind(value)``, or a validation error naming the entry; an integer
    entry takes no fractional part."""
    try:
        number = kind(value)
    except (TypeError, ValueError, IndexError, OverflowError):
        raise ScenarioValidationError(f"{what} must be a number, got {value!r}") from None
    _validate(kind is not int or not isinstance(value, float) or value.is_integer(),
              f"{what} must be an integer, got {value!r}")
    return number


def _check_json_types(doc: dict) -> None:
    """A JSON boolean is a check toggle and nothing else: no number, list
    or string entry takes one.  A JSON string is a name, which only
    potential.kind, side and perturbation.side take: a number given as a
    string is rejected, not read."""
    stack = [(v, k) for k, v in doc.items() if k != "checks"]
    while stack:
        value, what = stack.pop()
        _validate(not isinstance(value, bool), f"{what} must not be a boolean")
        _validate(not isinstance(value, str)
                  or what in ("potential.kind", "side", "perturbation.side"),
                  f"{what} must not be a string, got {value!r}")
        if isinstance(value, dict):
            stack += [(v, f"{what}.{k}") for k, v in value.items()]
        elif isinstance(value, list):
            stack += [(v, f"{what}[{i}]") for i, v in enumerate(value)]


def _object(value, what: str) -> dict:
    """``value``, or a validation error naming the entry if it is not a
    JSON object."""
    _validate(isinstance(value, dict), f"{what} must be a JSON object, got {value!r}")
    return value


def _perturbation(desc: dict) -> PerturbationSpec:
    """The spec of a perturbation entry; its errors name the entry."""
    amplitude = _number(desc.get("amplitude", 0.0), "perturbation.amplitude", _as_complex)
    epsilon = _number(desc.get("epsilon", 0.5), "perturbation.epsilon")
    try:
        return PerturbationSpec(amplitude=amplitude, epsilon=epsilon,
                                angular=desc.get("angular"), side=desc.get("side", "interior"))
    except ValueError as exc:
        raise ScenarioValidationError(f"perturbation.{exc}") from None


def validate_options(tol_scale: float = 1.0, seed: int | None = None,
                     out_dir=None) -> None:
    """Reject run options that fit no scenario: a ``tol_scale`` that is not
    finite and positive, a negative ``seed``, or an ``out_dir`` that is, or
    lies under, something other than a directory."""
    _validate(np.isfinite(tol_scale) and tol_scale > 0,
              f"tol_scale must be finite and positive, got {tol_scale!r}")
    _validate(seed is None or seed >= 0, f"seed must be >= 0, got {seed!r}")
    if out_dir is not None:
        out = Path(out_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        _validate(existing.is_dir(), f"output directory {str(out)!r}: "
                                     f"{str(existing)!r} is not a directory")


def _radial_bounds(side: str, R: float, rmin_ratio: float, span: float):
    """Ends of the radial grid: (R rmin_ratio, R) inside, (R, R span) outside."""
    return (R * rmin_ratio, R) if side == "interior" else (R, R * span)


def _asymptotics_radii(side: str, R: float):
    """``(second, blowup)``: the second radius the profile is extracted at and
    the blow-up scales of a perturbed field, R/2 and 1e-4 R..1e-2 R inside,
    2R and 1e2 R..1e4 R outside."""
    if side == "interior":
        return R / 2, np.geomspace(1e-4 * R, 1e-2 * R, 8)
    return 2 * R, np.geomspace(1e2 * R, 1e4 * R, 8)


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document and fill defaults."""
    _validate(isinstance(doc, dict), "scenario must be a JSON object")
    _check_json_types(doc)
    pot_desc = doc.get("potential")
    _validate(isinstance(pot_desc, dict), "scenario needs a potential descriptor")
    dimension = _number(doc.get("dimension", 3 if pot_desc.get("kind") == "dipole" else 2),
                        "dimension", int)
    if pot_desc.get("kind") == "dipole":
        _validate(dimension == 3, "dipole potentials require dimension 3")
    else:
        _validate(dimension == 2, f"potential kind {pot_desc.get('kind')!r} requires dimension 2")
    for key in ("alpha", "a0", "strength", "lam"):
        if key in pot_desc:
            _validate(np.isfinite(_number(pot_desc[key], f"potential.{key}")),
                      f"potential.{key} must be finite")
    try:
        pot = build_potential(pot_desc)
    except (TypeError, ValueError, OverflowError, EmlabError) as exc:
        raise ScenarioValidationError(f"potential: {exc}") from None

    pert = doc.get("perturbation")
    side = doc.get("side", "interior")
    _validate(side in ("interior", "exterior"), f"unknown side {side!r}")
    if pert is not None:
        pert = {"side": side, **_object(pert, "perturbation")}
        _validate(dimension == 2 or pert.get("angular") is None,
                  "perturbation.angular: trig angular factors are circle-only")
    amplitude = 0 if pert is None else _perturbation(pert).amplitude
    _validate(pert is None or pert["side"] == side, "perturbation.side must be the scenario side")

    boundary = _object(doc.get("boundary", {}), "boundary")
    R = _number(boundary.get("radius", 1.0), "boundary radius")
    _validate(np.isfinite(R) and R > 0, "boundary radius must be positive")
    eigen_count = _number(doc.get("eigen_count", 8), "eigen_count", int)
    _validate(eigen_count >= 1, "eigen_count must be >= 1")
    truncation = doc.get("truncation")
    T = DEFAULT_TRUNCATION_CIRCLE if dimension == 2 else DEFAULT_TRUNCATION_SPHERE
    if truncation is not None:
        truncation = T = _number(truncation, "truncation", int)
        _validate(truncation >= 1, "truncation must be >= 1")
    else:  # an explicit basis is checked at run time, after the aliasing guard
        size = 2 * T + 1 if dimension == 2 else (T + 1) ** 2
        _validate(eigen_count <= size, f"eigen_count {eigen_count} exceeds the {size} "
                                       f"functions of the default angular basis")
    values = {}
    for key, val in _object(boundary.get("values", {"1": 1.0}), "boundary.values").items():
        k = _number(key, "boundary mode", int)
        _validate(1 <= k <= eigen_count,
                  f"boundary mode {k} outside the requested {eigen_count} eigenvalues")
        values[k] = _number(val, f"boundary value of mode {k}", _as_complex)
    _validate(any(v != 0 for v in values.values()),
              "boundary values must give at least one mode a nonzero value")
    _validate(all(np.isfinite([v.real, v.imag]).all() for v in values.values()),
              "boundary values must be finite")

    grid = _object(doc.get("grid", {}), "grid")
    nodes = _number(grid.get("nodes", grids.DEFAULT_RADIAL_NODES), "grid.nodes", int)
    _validate(nodes >= 100, "radial grid needs at least 100 nodes")
    rmin_ratio = _number(grid.get("rmin_ratio", grids.DEFAULT_RMIN_RATIO), "grid.rmin_ratio")
    _validate(0 < rmin_ratio < 1, "rmin_ratio must lie in (0, 1)")
    span = _number(grid.get("exterior_span", 1e8), "grid.exterior_span")
    _validate(1 < span < np.inf, "exterior_span must be finite and exceed 1")
    n_angular = angular_node_count(dimension, T)
    nodal = nodes * n_angular * 16
    _validate(nodal <= NODAL_ARRAY_BUDGET,
              f"a nodal array on {nodes} radial x {n_angular} angular nodes (truncation {T}) "
              f"takes {nodal / 2**20:.0f} MiB, over the budget of "
              f"{NODAL_ARRAY_BUDGET >> 20} MiB")
    dense = dense_matrix_bytes(pot, T)
    _validate(dense <= NODAL_ARRAY_BUDGET,
              f"the largest dense matrix of the angular spectrum at truncation {T} "
              f"takes {dense / 2**20:.0f} MiB, over the budget of "
              f"{NODAL_ARRAY_BUDGET >> 20} MiB")
    tables = basis_table_bytes(dimension, T)
    _validate(tables <= NODAL_ARRAY_BUDGET,
              f"the angular basis tables at truncation {T} take "
              f"{tables / 2**20:.0f} MiB, over the budget of "
              f"{NODAL_ARRAY_BUDGET >> 20} MiB")

    radii = doc.get("radii")
    if radii is None:
        if side == "interior":
            radii = np.geomspace(1e-5 * R, 0.5 * R, 20)
        else:
            radii = np.geomspace(2 * R, 1e6 * R, 20)
    else:
        _validate(isinstance(radii, list) and len(radii) > 0,
                  "radii must be a non-empty list of numbers")
        radii = np.asarray([_number(v, "each radius") for v in radii], dtype=float)
    lo, hi = _radial_bounds(side, R, rmin_ratio, span)
    _validate(0 < lo and hi < np.inf, f"radial grid [{lo:g}, {hi:g}] must be positive and finite")
    if not np.all(np.isfinite(radii) & (radii >= lo) & (radii <= hi)):
        raise ScenarioValidationError(
            f"trace radii {radii.min():g}..{radii.max():g} must be finite and lie "
            f"on the radial grid [{lo:g}, {hi:g}]")

    checks = dict(DEFAULT_CHECKS)
    for name, toggle in _object(doc.get("checks", {}), "checks").items():
        _validate(name in DEFAULT_CHECKS,
                  f"unknown check toggle {name!r}; valid: {sorted(DEFAULT_CHECKS)}")
        _validate(isinstance(toggle, bool), f"checks.{name} must be true or false, "
                                            f"got {toggle!r}")
        checks[name] = toggle
    if checks["asymptotics"]:
        second, blowup = _asymptotics_radii(side, R)
        read = np.append(second, blowup if amplitude != 0 else [])
        outside = read[(read < lo) | (read > hi)]
        _validate(outside.size == 0,
                  f"the asymptotics check reads radii {', '.join(f'{v:g}' for v in outside)}"
                  f" outside the radial grid [{lo:g}, {hi:g}]")

    sweep_count = _number(doc.get("sweep_count", 50), "sweep_count", int)
    _validate(sweep_count >= 1, "sweep_count must be >= 1")
    batch = sweep_batch_bytes(dimension, sweep_count)
    _validate(batch <= NODAL_ARRAY_BUDGET,
              f"a sweep of {sweep_count} test functions takes {batch / 2**20:.0f} MiB, "
              f"over the budget of {NODAL_ARRAY_BUDGET >> 20} MiB")
    seed = _number(doc.get("seed", 42), "seed", int)
    _validate(seed >= 0, "seed must be >= 0")
    return Scenario(
        dimension=dimension,
        potential=pot_desc,
        perturbation=pert,
        side=side,
        boundary_radius=R,
        boundary_values=values,
        grid_nodes=nodes,
        rmin_ratio=rmin_ratio,
        exterior_span=span,
        eigen_count=eigen_count,
        truncation=truncation,
        radii=radii,
        checks=checks,
        sweep_count=sweep_count,
        seed=seed,
    )


def parse_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ScenarioValidationError(f"{path}: unreadable scenario: {exc}") from None
    return scenario_from_dict(doc)


def scenario_hash(scn: Scenario) -> str:
    blob = json.dumps(scn.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Pipeline:
    """The method's chain for one scenario: spectrum, modal solve, frequency
    trace, profile coefficients and Kelvin picture.

    Every stage is computed on first use and kept, so ``run``, ``verify`` and
    each CLI subcommand pay only for the stages they read, each once.
    """

    def __init__(self, scn: Scenario):
        self.scn = scn

    @cached_property
    def potential(self):
        return build_potential(self.scn.potential)

    @cached_property
    def spectrum(self):
        return angular_spectrum(self.potential, count=self.scn.eigen_count,
                                truncation=self.scn.truncation)

    @cached_property
    def solution(self):
        """``(field, info)`` on the scenario's radial grid; the field carries
        its perturbation, and ``info`` is trivial without a nonzero one."""
        scn = self.scn
        r = grids.log_grid(*_radial_bounds(scn.side, scn.boundary_radius, scn.rmin_ratio,
                                           scn.exterior_span), scn.grid_nodes)
        h = None if scn.perturbation is None else _perturbation(scn.perturbation)
        if h is not None and h.amplitude != 0:
            return solve_perturbed_field(self.spectrum, h, scn.boundary_values, r)
        sols = homogeneous_solutions(self.spectrum, scn.boundary_values, r, side=scn.side)
        info = {"iterations": 0, "residuals": [], "converged": True}
        return synthesize_field(self.spectrum, sols), info

    @cached_property
    def target(self) -> tuple[int, float]:
        """``(k0, gamma)``: the lowest forced mode and the exponent the
        frequency must reach (sigma_+ inside, -sigma_- outside)."""
        k0 = min(k for k, v in self.scn.boundary_values.items() if v != 0)
        exp = characteristic_exponents(self.scn.dimension, self.spectrum.mu(k0), k0)
        return k0, exp.limit_exponent(self.scn.side)

    @cached_property
    def trace(self):
        return frequency_trace(self.solution[0], self.scn.radii)

    def profile(self, R: float):
        return extract_coefficients(self.solution[0], self.target[1], R)

    @cached_property
    def kelvin(self) -> tuple[float, float]:
        """``(involution, conjugacy)`` residuals: K(K(u)) against u, and the
        frequency of K(u) against that of u shifted by N - 2."""
        field = self.solution[0]
        v = kelvin_transform(field)
        back = kelvin_transform(v)
        inv = sup_norm(back, field) / max(sup_norm(field), 1e-300)
        tr_u = self.trace
        # mirror the snapped radii so both traces use reciprocal grid nodes
        tr_v = frequency_trace(v, np.sort(1.0 / tr_u.r))
        outer, inner = (tr_v, tr_u) if self.scn.side == "exterior" else (tr_u, tr_v)
        shift = self.scn.dimension - 2
        return inv, float(np.abs(np.sort(outer.N) - (np.sort(inner.N) - shift)).max())


def _check(name: str, value: float, tol: float, ok=None) -> dict:
    if ok is None:
        ok = bool(abs(value) <= tol)
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "pass": bool(ok)}


def _execute(scn: Scenario, names: set, out_dir=None, tol_scale: float = 1.0,
             seed: int | None = None) -> dict:
    """Run the named check blocks, always in pipeline order, and return the
    report.

    Writes ``report.json`` (and ``trace.csv`` when the frequency block ran)
    under ``out_dir`` if given.  Partial reports carry status "error".
    """
    t0 = time.perf_counter()
    validate_options(tol_scale, seed, out_dir)
    if seed is not None:
        scn = replace(scn, seed=int(seed))
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": scn.to_json(),
        "scenario_hash": scenario_hash(scn),
        "checks": [],
    }
    checks = report["checks"]

    def add(name, value, key=None, one_sided=False):
        tol = TOLERANCES[key or name] * tol_scale
        checks.append(_check(name, value, tol, ok=value >= -tol if one_sided else None))

    pipe = Pipeline(scn)
    R, interior = scn.boundary_radius, scn.side == "interior"
    trace = None
    try:
        if "spectrum" in names:
            report["spectrum"] = pipe.spectrum.to_json()

        if "solve" in names:
            info = pipe.solution[1]
            report["solver"] = {"iterations": info["iterations"],
                                "converged": info["converged"]}
            # a 0/1 flag: Picard's own tolerance is modal.PICARD_TOL
            checks.append(_check("picard_converged", float(not info["converged"]),
                                 0.5, ok=info["converged"]))
            k0, gamma = pipe.target
            report["k0"] = k0
            report["gamma_target"] = gamma
            report["regularity"] = classify_regularity(gamma, scn.dimension, scn.side)

        if "frequency" in names:
            trace = pipe.trace
            report["frequency"] = trace.fit_summary()
            gamma, h = pipe.target[1], pipe.solution[0].perturbation
            add("gamma_fit", trace.gamma_hat - gamma)
            if h is not None and np.isfinite(trace.eps_hat):
                add("eps_rate", (trace.eps_hat - h.epsilon) / h.epsilon)
            scaling = height_scaling_limit(trace, gamma)
            report["h_scaling"] = scaling
            add("h_scaling_slope", scaling["slope_defect"])
            add("h_scaling_drift", scaling["drift"])

        if "height_derivative" in names:
            add("height_derivative", check_height_derivative(pipe.trace))
        if "pohozaev" in names:
            r_mid = float(np.sqrt(scn.radii.min() * scn.radii.max()))
            add("pohozaev", pohozaev_residual(pipe.solution[0], r_mid))

        if "asymptotics" in names:
            h = pipe.solution[0].perturbation
            k0, gamma = pipe.target
            p1 = pipe.profile(R)
            second, blowup = _asymptotics_radii(scn.side, R)
            p2 = pipe.profile(second)
            report["profile"] = p1.to_json()
            add("beta_r_independence", float(np.abs(p1.beta - p2.beta).max()))
            if h is None and len(scn.boundary_values) == 1:
                beta = p1.beta[k0 - p1.j0]
                add("beta_unit", abs(beta - scn.boundary_values[k0]
                                     * R ** (-gamma if interior else gamma)))
            if h is not None:
                blow = blowup_profile(pipe.solution[0], gamma, blowup, profile=p1)
                report["blowup_rate"] = blow["rate"]
                if np.isfinite(blow["rate"]):
                    add("blowup_rate", (blow["rate"] - h.epsilon) / h.epsilon)

        if "kelvin" in names:
            inv, conj = pipe.kelvin
            add("kelvin_involution", inv)
            add("kelvin_conjugacy", conj)

        # the sweeps share one generator and always draw in this order, so the
        # same names give the same report whatever order they were listed in
        rng = np.random.default_rng(scn.seed)
        margins = {}
        for name in ("hardy", "diamagnetic", "hardy2d"):
            if name in names and (name != "hardy2d" or scn.dimension == 2):
                mu1 = pipe.spectrum.mu1() if name == "hardy" else None
                out = inequality_sweep(pipe.potential, name, count=scn.sweep_count,
                                       rng=rng, tol=TOLERANCES["margin"] * tol_scale,
                                       mu1_value=mu1)
                margins[name] = out
                if out["status"] != "degenerate":
                    add(f"{name}_margin", out["min_margin"], key="margin", one_sided=True)
        if "mu1" in names and scn.dimension == 2:
            add("mu1_comparison", mu1_comparison(pipe.spectrum), one_sided=True)
        if "hardy2d_constant" in names and scn.dimension == 2:
            info = hardy_2d_constant_check(pipe.spectrum)
            margins["hardy2d_constant"] = info
            if not info["degenerate"]:
                add("hardy2d_agreement", info["agreement"])
        if not names.isdisjoint(TOGGLE_BLOCKS["inequalities"]):
            report["margins"] = margins

        report["status"] = "pass" if all(c["pass"] for c in checks) else "fail"
    except EmlabError as exc:
        report["status"] = "error"
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["wall_clock"] = time.perf_counter() - t0

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if trace is not None:
            trace.to_csv(out / "trace.csv")
        (out / "report.json").write_text(report_json(report))
    return report


def run_scenario(scn: Scenario, out_dir=None, tol_scale: float = 1.0,
                 seed: int | None = None) -> dict:
    """Execute the spectrum and every check block the scenario enables."""
    names = {"spectrum"}
    for toggle, enabled in scn.checks.items():
        if enabled:
            names.update(TOGGLE_BLOCKS[toggle])
    return _execute(scn, names, out_dir, tol_scale, seed)


def verify_suite(scn: Scenario, names=None, out_dir=None,
                 tol_scale: float = 1.0, seed: int | None = None) -> dict:
    """Run only the named verification checks (default: all of them), in
    pipeline order whatever order they are named in."""
    names = set(VERIFY_CHECKS if names is None else names)
    if not names:
        raise ScenarioValidationError(f"no check named; valid: {list(VERIFY_CHECKS)}")
    unknown = sorted(names - set(VERIFY_CHECKS))
    if unknown:
        raise ScenarioValidationError(
            f"unknown check name(s) {unknown}; valid: {list(VERIFY_CHECKS)}"
        )
    return _execute(scn, names, out_dir, tol_scale, seed)


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=True) + "\n"
