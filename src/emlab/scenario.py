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
import sys
import time
from collections import namedtuple
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
        """The scenario as a document: the field of each entry at its path."""
        doc = {}
        for e in ENTRIES.values():
            if e.field is not None:  # at the top level or in one object
                parent, _, key = e.path.rpartition(".")
                node = doc.setdefault(parent, {}) if parent else doc
                node[key] = getattr(self, e.field)
        doc["boundary"]["values"] = {str(k): [v.real, v.imag]
                                     for k, v in self.boundary_values.items()}
        doc["radii"] = [float(v) for v in self.radii]
        return doc


#: one entry of a scenario document: its path, its JSON type (see ``_typed``),
#: the ``Scenario`` field it fills, its default (REQUIRED if a document must
#: give it), its rule (a test of the read value and the words that end "<path>
#: must ...") and, for a potential entry, the kinds that take it
Entry = namedtuple("Entry", "path type field default rule kinds", defaults=(None, None, (), ()))
REQUIRED = "required"

#: the scenario document, each object before its entries; a potential entry
#: with no default takes ``build_potential``'s, and ``scenario_from_dict``
#: checks the rules that tie entries together
ENTRIES = {e.path: e for e in (
    Entry("dimension", "integer", "dimension"),
    Entry("potential", "object", "potential", REQUIRED),
    Entry("potential.kind", "string", None, REQUIRED,
          (("aharonov_bohm", "fourier", "dipole").__contains__,
           "be 'aharonov_bohm', 'fourier' or 'dipole'")),
    Entry("potential.alpha", "number", kinds=("aharonov_bohm",)),
    Entry("potential.a0", "number", kinds=("aharonov_bohm",)),
    Entry("potential.magnetic", "coefficients", kinds=("fourier",)),
    Entry("potential.electric", "coefficients", kinds=("fourier",)),
    Entry("potential.strength", "number", kinds=("dipole",)),
    Entry("potential.lam", "number", kinds=("dipole",)),
    Entry("potential.axis", "numbers", kinds=("dipole",)),
    Entry("potential.dimension", "integer", kinds=("fourier", "dipole")),
    Entry("perturbation", "object or null", "perturbation"),
    Entry("perturbation.amplitude", "complex", default=PerturbationSpec.amplitude),
    Entry("perturbation.epsilon", "number", default=PerturbationSpec.epsilon),
    Entry("perturbation.angular", "coefficients or null"),
    Entry("perturbation.side", "string"),
    Entry("side", "string", "side", "interior",
          (("interior", "exterior").__contains__, "be 'interior' or 'exterior'")),
    Entry("boundary", "object", default={}),
    Entry("boundary.radius", "number", "boundary_radius", 1.0, (lambda v: v > 0, "be positive")),
    Entry("boundary.values", "modes", "boundary_values", {"1": 1.0},
          (lambda v: any(v.values()), "give a mode a nonzero value")),
    Entry("grid", "object", default={}),
    Entry("grid.nodes", "integer", "grid_nodes", grids.DEFAULT_RADIAL_NODES,
          (lambda v: v >= 100, "be >= 100")),
    Entry("grid.rmin_ratio", "number", "rmin_ratio", grids.DEFAULT_RMIN_RATIO,
          (lambda v: 0 < v < 1, "lie in (0, 1)")),
    Entry("grid.exterior_span", "number", "exterior_span", 1e8, (lambda v: v > 1, "exceed 1")),
    Entry("eigen_count", "integer", "eigen_count", 8, (lambda v: v >= 1, "be >= 1")),
    Entry("truncation", "integer or null", "truncation", None, (lambda v: v >= 1, "be >= 1")),
    Entry("radii", "numbers or null", "radii", None, (len, "be non-empty")),
    Entry("checks", "toggles", "checks", DEFAULT_CHECKS),
    Entry("sweep_count", "integer", "sweep_count", 50, (lambda v: v >= 1, "be >= 1")),
    Entry("seed", "integer", "seed", 42, (lambda v: v >= 0, "be >= 0")),
)}
#: the entries of a coefficient object, by type
COEFFICIENTS = {"mean": "number", "cos": "numbers", "sin": "numbers"}


def _validate(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioValidationError(message)


def _must(cond: bool, what: str, words: str, value) -> None:
    """Unless ``cond``, reject ``what``: "<what> must <words>, got <value>"."""
    if not cond:
        raise ScenarioValidationError(f"{what} must {words}, got {value!r}")


def _typed(value, what: str, type: str):
    """``value`` read as an entry of ``type``, or an error naming ``what``: a
    "number" is finite, an "integer" has no fractional part, a "complex" is a
    number or a [re, im] pair, "coefficients" a number, a list of complex or
    an object of COEFFICIENTS.  Only a check toggle takes a JSON boolean, and
    only a name a JSON string: a number given as a string is not read."""
    if value is None and type.endswith(" or null"):
        return None
    type = type.removesuffix(" or null")
    _must(not isinstance(value, bool), what, "not be a boolean", value)
    _must(isinstance(value, str) == (type == "string"), what,
          "be a string" if type == "string" else "not be a string", value)
    if type in ("number", "integer"):
        _must(isinstance(value, (int, float)), what, "be a number", value)
        _must(type == "number" or isinstance(value, int) or value.is_integer(),
              what, "be an integer", value)
        _must(type == "integer" or abs(value) <= sys.float_info.max, what, "be finite", value)
        return int(value) if type == "integer" else float(value)
    if type == "complex" and isinstance(value, list):
        _must(len(value) == 2, what, "be a number or a [re, im] pair", value)
        return complex(*(_typed(v, f"{what}[{i}]", "number") for i, v in enumerate(value)))
    if type == "complex":
        return complex(_typed(value, what, "number"))
    if type == "numbers":
        _must(isinstance(value, list), what, "be a list of numbers", value)
        return [_typed(v, f"{what}[{i}]", "number") for i, v in enumerate(value)]
    if type == "coefficients" and isinstance(value, dict):
        _check_keys(value, what, COEFFICIENTS)
        for key, v in value.items():
            _typed(v, f"{what}.{key}", COEFFICIENTS[key])
    elif type == "coefficients":  # a number, or a list of complex
        for i, v in enumerate(value if isinstance(value, list) else [value]):
            _typed(v, f"{what}[{i}]" if isinstance(value, list) else what, "complex")
    if type in ("object", "modes", "toggles"):
        _must(isinstance(value, dict), what, "be a JSON object", value)
    if type == "modes":
        return {key: _typed(v, f"{what}.{key}", "complex") for key, v in value.items()}
    if type == "toggles":
        for name, toggle in value.items():
            _validate(name in DEFAULT_CHECKS,
                      f"unknown check toggle {name!r}; valid: {sorted(DEFAULT_CHECKS)}")
            _must(isinstance(toggle, bool), f"{what}.{name}", "be true or false", toggle)
        return {**DEFAULT_CHECKS, **value}
    return value


def _check_keys(obj: dict, where: str, known) -> None:
    """Reject an entry of ``obj`` the table does not hold, by name, with the
    nearest known one: a misspelt entry would otherwise run with its default."""
    for key in (k for k in obj if k not in known):
        name = f"{where}.{key}" if where else key
        _typed(obj[key], name, "unknown")  # a boolean or a string is named as such
        import difflib  # on a bad document only: a valid run need not load it
        near = difflib.get_close_matches(str(key), known, n=1)
        raise ScenarioValidationError(f"unknown entry {name!r}"
                                      + (f"; did you mean {near[0]!r}?" if near else ""))


def _read(doc: dict) -> dict:
    """Read a document by ENTRIES in table order: path -> typed value, an
    absent entry at its default.  The potential's kind, read first, picks its
    entries, and an object's unknown entries are rejected after all of them."""
    read, known = {"": doc}, {}
    for e in ENTRIES.values():
        parent, _, key = e.path.rpartition(".")
        obj = read.get(parent)
        if not isinstance(obj, dict) or e.kinds and read["potential.kind"] not in e.kinds:
            continue
        known.setdefault(parent, []).append(key)
        _validate(key in obj or e.default is not REQUIRED, f"{e.path} is required")
        value = obj.get(key, e.default)
        typed = None if value is None and key not in obj else _typed(value, e.path, e.type)
        if e.rule and typed is not None:
            _must(e.rule[0](typed), e.path, e.rule[1], value)
        read[e.path] = typed
    for where, keys in known.items():
        _check_keys(read[where], where, keys)
    return read


def _perturbation(desc: dict) -> PerturbationSpec:
    """The spec of a perturbation entry, read by ENTRIES; errors name the entry."""
    try:
        return PerturbationSpec(**{key: _typed(v, f"perturbation.{key}",
                                               ENTRIES[f"perturbation.{key}"].type)
                                   for key, v in desc.items()})
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


def _budget(nbytes: int, what: str) -> None:
    """Reject a scenario whose ``what`` takes ``nbytes`` over the budget."""
    _validate(nbytes <= NODAL_ARRAY_BUDGET, f"{what} {nbytes / 2**20:.0f} MiB, over the "
                                            f"budget of {NODAL_ARRAY_BUDGET >> 20} MiB")


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document by ENTRIES, then by the rules that tie
    its entries together, and fill defaults."""
    read = _read(_typed(doc, "scenario", "object"))
    kind, side, R = read["potential.kind"], read["side"], read["boundary.radius"]
    dimension = 3 if kind == "dipole" else 2
    _validate(read["dimension"] in (None, dimension),
              f"potential kind {kind!r} requires dimension {dimension}")
    try:
        pot = build_potential(read["potential"])
    except (TypeError, ValueError, OverflowError, EmlabError) as exc:
        raise ScenarioValidationError(f"potential: {exc}") from None

    pert = read["perturbation"]
    if pert is not None:
        pert = {"side": side, **pert}
        _validate(dimension == 2 or pert.get("angular") is None,
                  "perturbation.angular: trig angular factors are circle-only")
    amplitude = 0 if pert is None else _perturbation(pert).amplitude
    _validate(pert is None or pert["side"] == side, "perturbation.side must be the scenario side")

    eigen_count, truncation = read["eigen_count"], read["truncation"]
    T = truncation or (DEFAULT_TRUNCATION_CIRCLE if dimension == 2 else DEFAULT_TRUNCATION_SPHERE)
    size = 2 * T + 1 if dimension == 2 else (T + 1) ** 2
    # an explicit basis is checked at run time, after the aliasing guard
    _validate(truncation is not None or eigen_count <= size,
              f"eigen_count {eigen_count} exceeds the {size} functions of the default basis")
    for key in read["boundary.values"]:
        # a mode is written as its number: "01", "+1" or "1_0" name none
        k = int(key) if str(key).isdecimal() and len(str(key)) <= len(str(eigen_count)) else 0
        _validate(str(k) == key and 1 <= k <= eigen_count, f"boundary.values: mode {key!r} is "
                  f"outside the requested modes '1'..'{eigen_count}'")
    values = {int(k): v for k, v in read["boundary.values"].items()}

    nodes, n_angular = read["grid.nodes"], angular_node_count(dimension, T)
    _budget(nodes * n_angular * 16, f"a nodal array on {nodes} radial x {n_angular} angular "
                                    f"nodes (truncation {T}) takes")
    _budget(dense_matrix_bytes(pot, T),
            f"the largest dense matrix of the angular spectrum at truncation {T} takes")
    _budget(basis_table_bytes(dimension, T), f"the angular basis tables at truncation {T} take")
    _budget(sweep_batch_bytes(dimension, read["sweep_count"]),
            f"a sweep of {read['sweep_count']} test functions takes")

    lo, hi = _radial_bounds(side, R, read["grid.rmin_ratio"], read["grid.exterior_span"])
    _validate(0 < lo and hi < np.inf, f"radial grid [{lo:g}, {hi:g}] must be positive and finite")
    ends = (1e-5 * R, 0.5 * R) if side == "interior" else (2 * R, 1e6 * R)
    with np.errstate(invalid="ignore"):  # an end that overflows fails the grid check below
        radii = np.asarray(np.geomspace(*ends, 20) if read["radii"] is None else read["radii"],
                           dtype=float)
    if not np.all(np.isfinite(radii) & (radii >= lo) & (radii <= hi)):
        raise ScenarioValidationError(f"trace radii {radii.min():g}..{radii.max():g} must be "
                                      f"finite and lie on the radial grid [{lo:g}, {hi:g}]")
    if read["checks"]["asymptotics"]:
        second, blowup = _asymptotics_radii(side, R)
        read_at = np.append(second, blowup if amplitude != 0 else [])
        outside = read_at[(read_at < lo) | (read_at > hi)]
        _validate(outside.size == 0,
                  f"the asymptotics check reads radii {', '.join(f'{v:g}' for v in outside)}"
                  f" outside the radial grid [{lo:g}, {hi:g}]")
    fields = {e.field: read[e.path] for e in ENTRIES.values() if e.field is not None}
    return Scenario(**{**fields, "dimension": dimension, "perturbation": pert,
                       "boundary_values": values, "radii": radii})


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
    return hashlib.sha256(json.dumps(scn.to_json(), sort_keys=True).encode()).hexdigest()


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
    ok = abs(value) <= tol if ok is None else ok
    return {"name": name, "value": float(value), "tolerance": float(tol), "pass": bool(ok)}


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
            lo, hi = scn.radii.min(), scn.radii.max()  # their product may overflow
            r_mid = float(min(max(np.sqrt(lo) * np.sqrt(hi), lo), hi))
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

        # the sweeps share one generator, made at the first sweep, and always
        # draw in this order, so the same names give the same report whatever
        # order they were listed in; a run without sweeps loads no numpy.random
        rng = None
        margins = {}
        for name in ("hardy", "diamagnetic", "hardy2d"):
            if name in names and (name != "hardy2d" or scn.dimension == 2):
                rng = rng or np.random.default_rng(scn.seed)
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
    names = {"spectrum"}.union(*(TOGGLE_BLOCKS[t] for t, on in scn.checks.items() if on))
    return _execute(scn, names, out_dir, tol_scale, seed)


def verify_suite(scn: Scenario, names=None, out_dir=None,
                 tol_scale: float = 1.0, seed: int | None = None) -> dict:
    """Run only the named verification checks (default: all of them), in
    pipeline order whatever order they are named in."""
    names = set(VERIFY_CHECKS if names is None else names)
    _validate(names, f"no check named; valid: {list(VERIFY_CHECKS)}")
    unknown = sorted(names - set(VERIFY_CHECKS))
    _validate(not unknown, f"unknown check name(s) {unknown}; valid: {list(VERIFY_CHECKS)}")
    return _execute(scn, names, out_dir, tol_scale, seed)


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=True) + "\n"
