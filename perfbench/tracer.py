"""Outside-in tracer: wraps every binding of each layer's public functions.

Spans come only from this file. Each public function defined in a layer
module, and the basis and ``AngularSpectrum`` sampling methods, is replaced
by a wrapper wherever a module of the ``emlab`` package binds it (the
function's home module, every ``from .x import f`` and the package root).
A span records its name, trace id (the scenario index), start, end and
parent. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover,
so the layers' self times plus the time outside any span add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("grids", "angular", "modal", "frequency", "asymptotics",
          "inequalities", "scenario")

#: sampling methods wrapped on their classes, all in the angular layer
METHODS = (
    ("CircleBasis", "evaluate"),
    ("CircleBasis", "tangential_derivative"),
    ("SphereBasis", "evaluate"),
    ("SphereBasis", "gradient"),
    ("AngularSpectrum", "psi_values"),
    ("AngularSpectrum", "psi_gradient"),
)

_BASIS_EVAL = ("angular.CircleBasis.evaluate", "angular.CircleBasis.tangential_derivative",
               "angular.SphereBasis.evaluate", "angular.SphereBasis.gradient")

#: group -> functions; a group counts the calls that enter it from outside
#: and sums the duration of those outermost calls, so a function of the
#: group calling another (tangential_derivative -> evaluate) counts once
GROUPS = {
    "synthesize": ("modal.synthesize_field",),
    "project": ("modal.project_onto_modes",),
    "radial_solve": ("modal.solve_radial_mode",),
    "quad": ("grids.cumulative_integral", "grids.complement_cumulative",
             "grids.tail_integral"),
    "assemble": ("angular.assemble_angular_matrix",),
    "eigensolve": ("angular.eigendecompose",),
    "spectrum": ("angular.angular_spectrum",),
    "basis_eval": _BASIS_EVAL,
    "test_function": ("inequalities.random_test_function",
                      "inequalities.profile_test_function"),
    "form": ("inequalities.quadratic_form", "inequalities.singular_mass",
             "inequalities.boundary_mass"),
    "diamagnetic": ("inequalities.diamagnetic_margin",),
    "mu1": ("inequalities.mu1_of",),
    "trace": ("frequency.frequency_trace",),
    "identities": ("frequency.check_height_derivative", "frequency.pohozaev_residual"),
    "extract": ("asymptotics.extract_coefficients",
                "asymptotics.extract_interior_coefficients",
                "asymptotics.extract_exterior_coefficients"),
    "blowup": ("asymptotics.blowup_profile", "asymptotics.gradient_blowup_profile"),
    "kelvin": ("asymptotics.kelvin_transform",),
}

#: per-layer metric -> (group, "calls" or "s"); all are per traced scenario
GROUP_METRICS = {
    "modal.synthesize_calls": ("synthesize", "calls"),
    "modal.synthesize_s": ("synthesize", "s"),
    "modal.project_s": ("project", "s"),
    "modal.radial_solves": ("radial_solve", "calls"),
    "modal.radial_solve_s": ("radial_solve", "s"),
    "grids.quad_calls": ("quad", "calls"),
    "angular.assemble_s": ("assemble", "s"),
    "angular.eigensolve_s": ("eigensolve", "s"),
    "angular.spectrum_calls": ("spectrum", "calls"),
    "angular.basis_eval_calls": ("basis_eval", "calls"),
    "angular.basis_eval_s": ("basis_eval", "s"),
    "inequalities.test_functions": ("test_function", "calls"),
    "inequalities.test_function_s": ("test_function", "s"),
    "inequalities.form_s": ("form", "s"),
    "inequalities.diamagnetic_s": ("diamagnetic", "s"),
    "inequalities.mu1_calls": ("mu1", "calls"),
    "frequency.trace_s": ("trace", "s"),
    "frequency.identities_s": ("identities", "s"),
    "asymptotics.extract_s": ("extract", "s"),
    "asymptotics.blowup_s": ("blowup", "s"),
    "asymptotics.kelvin_s": ("kelvin", "s"),
}


def _nodal_bytes(field) -> int:
    """Bytes of the nodal arrays of a FieldSample, from their shapes."""
    arrays = [field.values, field.du_dr, *(field.angular_gradient or ())]
    return sum(a.size * a.itemsize for a in arrays if a is not None)


#: result hooks: function -> (counter, amount taken from the return value)
RESULT_COUNTERS = {
    "modal.solve_perturbed_field": ("picard_iterations", lambda out: out[1]["iterations"]),
    "modal.synthesize_field": ("nodal_bytes", _nodal_bytes),
}


def layer_functions() -> dict:
    """Qualified name -> original callable for every traced function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"emlab.{layer}")
        for name, obj in inspect.getmembers(mod, inspect.isfunction):
            if not name.startswith("_") and obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
    angular = importlib.import_module("emlab.angular")
    for cls, meth in METHODS:
        # a refactor may move a method; the rest of the trace still holds
        if meth in vars(getattr(angular, cls, object)):
            found[f"angular.{cls}.{meth}"] = vars(getattr(angular, cls))[meth]
    return found


class Tracer:
    """Patches the emlab bindings on ``install`` and restores them on
    ``uninstall``; accumulates spans and counters while installed."""

    def __init__(self):
        importlib.import_module("emlab.cli")  # its bindings are patched too
        self.originals = layer_functions()
        self.trace_id = 0
        self.spans = []  # (trace_id, span_id, parent_id, name, start, end)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.group_calls = dict.fromkeys(GROUPS, 0)
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.counters = {name: 0 for name, _ in RESULT_COUNTERS.values()}
        self.top_level_s = 0.0
        self._stack = []  # [span_id, child seconds]
        self._depth = dict.fromkeys(GROUPS, 0)
        self._groups_of = {q: [g for g, fs in GROUPS.items() if q in fs]
                           for q in self.originals}
        self._wrappers = {q: self._wrap(q, f) for q, f in self.originals.items()}
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, qualname: str, func):
        layer = qualname.split(".")[0]
        groups = self._groups_of[qualname]
        hook = RESULT_COUNTERS.get(qualname)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else -1
            self.spans.append(None)  # reserve the id; filled on exit
            outer = [g for g in groups if depth[g] == 0]
            for g in groups:
                depth[g] += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                for g in groups:
                    depth[g] -= 1
                dur = end - start
                self.layer_self[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level_s += dur
                for g in outer:
                    self.group_calls[g] += 1
                    self.group_s[g] += dur
                self.spans[span_id] = (self.trace_id, span_id, parent, qualname, start, end)
            if hook is not None:
                self.counters[hook[0]] += hook[1](out)
            return out

        return wrapper

    def bindings(self) -> list:
        """(module, attribute, qualified name) for every binding in emlab."""
        by_id = {id(f): q for q, f in self.originals.items()}
        found = []
        for modname, mod in list(sys.modules.items()):
            if modname != "emlab" and not modname.startswith("emlab."):
                continue
            for attr, val in vars(mod).items():
                if id(val) in by_id:
                    found.append((mod, attr, by_id[id(val)]))
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod, attr, qualname in self.bindings():
            self._patched.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._wrappers[qualname])
        angular = sys.modules["emlab.angular"]
        for cls, meth in METHODS:
            qualname = f"angular.{cls}.{meth}"
            if qualname in self.originals:
                owner = getattr(angular, cls)
                self._patched.append((owner, meth, vars(owner)[meth]))
                setattr(owner, meth, self._wrappers[qualname])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, scenarios: int, wall_s: float) -> dict:
        """Per-layer metrics, each per traced scenario.

        ``wall_s`` is the summed wall time of the traced scenario calls, so
        ``sum(<layer>.self_s) + trace.outside_s == trace.wall_s``.
        """
        n = max(scenarios, 1)
        out = {f"{layer}.self_s": (self.layer_self[layer] / n, "s/scenario")
               for layer in LAYERS}
        for name, (group, kind) in GROUP_METRICS.items():
            if kind == "calls":
                out[name] = (self.group_calls[group] / n, "count/scenario")
            else:
                out[name] = (self.group_s[group] / n, "s/scenario")
        out["modal.picard_iterations"] = (self.counters["picard_iterations"] / n,
                                          "count/scenario")
        out["modal.nodal_mb"] = (self.counters["nodal_bytes"] / n / 2**20,
                                 "MB/scenario")
        out["trace.wall_s"] = (wall_s / n, "s/scenario")
        out["trace.outside_s"] = ((wall_s - self.top_level_s) / n, "s/scenario")
        return out
