"""Self-test of the outside-in tracer against known invariants.

    python3 perfbench/selftest.py

Checks that every binding of a traced function in the emlab package is
wrapped and later restored, that the wrapped counts match what the
pipeline must do, and that the layers' self times plus the time outside any
span add up to the traced wall time. Exits 1 on the first failed check.
"""

from __future__ import annotations

import os
import sys
import time

from common import THREAD_VARS, use_checkout_src
from workloads import picard_doc, sweep_2d_doc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def _traced(tracer, emlab, doc: dict):
    scn = emlab.scenario_from_dict(doc)
    t = time.perf_counter()
    with tracer:
        report = emlab.run_scenario(scn)
    return report, time.perf_counter() - t


def main() -> int:
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    use_checkout_src()
    import emlab
    from tracer import METHODS, Tracer

    tracer = Tracer()
    where = {}
    for mod, _, qualname in tracer.bindings():
        where.setdefault(qualname, set()).add(mod.__name__)
    _expect({"emlab", "emlab.modal", "emlab.scenario", "emlab.asymptotics"}
            <= where["modal.synthesize_field"], "synthesize_field bound in 4 modules")
    _expect({"emlab", "emlab.angular", "emlab.scenario", "emlab.inequalities", "emlab.cli"}
            <= where["angular.angular_spectrum"], "angular_spectrum bound in 5 modules")
    originals = {(m.__name__, a): getattr(m, a) for m, a, _ in tracer.bindings()}

    with tracer:
        _expect(not tracer.bindings(), "no unwrapped binding is left while installed")
        _expect(all(getattr(getattr(emlab.angular, cls), meth).__wrapped__
                    is tracer.originals[f"angular.{cls}.{meth}"] for cls, meth in METHODS),
                "basis and psi methods are wrapped")
    restored = {(m.__name__, a): getattr(m, a) for m, a, _ in tracer.bindings()}
    _expect(restored == originals, "uninstall restores every binding")

    report, wall = _traced(tracer, emlab, picard_doc("interior", 0.3, 0.05, 0.5, 1))
    m = {k: v for k, (v, _) in tracer.metrics(1, wall).items()}
    iters = report["solver"]["iterations"]
    _expect(report["status"] == "pass", "interior ab_basic-like scenario passes")
    _expect(m["modal.picard_iterations"] == iters, f"picard_iterations = {iters}")
    _expect(m["modal.radial_solves"] == 8 * (iters + 1),
            f"radial_solves = 8 x (iterations + 1) = {8 * (iters + 1)}")
    _expect(m["modal.synthesize_calls"] == iters + 1 + 2,
            "synthesize_calls = iterations + 1, plus one per Kelvin transform (2)")
    _expect(m["inequalities.test_functions"] == 0, "no inequality work in a field scenario")
    _expect(m["modal.nodal_mb"] > 0, "nodal bytes are counted")
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    _expect(abs(layers + m["trace.outside_s"] - wall) <= 1e-9 * wall,
            "layer self times + outside time == traced wall time")
    _expect(m["trace.outside_s"] >= 0, "outside time is nonnegative")

    before = dict(tracer.group_calls)
    sweep_count = 4
    report, _ = _traced(tracer, emlab, {**sweep_2d_doc(0.3, 0), "sweep_count": sweep_count})
    sweeps = len([k for k in report["margins"] if k != "hardy2d_constant"])
    made = tracer.group_calls["test_function"] - before["test_function"]
    _expect(made == sweep_count * sweeps,
            f"test_functions = sweep_count x sweeps = {sweep_count * sweeps}")
    _expect(tracer.group_calls["synthesize"] == before["synthesize"],
            "no modal synthesis in an inequality scenario")
    spans = [s for s in tracer.spans if s is not None]
    _expect(len(spans) == len(tracer.spans), "every span was closed")
    ids = {s[1] for s in spans}
    _expect(all(s[2] == -1 or s[2] in ids for s in spans), "every parent span exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
