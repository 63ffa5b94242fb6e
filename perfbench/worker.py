"""One workload in one fresh process; started by ``run.py``.

Setup is timed from before ``import emlab`` until every scenario document
of the run is generated and validated. A warm-up scenario then runs
untimed; its time is reported as ``batch.first_scenario_s`` and counts
toward neither ``setup_s`` nor the batch. The timed batch is a closed loop:
one caller runs the next scenario only after the previous returns, through
``scenario_from_dict`` -> ``run_scenario``, in whole cycles of the workload
(starting again from the warm-up document) until ``--seconds`` have passed.

Untraced, it measures the end-to-end metrics. Traced, it runs every batch
scenario twice, traced and untraced in alternating order, and reports the
per-layer metrics and the tracing overhead. The last stdout line is JSON.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from common import OUT_DIR, check_emlab_origin, use_checkout_src  # noqa: E402
from gate import Gate  # noqa: E402
from workloads import WORKLOADS, cycle_length, documents  # noqa: E402

#: documents generated and validated during setup; the batch cycles through
#: them, so a faster program repeats documents instead of growing setup
POOL = 64


def _setup(workload: str, seed: int, t0: float):
    use_checkout_src()
    import emlab

    check_emlab_origin(emlab)
    docs = documents(workload, seed, POOL)
    scenarios = [emlab.scenario_from_dict(doc) for doc in docs]
    return emlab, docs, scenarios, time.perf_counter() - t0


def _run(emlab, gate: Gate, doc: dict, scn, tracer=None) -> float:
    """Run one scenario and gate its report; returns its wall time.

    Only the ``run_scenario`` call is timed, and traced when a tracer is
    given; the gate runs afterwards.
    """
    with tracer if tracer is not None else contextlib.nullcontext():
        t = time.perf_counter()
        try:
            outcome = emlab.run_scenario(scn)
        except Exception as exc:  # a raise is a failed scenario, not a crash
            outcome = exc
        dt = time.perf_counter() - t
    gate.check(doc, outcome)
    return dt


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _batch(emlab, docs, scenarios, gate: Gate, seconds: float, cycle: int, tracer=None):
    """Closed loop over whole cycles; returns per-scenario records."""
    records = []
    i = 0
    start = time.perf_counter()
    while True:
        doc, scn = docs[i % len(docs)], scenarios[i % len(docs)]
        if tracer is None:
            records.append({"s": _run(emlab, gate, doc, scn)})
        else:
            # alternate the order per slot of the cycle, so each kind of
            # scenario runs traced first half of the time
            traced_first = (i // cycle + i % cycle) % 2 == 0
            records.append(_paired(emlab, doc, scn, gate, tracer, traced_first, index=i))
        i += 1
        if i % cycle == 0 and time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def _paired(emlab, doc, scn, gate: Gate, tracer, traced_first: bool, index: int) -> dict:
    out = {}
    for traced in ((True, False) if traced_first else (False, True)):
        f0 = _faults()
        tracer.trace_id = index
        out["traced" if traced else "untraced"] = _run(emlab, gate, doc, scn,
                                                       tracer if traced else None)
        out.setdefault("first_faults", _faults() - f0)
    return out


def _environment() -> dict:
    import os

    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc_vars": sorted(k for k in os.environ if k.startswith("MALLOC_")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    emlab, docs, scenarios, setup_s = _setup(args.workload, args.seed, _T0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gate = Gate()
    first_s = _run(emlab, gate, docs[0], scenarios[0])
    cycle = cycle_length(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    records, batch_s = _batch(emlab, docs, scenarios, gate, args.seconds, cycle, tracer)
    result = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "first_scenario_s": first_s,
        "batch_s": batch_s,
        "scenarios": len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": _environment(),
    }
    if tracer is None:
        # a cycle's time per scenario: sweep_mixed's 2-D and 3-D scenarios
        # differ sixfold, and a median over single calls would fall in the gap
        times = [r["s"] for r in records]
        per_cycle = [sum(times[i:i + cycle]) / cycle for i in range(0, len(times), cycle)]
        result["cycles"] = len(per_cycle)
        result["scenario_p50_s"] = statistics.median(per_cycle)
        result["scenarios_per_s"] = len(records) / batch_s
    else:
        traced = sum(r["traced"] for r in records)
        untraced = sum(r["untraced"] for r in records)
        per_layer = tracer.metrics(len(records), traced)
        per_layer["process.minor_faults"] = (
            statistics.mean(r["first_faults"] for r in records), "count/scenario")
        per_layer["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
        per_layer["batch.first_scenario_s"] = (first_s, "s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "span_fields": ["trace_id", "span_id", "parent_id", "name", "start", "end"],
            "spans": tracer.spans,
            "per_layer": result["per_layer"],
        }))
        result["trace_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
