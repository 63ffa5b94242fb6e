"""emlab benchmark: seeded scenario workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload picard_2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own fresh single-threaded process (BLAS thread
variables pinned to 1, ``MALLOC_*`` left as the caller has them). With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
a separate traced run gives the per-layer metrics. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import HERE, SRC, pinned_env
from workloads import WORKLOADS

#: fresh interpreters timed for setup_s, half before the batch and half
#: after it, so that a drift of the host's speed during the run averages
#: out; the median is reported
SETUP_REPEATS = 8


def _worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), check=True,
                          text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Metrics and gate counts of one workload, printed as it goes."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        out = _worker([*common, "--trace", "1"], deadline)
        metrics = out["per_layer"]
        print(f"{name}: traced {out['scenarios']} scenarios, spans in {out['trace_file']}")
    else:
        def probe():
            return _worker([*common, "--setup-only"], deadline)["setup_s"]

        setups = [probe() for _ in range(SETUP_REPEATS // 2)]
        out = _worker([*common, "--trace", "0"], deadline)
        setups += [probe() for _ in range(SETUP_REPEATS - len(setups))]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "scenarios_per_s": {"value": out["scenarios_per_s"], "unit": "1/s"},
            "scenario_p50_s": {"value": out["scenario_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{name}: setup_s median of {SETUP_REPEATS} fresh interpreters; "
              f"{out['scenarios']} batch scenarios in {out['batch_s']:.2f} s; "
              f"scenario_p50_s is the median over {out['cycles']} cycles of a cycle's "
              f"time per scenario; warm-up scenario {out['first_scenario_s']:.3f} s "
              f"(in neither setup_s nor the batch)")
    print(f"{name}: environment {json.dumps(out['environment'], sort_keys=True)}")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']})")
    for p in out["problems"]:
        print(f"{name}: gate: {p['key']}: {'; '.join(p['problems'])}")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "emlab" / "__init__.py").is_file():
        print(f"error: no emlab sources under {SRC}; run from an emlab checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    # per workload: --seconds of batch, plus a margin for the set-up probes,
    # the warm-up and the last cycle, which may start just before time is up
    deadline = time.monotonic() + (3 * args.seconds + 60) * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
                   for n in names}
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
