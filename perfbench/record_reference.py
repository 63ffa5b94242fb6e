"""Record the key report values of every document the workloads can make.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/record_reference.py            # writes perfbench/reference.json
    python3 perfbench/record_reference.py --threads 2 --stride 3 --out other.json

The second form measures the roundoff spread that the gate bounds must
cover (BLAS results change with the thread count).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

from common import HERE, THREAD_VARS, check_emlab_origin, use_checkout_src
from gate import key_values
from workloads import WORKLOADS, case_key, every_document

#: worker processes; each runs one document at a time
JOBS = 2


def _run(doc: dict) -> tuple[str, dict, float]:
    use_checkout_src()
    import emlab

    check_emlab_origin(emlab)
    t0 = time.perf_counter()
    report = emlab.run_scenario(emlab.scenario_from_dict(doc))
    return case_key(doc), key_values(report), time.perf_counter() - t0


def write_reference(path, meta: dict, cases: dict) -> None:
    """JSON with one case per line, so a re-recording diffs case by case."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(cases.items())]
    with open(path, "w") as fh:
        fh.write(f'{{"meta": {json.dumps(meta, sort_keys=True)},\n"cases": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "reference.json"))
    parser.add_argument("--stride", type=int, default=1,
                        help="record every STRIDE-th document only")
    args = parser.parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = str(args.threads)
    names = sorted(WORKLOADS)
    docs = [doc for name in names for doc in every_document(name)][::args.stride]
    cases = {}
    t0 = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for i, (key, values, dt) in enumerate(pool.imap(_run, docs), 1):
            cases[key] = values
            print(f"{i}/{len(docs)} {key} {values['status']} {dt:.2f}s", file=sys.stderr)
    use_checkout_src()
    import numpy
    import scipy

    import emlab

    meta = {
        "emlab": emlab.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": args.threads,
        "workloads": names,
        "wall_s": round(time.perf_counter() - t0, 1),
    }
    write_reference(args.out, meta, cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
