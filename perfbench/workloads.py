"""Seeded scenario documents for the three benchmark workloads.

Every parameter is drawn from a short grid of values that brackets the
shipped ``scenarios/`` files, so the set of documents a workload can produce
is finite and ``reference.json`` can hold the reference commit's output for each one.
emlab only ever sees the generated JSON documents.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

ALL_CHECKS = ("frequency", "identities", "asymptotics", "kelvin", "inequalities")


def _checks(*enabled: str) -> dict:
    return {name: name in enabled for name in ALL_CHECKS}


def _axis(name: str) -> list:
    return {"z": [0, 0, 1], "x": [1, 0, 0], "xy": [1, 1, 0], "xyz": [1, 1, 1]}[name]


def picard_doc(side: str, alpha: float, amplitude: float, epsilon: float,
               mode: int) -> dict:
    """Perturbed Aharonov-Bohm field scenario with every field check."""
    return {
        "dimension": 2,
        "potential": {"kind": "aharonov_bohm", "alpha": alpha, "a0": 0.0},
        "perturbation": {"amplitude": amplitude, "epsilon": epsilon, "side": side},
        "side": side,
        "boundary": {"radius": 1.0, "values": {str(mode): 1.0}},
        "eigen_count": 8,
        "checks": _checks("frequency", "identities", "asymptotics", "kelvin"),
        "seed": 42,
    }


def dipole_doc(strength: float, axis: str, mode: int) -> dict:
    """Unperturbed 3-d dipole field scenario on the 9000-node grid."""
    return {
        "dimension": 3,
        "potential": {"kind": "dipole", "strength": strength, "axis": _axis(axis)},
        "side": "interior",
        "boundary": {"radius": 1.0, "values": {str(mode): 1.0}},
        "eigen_count": 8,
        "truncation": 16,
        "grid": {"nodes": 9000},
        "checks": _checks("frequency", "identities", "asymptotics"),
        "seed": 42,
    }


def sweep_2d_doc(alpha: float, sweep_seed: int) -> dict:
    """Inequality-only Aharonov-Bohm scenario: three sweeps of 50."""
    return {
        "dimension": 2,
        "potential": {"kind": "aharonov_bohm", "alpha": alpha, "a0": 0.0},
        "side": "interior",
        "boundary": {"radius": 1.0, "values": {"1": 1.0}},
        "eigen_count": 8,
        "checks": _checks("inequalities"),
        "sweep_count": 50,
        "seed": sweep_seed,
    }


def sweep_3d_doc(strength: float, axis: str, sweep_seed: int) -> dict:
    """Inequality-only dipole scenario: two sweeps of 20 at T=16."""
    return {
        "dimension": 3,
        "potential": {"kind": "dipole", "strength": strength, "axis": _axis(axis)},
        "side": "interior",
        "boundary": {"radius": 1.0, "values": {"1": 1.0}},
        "eigen_count": 8,
        "truncation": 16,
        "checks": _checks("inequalities"),
        "sweep_count": 20,
        "seed": sweep_seed,
    }


@dataclass(frozen=True)
class Kind:
    """One slot of a workload's cycle: a document builder and its grids.

    A ``mirror`` slot draws nothing: it takes the previous slot's grid
    indices reversed (antithetic pairing). Each mirrored document is still
    uniform over the grid, but a cheap draw (small amplitude, large epsilon:
    few Picard iterations) is paired with a costly one, so the cost of a
    cycle, and hence a run's throughput, depends little on the seed.
    """

    build: Callable[..., dict]
    grid: dict  # parameter name -> tuple of values
    fixed: dict
    mirror: bool = False

    def document(self, index: dict) -> dict:
        return self.build(**self.fixed, **{k: self.grid[k][i] for k, i in index.items()})

    def every(self):
        names = list(self.grid)
        for combo in itertools.product(*(range(len(self.grid[n])) for n in names)):
            yield self.document(dict(zip(names, combo)))


ALPHAS = (0.15, 0.25, 0.35, 0.45)
SWEEP_SEEDS = (0, 1, 2, 3)
#: every document of this grid passes its own checks at the reference commit;
#: alpha 0.15 and epsilon 0.4-0.5 are left out because 34 of their documents
#: fail accuracy checks there (NOTES.md, "Findings")
_PICARD = {
    "alpha": (0.25, 0.35, 0.45),
    "amplitude": (0.02, 0.05, 0.08),
    "epsilon": (0.6, 0.7, 0.8),
    "mode": (1, 2),
}

#: workload name -> cycle of kinds; scenario i uses kind i % len(cycle)
WORKLOADS = {
    "picard_2d": (
        Kind(picard_doc, _PICARD, {"side": "interior"}),
        Kind(picard_doc, _PICARD, {"side": "exterior"}, mirror=True),
    ),
    "dipole_3d": (
        Kind(dipole_doc, {"strength": (0.5, 0.75, 1.0, 1.2),
                          "axis": ("z", "x", "xy", "xyz"),
                          "mode": (1, 2, 3)}, {}),
    ),
    "sweep_mixed": (
        Kind(sweep_2d_doc, {"alpha": ALPHAS, "sweep_seed": SWEEP_SEEDS}, {}),
        Kind(sweep_3d_doc, {"strength": (0.5, 1.0),
                            "axis": ("z", "x", "xyz"),
                            "sweep_seed": SWEEP_SEEDS}, {}),
    ),
}


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload])


def documents(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` scenario documents of a workload for a seed."""
    cycle = WORKLOADS[workload]
    rng = random.Random(seed)
    docs, index = [], {}
    for i in range(count):
        kind = cycle[i % len(cycle)]
        if kind.mirror:
            index = {k: len(kind.grid[k]) - 1 - j for k, j in index.items()}
        else:
            index = {k: rng.randrange(len(v)) for k, v in kind.grid.items()}
        docs.append(kind.document(index))
    return docs


def every_document(workload: str):
    """Every document the workload can generate, for recording references."""
    for kind in WORKLOADS[workload]:
        yield from kind.every()


def case_key(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
