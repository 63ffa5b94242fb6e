"""Mutation checks: each mutant is one small change to the library that some
test must catch.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list     # names, files and test selections

For each mutant the runner copies ``src``, ``tests``, ``scenarios`` and
``pyproject.toml`` into a temporary directory, replaces the mutant's exact
text (which must occur once in its file) and runs the mutant's test
selection there with ``pytest -x``.  A failing selection kills the mutant;
a passing one lets it survive.  The unmutated copy runs every selection
first, so a kill is never a test that fails anyway.  A mutant marked
equivalent changes no behaviour any test can see; it is listed with its
reason and not run.

The exit status is 0 when every mutant that is run is killed, and 1 when
one survives, when the unmutated selections fail, or when a mutant's text
is not found exactly once.  The file name does not match ``test_*.py``, so
the Tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple  # pytest node ids or paths, relative to the repository root
    equivalent: str | None = None  # why no test can see the change


MUTANTS = (
    # a field holds exactly the modes it carries: phi, dphi or zeta nonzero
    Mutant("carried-without-zeta", "src/emlab/modal.py",
           "if s.phi.any() or s.dphi.any() or s.zeta.any()]",
           "if s.phi.any() or s.dphi.any()]",
           ("tests/test_modal.py::TestHeldModes",)),
    Mutant("carried-without-dphi", "src/emlab/modal.py",
           "if s.phi.any() or s.dphi.any() or s.zeta.any()]",
           "if s.phi.any() or s.zeta.any()]",
           ("tests/test_modal.py::TestHeldModes",)),
    # and stacks them in ascending mode order, whatever the caller's order
    Mutant("stack-in-callers-order", "src/emlab/modal.py",
           "modes = tuple(sorted(carried or solutions))",
           "modes = tuple(carried or solutions)",
           ("tests/test_frequency.py::TestCallerOrder",)),
    # the Kelvin image of phi' is (2 - N) t^(1-N) phi(1/t) - t^-N phi'(1/t)
    Mutant("kelvin-dphi-sign", "src/emlab/asymptotics.py",
           "dphi=t_dphi * phi - t_n * dphi",
           "dphi=t_dphi * phi + t_n * dphi",
           ("tests/test_asymptotics.py::TestKelvin::test_image_derivative_equals_the_nodal_rule",)),
    # the Picard loop solves the modes with boundary data or forcing
    Mutant("loop-without-boundary-data", "src/emlab/modal.py",
           "if forced[k - 1] or k in data]",
           "if forced[k - 1]]",
           ("tests/test_modal.py::TestHeldModes",)),
    Mutant("roundoff-threshold-1e-3", "src/emlab/modal.py",
           "forced = zmax > 1e-13 * zmax.max()",
           "forced = zmax > 1e-3 * zmax.max()",
           ("tests/test_modal.py::TestHoistedPicard",
            "tests/test_modal.py::TestModalSupNorm::test_loop_equals_the_nodal_loop")),
    # the trust-region fit puts a step that reaches eps = 10 one ulp inside
    Mutant("fit-step-onto-upper-bound", "src/emlab/frequency.py",
           "x_new[upper] = np.nextafter(_UB[upper], _LB[upper])",
           "x_new[upper] = _UB[upper]",
           ("tests/test_frequency.py::TestLimitFit",)),
    # the dipole eigensolve skips a block whose Weyl bound lies above the
    # count-th eigenvalue found so far
    Mutant("weyl-skip-loosened", "src/emlab/angular.py",
           "if m * (m + 1) - abs(lam) > kth:",
           "if m * (m + 1) - abs(lam) > kth + 1:",
           ("tests/test_angular.py::TestReflectionBlocks",)),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)


def _run(where: Path, tests) -> tuple[bool, float]:
    """(passed, seconds) of ``pytest -x`` on the selection in a copy."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0, time.perf_counter() - t0


def _mutated(mutant: Mutant) -> str:
    """The mutant's file with its text replaced; the text must occur once."""
    text = (ROOT / mutant.file).read_text()
    if text.count(mutant.text) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.text!r} occurs "
                         f"{text.count(mutant.text)} times in {mutant.file}")
    return text.replace(mutant.text, mutant.replacement)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.file} -> {' '.join(m.tests)}"
                  + (f" (equivalent: {m.equivalent})" if m.equivalent else ""))
        return 0
    chosen = [m for m in MUTANTS if not args or m.name in args]
    unknown = set(args) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    mutated = {m.name: _mutated(m) for m in chosen}
    survived = []
    with tempfile.TemporaryDirectory(prefix="emlab-mutants-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        _copy(base)
        run = [m for m in chosen if m.equivalent is None]
        selection = sorted({t for m in run for t in m.tests})
        ok, seconds = _run(base, selection)
        print(f"unmutated: {'passed' if ok else 'FAILED'} ({seconds:.1f} s)", flush=True)
        if not ok:
            return 1
        for m in chosen:
            if m.equivalent is not None:
                print(f"{m.name}: equivalent, not run ({m.equivalent})", flush=True)
                continue
            where = tmp / m.name
            _copy(where)
            (where / m.file).write_text(mutated[m.name])
            ok, seconds = _run(where, m.tests)
            print(f"{m.name}: {'SURVIVED' if ok else 'killed'} ({seconds:.1f} s)", flush=True)
            if ok:
                survived.append(m.name)
            shutil.rmtree(where)
    if survived:
        print(f"survivors: {', '.join(survived)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
