"""Paths and process environment shared by the benchmark scripts."""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: pinned to 1 in every process the benchmark starts; MALLOC_* is left alone
#: so the benchmark measures the allocator behaviour users get
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict:
    """Environment for a benchmark subprocess: one BLAS thread, and no
    bytecode cache written into the checkout."""
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class _SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles the module from source: reads no bytecode cache, writes none."""

    def path_stats(self, path):
        raise OSError("bytecode cache bypassed")  # get_code then compiles


class _EmlabFromSource(importlib.abc.MetaPathFinder):
    """Loads every ``emlab`` module with ``_SourceOnlyLoader``, so set-up
    compiles emlab alike whatever ``__pycache__`` the checkout holds."""

    def find_spec(self, name, path=None, target=None):
        if name != "emlab" and not name.startswith("emlab."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and isinstance(spec.loader, importlib.machinery.SourceFileLoader):
            spec.loader = _SourceOnlyLoader(spec.loader.name, spec.loader.path)
        return spec


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first so no installed emlab is imported,
    and compile emlab from source on import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if not any(isinstance(f, _EmlabFromSource) for f in sys.meta_path):
        sys.meta_path.insert(0, _EmlabFromSource())


def check_emlab_origin(module) -> None:
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported emlab from {origin}, not from {SRC}")
