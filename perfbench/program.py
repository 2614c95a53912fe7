"""Locate and import the venngraph package from the checkout's ``src``.

The benchmark measures the source tree it sits in, never an installed
copy: the package must come from ``<checkout>/src/venngraph``, and the
import fails loudly when it is missing.  Numerical libraries are pinned to
one thread before anything imports numpy, so every workload runs in one
single-threaded process.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
OUT = ROOT / ".bench_out"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissingError(RuntimeError):
    """The checkout holds no venngraph sources to measure."""


def load():
    """Import venngraph from ``src`` and return the package."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "venngraph" / "__init__.py").is_file():
        raise ProgramMissingError(f"no venngraph package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("venngraph")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissingError(f"venngraph imported from {origin}, not from {SRC}")
    return pkg


def module(name: str):
    """A venngraph submodule by name.

    Goes through ``sys.modules`` because the package re-exports functions
    under the same names as some submodules (``venngraph.dual``).
    """
    return importlib.import_module(f"venngraph.{name}")
