"""Process environment for the benchmark and its server child.

Imported before numpy: BLAS reads its thread count once, at load.  On a
2-CPU machine OpenBLAS's default of 2 threads took 7.7 ms for a
``(1x768) @ (768x768)`` product against 0.17 ms with 1 thread, so with the
default the benchmark would measure the scheduler, not the program.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment for a child process: one BLAS thread, the checkout's src."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def prepare() -> None:
    """Pin BLAS to one thread and import ``repro`` from this checkout's src.

    Raises ``RuntimeError`` when the checkout has no ``src/repro`` (or numpy
    was imported first), so a benchmark run without the program fails
    instead of measuring something else.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bench.env.prepare() must run before numpy is imported")
    os.environ.update({name: "1" for name in THREAD_VARS})
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise RuntimeError(f"repro imported from {repro.__file__}, not {SRC}")


def describe() -> dict:
    """What a result depends on besides the code: threads, cores, numpy."""
    import numpy as np

    return {
        **{name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
