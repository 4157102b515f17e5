"""METIVIER_THREADS: one thread count for the numeric libraries' pools.

OpenBLAS and OpenMP read their thread counts once, when numpy and scipy
load, so the package applies the cap on import, before its numerical
modules load.  This module imports nothing numerical.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def apply_thread_cap():
    """Copy METIVIER_THREADS into each library's thread variable.

    Does nothing when it is unset; raises ValueError unless it is a positive
    integer.
    """
    raw = os.environ.get("METIVIER_THREADS")
    if raw is None:
        return
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"METIVIER_THREADS must be a positive integer, got {raw!r}")
    for var in THREAD_VARS:
        os.environ[var] = str(count)
