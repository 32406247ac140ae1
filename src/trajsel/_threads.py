"""SUPRIM_THREADS: one setting for worker threads and BLAS thread pools.

BLAS libraries size their thread pools when numpy is first imported, so
the package applies the cap on import, before any module that loads
numpy.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> int:
    """Worker count from SUPRIM_THREADS (1 when unset), exported to BLAS.

    Thread variables that are already set keep their values. Raises
    ValueError when SUPRIM_THREADS is not an integer.
    """
    cap = os.environ.get("SUPRIM_THREADS", "")
    if not cap.strip():
        return 1
    n = max(1, int(cap))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(n))
    return n
