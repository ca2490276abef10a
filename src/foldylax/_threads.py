"""FOLDYLAX_THREADS, parsed in one place.

The value is the worker count of Foldy-Lax assembly's strip fill
(geometry.row_block_pass) and the thread count of scipy's BLAS in the dense
LU (foldy._checked_lu_solve). numpy's BLAS is not among them: the CLI loads
it with one thread. Unset or empty, the value is the number of CPUs this
process may run on. This module imports the standard library only.
"""

from __future__ import annotations

import os


def thread_count() -> int:
    """FOLDYLAX_THREADS as a positive int, else the CPUs available to this process.

    Raises:
        ValueError: FOLDYLAX_THREADS is set but is not a positive integer.
    """
    value = os.environ.get("FOLDYLAX_THREADS", "")
    if value == "":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("FOLDYLAX_THREADS must be a positive integer")
    return n
