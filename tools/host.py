"""The host line that ``tools/digests.py`` prints first and the test suite
prints in its session header: bit-level results can differ between the
kernels it names. Importing this module sets no environment variable, so it
changes nothing in the process that loads it."""

from __future__ import annotations

import ctypes

import numpy as np


def host_line() -> str:
    """numpy's version, its enabled SIMD dispatch targets and the core its
    bundled OpenBLAS runs (``unknown`` where that library has no
    ``scipy_openblas_get_corename64_``)."""
    from numpy._core import _multiarray_umath as umath

    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    # dlsym through numpy's own extension also searches the BLAS it links
    corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    core = "unknown"
    if corename is not None:
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        core = corename().decode()
    return f"host numpy={np.__version__} simd={','.join(simd)} openblas={core}"
