"""The thread count of numpy's bundled OpenBLAS, read and pinned through ctypes.

The last digits of a basis build or a solve follow the OpenBLAS thread
count, so every computation that makes a CSV row or a cached basis runs
inside _blas_pinned, at _BLAS_THREADS threads.  The pin sets the count
only when it differs and restores only a count it changed: a set call in
a forked worker, even from 1 to 1, starts an OpenBLAS thread there that
spins for about 0.1 s of CPU.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# OpenBLAS threads of every computation that makes a CSV row or a basis
_BLAS_THREADS = 1


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS through ctypes, or None where numpy carries none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def _set_blas_threads(count):
    """Give numpy's OpenBLAS count threads; return the count it had, or None without it.

    The count is set only when it differs from the one it had.
    """
    lib = _openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    if previous != count:
        lib.scipy_openblas_set_num_threads64_(count)
    return previous


@contextlib.contextmanager
def _blas_pinned():
    """Run the block with OpenBLAS at _BLAS_THREADS threads, then restore a count it changed."""
    previous = _set_blas_threads(_BLAS_THREADS)
    try:
        yield
    finally:
        if previous not in (None, _BLAS_THREADS):
            _set_blas_threads(previous)
