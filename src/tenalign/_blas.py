"""The thread count of numpy's OpenBLAS, read and set through ``ctypes``.

Each ``tenalign`` command runs on one BLAS thread (:func:`one_thread`).  On
the package's shapes a second OpenBLAS thread makes the QR and SVD of the
rank reveal slower and keeps a core spinning, and the thread count changes
the last bits of their results.  OpenBLAS reads ``OPENBLAS_NUM_THREADS``
only when numpy loads, so the count is set through the library itself.
Library calls made outside the CLI are left to those environment caps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

__all__ = ["one_thread", "threads"]


@functools.cache
def _library():
    """The ``(get, set)`` thread functions of the OpenBLAS numpy calls, or
    ``None`` where numpy links another BLAS (MKL, Accelerate).

    Looked up on first use, never at import.  The symbols are resolved
    through numpy's linear-algebra extension, whose dependencies include
    the BLAS it was linked against, wherever that library lives.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    # numpy's wheels name them with a scipy_ prefix and a 64_ suffix (older
    # wheels with the suffix only); a system OpenBLAS with neither
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        try:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        put.argtypes = [ctypes.c_int]
        put.restype = None
        return get, put
    return None


def threads() -> int | None:
    """The thread count of numpy's OpenBLAS now; ``None`` without one."""
    lib = _library()
    return None if lib is None else lib[0]()


@contextlib.contextmanager
def one_thread():
    """Run the body with numpy's OpenBLAS on one thread, then set the
    caller's count back.  Without an OpenBLAS the body runs as it is."""
    lib = _library()
    if lib is None:
        yield
        return
    get, put = lib
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
