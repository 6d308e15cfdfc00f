"""Run-time control of the BLAS thread count.

NumPy's bundled OpenBLAS exports a setter and a getter for its thread count.
They are reached through `ctypes` from NumPy's core extension module, whose
library dependencies `dlsym` searches. A NumPy built against another BLAS has
neither symbol; then `threads` sets nothing and says so.
"""

import contextlib
import ctypes

_SETTER = "scipy_openblas_set_num_threads64_"
_GETTER = "scipy_openblas_get_num_threads64_"


def _resolve():
    """(set, get) of the bundled OpenBLAS, or None where it has none."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
        set_threads, get_threads = getattr(lib, _SETTER), getattr(lib, _GETTER)
    except (OSError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


CONTROL = _resolve()


@contextlib.contextmanager
def threads(n):
    """Holds the BLAS at n threads inside the block and restores the
    caller's count on the way out, also on an exception. Yields True, or
    False when the count cannot be set (CONTROL is None)."""
    control = CONTROL
    if control is None:
        yield False
        return
    set_threads, get_threads = control
    before = get_threads()
    set_threads(n)
    try:
        yield True
    finally:
        set_threads(before)
