"""Permutation-invariant and -equivariant agent networks for cooperative
multi-agent Q-learning, with a deterministic micro-battle environment,
VDN/QMIX learners, and a small experiment CLI."""

import os
import sys
import warnings

# one BLAS thread before numpy loads: threaded sums depend on the host
_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS",
                               os.environ.get("OMP_NUM_THREADS"))
if "numpy" in sys.modules and _blas_threads != "1":
    warnings.warn(
        "permnet was imported after numpy while OPENBLAS_NUM_THREADS (or "
        f"OMP_NUM_THREADS) was {_blas_threads or 'unset'}, not 1: BLAS keeps "
        "the thread count numpy started with, and weight-gradient bytes "
        "depend on it; import permnet before numpy, or set "
        "OPENBLAS_NUM_THREADS=1", UserWarning)
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))


def blas_setup() -> tuple[int | None, str | None]:
    """The BLAS thread count in force and the OpenBLAS kernel (such as
    ``SkylakeX``) of numpy's bundled scipy-openblas, read through ctypes:
    training bytes depend on both.  A part that cannot be read is None:
    another BLAS, a library that fails to load, or a missing symbol."""
    import ctypes
    import glob

    import numpy
    found = sorted(glob.glob(os.path.join(
        os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
        "*openblas*")))
    try:
        blas = ctypes.CDLL(found[0])
    except (IndexError, OSError):
        return None, None

    def read(name, restype):
        get = getattr(blas, name, None)
        if get is None:
            return None
        get.argtypes, get.restype = (), restype
        return get()

    kernel = read("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return (read("scipy_openblas_get_num_threads64_", ctypes.c_int),
            kernel.decode() if kernel else None)


# glibc keeps this much freed heap above the break instead of trimming it:
# a backward frees its gradients mid-pass, and a trimmed heap is
# page-faulted back in on the next train step
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


def _keep_freed_heap():
    # no os.confstr (Windows), no such name (macOS) or not glibc (musl)
    # raise; so do a C library that fails to load or lacks mallopt
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_freed_heap()

__version__ = "0.1.0"
