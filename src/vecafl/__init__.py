"""Vehicular asynchronous federated learning simulator.

Self-contained numpy simulation of a roadside unit that aggregates local
models uploaded by passing vehicles over a fading uplink.  Vehicle selection
is learned with an actor-critic policy, and uploads can be screened by a
loss-threshold filter against a trusted model kept at the roadside unit.

Importing the package pins numpy's OpenBLAS to one thread.  The agent's
products are large enough for OpenBLAS to split over threads, which changes
their last bits with the thread count and leaves the idle worker spinning
through the rest of each slot.  ``BLAS_CORE`` names the kernel family it
runs, which can change those bits too.
"""

import ctypes
import glob
import os
import warnings

import numpy as np

__version__ = "0.1.0"


def _pin_blas_to_one_thread():
    """Set numpy's bundled scipy-openblas to one thread; return the thread
    count it reads back and the kernel family it runs, such as "SkylakeX",
    or (None, None), with a warning, when it is not found."""
    home = os.path.dirname(np.__file__)
    # numpy 2 wheels bundle it in numpy.libs (Linux, Windows) or numpy/.dylibs
    for path in sorted(glob.glob(os.path.join(home + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(home, ".dylibs",
                                                "*openblas*"))):
        lib = ctypes.CDLL(path)
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        if None not in (set_threads, get_threads, corename):
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            set_threads(1)
            return get_threads(), corename().decode()
    warnings.warn("vecafl: numpy's scipy-openblas was not found, so BLAS "
                  "keeps its own thread count; the agent's nets may then "
                  "differ in their last bits from a one-thread run",
                  RuntimeWarning, stacklevel=2)
    return None, None


# thread count of numpy's BLAS after pinning, and the kernel family it runs
# (which OPENBLAS_CORETYPE can change); None where they are unknown
BLAS_THREADS, BLAS_CORE = _pin_blas_to_one_thread()
