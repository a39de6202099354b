"""fastwave: numerical workbench for KAM reducibility of fast-driven wave equations."""

import importlib

from .opmatrix import set_blas_threads

__version__ = "0.1.0"

# fastwave owns the cores (opmatrix's helper thread, the measure stage's forked
# workers), so BLAS runs on one thread.  scipy.linalg loads its own OpenBLAS
# copy on import: load it first, so that the pin reaches it too.
importlib.import_module("scipy.linalg")
set_blas_threads(1)
