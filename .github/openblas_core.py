"""Print the name of the OpenBLAS kernel set that numpy's bundled library picked.

    python .github/openblas_core.py

numpy.show_runtime omits the core name without threadpoolctl, so it is read
from the wheel's own library, through its exported getter.
"""

import ctypes
import glob
import os

import numpy

libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
corename = next((getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None) for lib in libs), None)
if corename is None:
    print("OpenBLAS core name unavailable")
else:
    corename.restype = ctypes.c_char_p
    print("OpenBLAS core:", corename().decode())
