"""Locate the program under test.

``load()`` pins BLAS to one thread in this process's environment (children
inherit it) and imports ``lase`` from this checkout's ``src/``, never from an
installed copy.  It must run before numpy is first imported.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def load():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lase
    where = os.path.dirname(os.path.abspath(lase.__file__))
    if where != os.path.join(SRC, "lase"):
        raise ImportError("lase imported from %s, not from %s" % (where, SRC))
    return lase
