"""Exact product-set growth toolkit over finite groups.

Everything size-like is an integer and every inequality is checked in
integer or rational arithmetic; ledgers collect the checks row by row.

Import what you use from its submodule (``setgrowth.groups``,
``setgrowth.setops``, ``setgrowth.structure``, ``setgrowth.bsg``,
``setgrowth.entropy``, ``setgrowth.heisenberg``, ``setgrowth.suites``, ...):
the package itself loads none of them, so a process compiles only the
modules it reaches.
"""

import os

# no setgrowth routine calls BLAS, yet an idle OpenBLAS worker spins on a
# second core once numpy is imported; a value the user set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
