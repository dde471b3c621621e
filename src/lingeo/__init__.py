"""Blocking sets and linear sets in finite projective spaces.

Importing lingeo sets the environment variable ``OPENBLAS_NUM_THREADS``
to 1, unless it is already set, for this process and the processes it
starts: when lingeo loads numpy first, numpy's BLAS (``np.linalg``,
``np.dot``) runs on one thread.  Set the variable before the import to
keep more threads.
"""

import os

# lingeo's arithmetic is integer table lookups and never calls BLAS, but
# numpy's OpenBLAS starts one pool thread per CPU when it loads, and those
# threads cost CPU time.  One thread unless the user chose otherwise; this
# must run before the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .gf import FieldSpec, make_field
from .pg import (Geometry, PointSet, Subspace, build_geometry, intersect,
                 line_through, points_of, set_meet, span)
from .reduction import SpreadContext

__all__ = [
    "FieldSpec", "make_field", "Geometry", "PointSet", "Subspace",
    "build_geometry", "intersect", "line_through", "points_of", "set_meet",
    "span", "SpreadContext",
]
