"""Blocking sets and linear sets in finite projective spaces."""

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
