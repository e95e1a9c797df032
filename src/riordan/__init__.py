"""Exact-arithmetic Riordan arrays, square symmetrizations, and principal
minor sequences, with the array families tied to the six- and twenty-vertex
lattice model numbers."""

from .array import RiordanPair, identity_pair
from .bivar import BivarPoly, BivariateRational, CoeffMatrix, expand
from .minors import principal_minors
from .series import Series
from .symmetry import symmetrize, symmetrize_gf

__all__ = [
    "BivarPoly",
    "BivariateRational",
    "CoeffMatrix",
    "RiordanPair",
    "Series",
    "expand",
    "identity_pair",
    "principal_minors",
    "symmetrize",
    "symmetrize_gf",
]
