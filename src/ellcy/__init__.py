"""Exact arithmetic for genus-0 curve counts on the elliptic Calabi-Yau
threefold over the degree-8 del Pezzo surface."""

from .series import PrecisionError, QSeries
from .geometry import CurveClass, Gamma19Class

__all__ = [
    "QSeries",
    "PrecisionError",
    "CurveClass",
    "Gamma19Class",
]

__version__ = "0.1.0"
