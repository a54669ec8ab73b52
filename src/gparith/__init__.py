"""Exact generalised-polynomial arithmetic and first-order verification toolkit."""

from .exactnum import (
    AlgebraicReal,
    NumberField,
    circle_norm,
    floor_exact,
    frac_signed,
    nint,
    sign,
)

__all__ = [
    "AlgebraicReal",
    "NumberField",
    "circle_norm",
    "floor_exact",
    "frac_signed",
    "nint",
    "sign",
]

__version__ = "0.1.0"
