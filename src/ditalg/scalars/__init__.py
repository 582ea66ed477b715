"""Exact field, polynomial, and linear-algebra kernel."""

from .fields import Field, FieldError, PrimeField, RationalField, QQ, field_from_name, is_prime
from .poly import Poly, factor, squarefree_decomposition
from . import linalg
from .smith import PolyRing, poly_kernel_basis, smith_normal_form
from .localize import (
    LocalizedRing,
    LocElt,
    LocalizationResult,
    ModulePresentation,
    independent_over_localization,
    localize_to_free,
    strip_h_factors,
)

__all__ = [
    "Field", "FieldError", "PrimeField", "RationalField", "QQ",
    "field_from_name", "is_prime",
    "Poly", "factor", "squarefree_decomposition",
    "linalg",
    "PolyRing", "poly_kernel_basis", "smith_normal_form",
    "LocalizedRing", "LocElt", "LocalizationResult", "ModulePresentation",
    "independent_over_localization", "localize_to_free",
    "strip_h_factors",
]
