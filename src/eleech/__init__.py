"""Exact machinery for the Lorentzian Eisenstein Leech lattice L, its
26-root projective-plane diagram and the reflection group they generate.

Everything numerical in the verification paths is exact: Eisenstein and
cyclotomic integer arithmetic, Z[sqrt 3] heights, integral certificates.
"""

from .rings import Eis, Cyclo12, SqrtThree, OMEGA, OMEGA2, THETA, UNITS

__all__ = [
    "Eis",
    "Cyclo12",
    "SqrtThree",
    "OMEGA",
    "OMEGA2",
    "THETA",
    "UNITS",
]
