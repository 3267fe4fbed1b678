"""Exact computations with root systems, characters of highest-weight
representations, and the incidence geometries of standard representations."""

from .charring import FormalCharacter, decompose, irrep_character, weyl_dimension
from .geometry import Geometry, dimension_diagram, hasse_diagram, incidence
from .rootsystem import ConsistencyError, RefusedError, RootSystem

__all__ = [
    "ConsistencyError",
    "FormalCharacter",
    "Geometry",
    "RefusedError",
    "RootSystem",
    "decompose",
    "dimension_diagram",
    "hasse_diagram",
    "incidence",
    "irrep_character",
    "weyl_dimension",
]
