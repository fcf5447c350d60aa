"""Commutative 3-d algebras and their homogeneous quadratic systems.

The quadratic system x' = x * x on R^3 and the commutative algebra with
structure tensor c are two views of one object; this package classifies the
algebras that admit an invertible real-diagonalizable derivation into four
canonical classes, reports the two such algebras outside them as
NotInFamily, and verifies the matching dynamical dictionary.  Everything
else is imported from its module.
"""
from .algebra import Algebra, change_of_basis, from_named, idempotents, nilpotent_cone
from .catalog import canonical_algebra
from .classify import classify, classify_via_derivation
from .derivations import admissible_mask, derivation_space, find_real_ssnd
from .dynamics import affine_flow, integrate, integrate_batch, ray_solution

__version__ = "0.1.0"
