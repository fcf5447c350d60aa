"""Canonical algebras, their symmetry families, and test-corpus generators.

The paper classifies the three-dimensional commutative algebras that admit
a real-diagonalizable invertible derivation into four canonical
multiplication tables (two more such algebras, with spectra (1, 2, 4) and
(1, 2, 3), are none of them; both routes call them NotInFamily):

    A1: e1*e1 = e3, e2*e3 = e1
    A2: e3*e3 = e2
    A3: e1*e2 = e3
    A4: e1*e1 = e3, e2*e2 = e3

Each table comes with an explicit parametric family of derivations and of
automorphisms, plus the matching canonical quadratic dynamical system.
"""
from __future__ import annotations

import numpy as np

from .algebra import NAMED_SLOTS, Algebra, change_of_basis, from_named, from_products
from .derivations import MASK_LINES, admissible_mask, slot_defects
from .linalg import random_well_conditioned

# built once: an Algebra is immutable, so every caller shares one instance
_TABLES = {
    "A1": from_products({(1, 1): (0.0, 0.0, 1.0), (2, 3): (1.0, 0.0, 0.0)}),
    "A2": from_products({(3, 3): (0.0, 1.0, 0.0)}),
    "A3": from_products({(1, 2): (0.0, 0.0, 1.0)}),
    "A4": from_products({(1, 1): (0.0, 0.0, 1.0), (2, 2): (0.0, 0.0, 1.0)}),
}
CANONICAL_TAGS = tuple(_TABLES)


def canonical_algebra(tag: str) -> Algebra:
    """The canonical multiplication table for one of the four tags, the
    same object on every call."""
    if tag not in _TABLES:
        raise ValueError(f"unknown canonical tag {tag!r}")
    return _TABLES[tag]


def canonical_system(k: int) -> Algebra:
    """Structure tensor of the k-th representative quadratic system (1..4).

    1: x1' = 2 x2 x3, x2' = 0, x3' = x1^2      (the A1 table itself)
    2: x1' = 0, x2' = 0, x3' = x1^2            (isomorphic to A2)
    3: x1' = 0, x2' = 0, x3' = 2 x1 x2         (the A3 table itself)
    4: x1' = 0, x2' = 0, x3' = x1^2 + x2^2     (the A4 table itself)
    """
    if k == 1:
        return canonical_algebra("A1")
    if k == 2:
        return from_products({(1, 1): (0.0, 0.0, 1.0)})
    if k == 3:
        return canonical_algebra("A3")
    if k == 4:
        return canonical_algebra("A4")
    raise ValueError("canonical system index must be 1..4")


# ---------------------------------------------------------------------------
# derivation families, one parametric form per tag


def derivation_family(tag: str, params) -> np.ndarray:
    """A member of the full derivation space of the canonical table.

    Parameter counts: A1 takes 1, A2 takes 5, A3 and A4 take 4.
    """
    p = np.asarray(params, dtype=float)
    if tag == "A1":
        (x,) = p
        return np.diag([x, -x, 2.0 * x])
    if tag == "A2":
        x, y, z, u, v = p
        return np.array([[x, 0.0, u], [y, 2.0 * z, v], [0.0, 0.0, z]])
    if tag == "A3":
        x, y, z, v = p
        return np.array([[x, 0.0, 0.0], [0.0, z, 0.0], [y, v, x + z]])
    if tag == "A4":
        x, y, z, v = p
        return np.array([[x, -y, 0.0], [y, x, 0.0], [z, v, 2.0 * x]])
    raise ValueError(f"unknown canonical tag {tag!r}")


DERIVATION_PARAM_COUNT = {"A1": 1, "A2": 5, "A3": 4, "A4": 4}


# ---------------------------------------------------------------------------
# automorphism families


def automorphism_family(tag: str, params) -> np.ndarray:
    """A member of the automorphism group of the canonical table.

    Parameter conventions (all produce invertible matrices):
      A1: (x,) with x != 0            -> diag(x, 1/x, x^2)
      A2: (x, y, z, u, v), x, z != 0  -> upper-triangular-like block form
      A3: (x, y, z, v), x, z != 0     -> lower-triangular form
      A4: (theta, rho, z, v), rho > 0 -> rotation x scaling block form
    A3's group has a second connected component: compose with
    automorphism_swap('A3').
    """
    p = np.asarray(params, dtype=float)
    if tag == "A1":
        (x,) = p
        if x == 0.0:
            raise ValueError("A1 automorphism needs x != 0")
        return np.diag([x, 1.0 / x, x * x])
    if tag == "A2":
        x, y, z, u, v = p
        if x == 0.0 or z == 0.0:
            raise ValueError("A2 automorphism needs x, z != 0")
        return np.array([[x, 0.0, u], [y, z * z, v], [0.0, 0.0, z]])
    if tag == "A3":
        x, y, z, v = p
        if x == 0.0 or z == 0.0:
            raise ValueError("A3 automorphism needs x, z != 0")
        return np.array([[x, 0.0, 0.0], [0.0, z, 0.0], [y, v, x * z]])
    if tag == "A4":
        theta, rho, z, v = p
        if rho <= 0.0:
            raise ValueError("A4 automorphism needs rho > 0")
        c, s = rho * np.cos(theta), rho * np.sin(theta)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [z, v, rho * rho]])
    raise ValueError(f"unknown canonical tag {tag!r}")


def automorphism_swap(tag: str) -> np.ndarray:
    """The involution generating A3's second automorphism component."""
    if tag != "A3":
        raise ValueError("only A3 has a swap component")
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def random_derivation_params(tag: str, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(DERIVATION_PARAM_COUNT[tag])


def random_automorphism_params(tag: str, rng: np.random.Generator) -> np.ndarray:
    """Draw parameters away from the singular locus of each family."""
    if tag == "A1":
        x = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        return np.array([x])
    if tag == "A2":
        x = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        z = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        y, u, v = rng.standard_normal(3)
        return np.array([x, y, z, u, v])
    if tag == "A3":
        x = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        z = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        y, v = rng.standard_normal(2)
        return np.array([x, y, z, v])
    if tag == "A4":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rho = rng.uniform(0.3, 3.0)
        z, v = rng.standard_normal(2)
        return np.array([theta, rho, z, v])
    raise ValueError(f"unknown canonical tag {tag!r}")


# ---------------------------------------------------------------------------
# corpus generators


def conjugated_canonical(tag: str, rng: np.random.Generator) -> tuple[Algebra, np.ndarray]:
    """A random well-conditioned change of basis (``random_well_conditioned``)
    applied to a canonical table."""
    m = random_well_conditioned(rng)
    return change_of_basis(canonical_algebra(tag), m), m


def random_symmetric_algebra(rng: np.random.Generator) -> Algebra:
    """Gaussian structure tensor, symmetrized in the first two slots."""
    raw = rng.standard_normal((3, 3, 3))
    return Algebra(0.5 * (raw + raw.transpose(1, 0, 2)))


def random_mask_spectrum(rng: np.random.Generator) -> tuple[float, float]:
    """Draw (lam, mu), |.| <= 5, either on a constraint line with margin 1
    from the excluded points, or fully generic with margin 1 from all lines."""

    def margin_ok(lam: float, mu: float, skip: str | None) -> bool:
        if min(abs(lam), abs(mu)) < 0.2:
            return False
        return all(abs(v) >= 1.0 for letter, v in slot_defects(lam, mu).items() if letter != skip)

    # in NAMED_SLOTS order, which seeded corpora depend on
    letters = [letter for letter in NAMED_SLOTS if letter in MASK_LINES]
    while True:
        if rng.uniform() < 0.5:
            letter = letters[rng.integers(len(letters))]
            t = rng.uniform(-5.0, 5.0)
            # the point at parameter t on the line of the letter's constant
            lam, mu = {
                "b": (2.0, t),
                "c": (t, 2.0),
                "d": (0.5, t),
                "g": (t, 0.5),
                "f": (t, 2.0 * t),
                "h": (2.0 * t, t),
                "n": (t, t + 1.0),
                "q": (t + 1.0, t),
                "s": (t, 1.0 - t),
            }[letter]
            if max(abs(lam), abs(mu)) <= 5.0 and margin_ok(lam, mu, skip=letter):
                return lam, mu
        else:
            lam, mu = rng.uniform(-5.0, 5.0, size=2)
            if margin_ok(lam, mu, skip=None):
                return lam, mu


def random_mask_algebra(
    lam: float, mu: float, rng: np.random.Generator
) -> Algebra:
    """An algebra whose constants respect the diag(1, lam, mu) mask, with
    every allowed constant drawn nonzero in [-1, -0.1] u [0.1, 1]."""
    return from_named(**{
        letter: rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        for letter in admissible_mask(lam, mu)
    })
