"""Seeded test corpora: random parameters of the canonical derivation and
automorphism families, and random algebras whose constants respect the
mask of a diagonal derivation diag(1, lam, mu).

Each draw depends on the order of NAMED_SLOTS and on the generator's
state, so a seeded test sees the same inputs on every run.
"""
from __future__ import annotations

import numpy as np

from hqds3.algebra import NAMED_SLOTS, Algebra, from_named
from hqds3.derivations import MASK_LINES, RELATIONS, admissible_mask


def slot_defects(lam: float, mu: float) -> dict[str, float]:
    """d_k - (d_i + d_j) at d = (1, lam, mu) for each conditional letter; its
    constant survives diag(d) where this is zero."""
    defects = RELATIONS @ np.array([1.0, lam, mu])
    return {letter: float(v) for letter, v in zip(NAMED_SLOTS, defects) if letter in MASK_LINES}


DERIVATION_PARAM_COUNT = {"A1": 1, "A2": 5, "A3": 4, "A4": 4}


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
