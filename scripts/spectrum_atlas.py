"""Classify every algebra a diagonal SSND allows, by both routes.

diag(1, lam, mu) with lam * mu != 0 lets a conditional constant survive
exactly on that constant's line of MASK_LINES, so the meets of the nine
lines and one point on each line off the others are every case there is.
The sites are the 24 meets with lam * mu != 0 and one such point per line.
At each site, every nonempty set of the letters allowed there, with every
sign pattern of +-1 constants, is one algebra.  The diagonal rescalings
reach any other magnitudes, except on the three supports of three letters,
whose sites have a repeated eigenvalue.

Prints the families of the meets and the tag counts; exits 1 when the two
routes give different tags to some algebra.

Usage: PYTHONPATH=src python3 scripts/spectrum_atlas.py
"""
import argparse
import itertools
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from hqds3.algebra import NAMED_SLOTS, from_named
from hqds3.classify import ClassificationResult, classify, classify_via_derivation
from hqds3.derivations import MASK_LINES, RELATIONS, normalize_spectrum

# letter -> integer coefficients (a, b, c) of its line a + b lam + c mu = 0
LINES = {
    letter: tuple(int(x) for x in row)
    for letter, row in zip(NAMED_SLOTS, RELATIONS)
    if letter in MASK_LINES
}


class Entry(NamedTuple):
    site: tuple[Fraction, Fraction]
    constants: dict
    invariant: ClassificationResult
    derivation: ClassificationResult


def letters_on(lam: Fraction, mu: Fraction) -> tuple[str, ...]:
    """The letters whose line passes exactly through (lam, mu)."""
    return tuple(k for k, (a, b, c) in LINES.items() if a + b * lam + c * mu == 0)


def meets() -> list[tuple[Fraction, Fraction]]:
    """The points where two or more lines meet, with lam * mu != 0."""
    out = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(LINES.values(), 2):
        det = b1 * c2 - b2 * c1
        if det:
            lam, mu = Fraction(a2 * c1 - a1 * c2, det), Fraction(a1 * b2 - a2 * b1, det)
            if lam * mu:
                out.add((lam, mu))
    return sorted(out)


def line_point(letter: str) -> tuple[Fraction, Fraction]:
    """A point with lam * mu != 0 on the letter's line and on no other."""
    a, b, c = LINES[letter]
    for t in itertools.count(3):
        lam, mu = (Fraction(t), Fraction(-a - b * t, c)) if c else (Fraction(-a, b), Fraction(t))
        if lam * mu and letters_on(lam, mu) == (letter,):
            return lam, mu


def atlas() -> list[Entry]:
    entries = []
    for site in meets() + [line_point(letter) for letter in LINES]:
        letters = letters_on(*site)
        for size in range(1, len(letters) + 1):
            for support in itertools.combinations(letters, size):
                for signs in itertools.product((1.0, -1.0), repeat=size):
                    constants = dict(zip(support, signs))
                    alg = from_named(**constants)
                    entries.append(
                        Entry(site, constants, classify(alg), classify_via_derivation(alg))
                    )
    return entries


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    points = meets()
    sizes = Counter(len(letters_on(*p)) for p in points)
    families = Counter(normalize_spectrum([1.0, float(x), float(y)]).family for x, y in points)
    print(f"{len(points)} meets: "
          + ", ".join(f"{n} with {k} letters" for k, n in sorted(sizes.items())))
    print("families of the meets: " + ", ".join(f"{f}: {n}" for f, n in sorted(families.items())))

    entries = atlas()
    tags = Counter(e.invariant.tag for e in entries)
    print(f"{len(entries)} algebras: " + ", ".join(f"{t} {n}" for t, n in sorted(tags.items())))
    extras = {e.invariant.fingerprint for e in entries if e.invariant.tag == "NotInFamily"}
    print(f"NotInFamily classes (distinct fingerprints): {len(extras)}")
    bad = [e for e in entries if e.invariant.tag != e.derivation.tag]
    for e in bad:
        print(f"routes disagree at (lambda, mu) = ({e.site[0]}, {e.site[1]}) on {e.constants}: "
              f"{e.invariant.tag} vs {e.derivation.tag}", file=sys.stderr)
    print(f"route disagreements: {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
