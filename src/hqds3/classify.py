"""Classification of commutative 3-d algebras up to isomorphism.

Two independent routes produce the same answer on the classified family:

* ``classify`` computes basis-free invariants (annihilator, square ideal,
  nilpotent cone, derivation dimension, structural flags) and then runs an
  explicit recipe that builds a certificate basis for one of the four
  canonical tables.
* ``classify_via_derivation`` first searches for an invertible
  real-diagonalizable derivation, rewrites the algebra in its eigenbasis,
  normalizes the eigenvalue triple, and reduces the few surviving structure
  constants case by case.

Every positive answer carries a certificate matrix m whose columns express
the canonical basis in the input coordinates: change_of_basis(alg, m)
reproduces the canonical table entrywise within TAU_CERT.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    NilconeDescriptor,
    SingularBasis,
    Subspace,
    change_of_basis,
    ideal_structure,
    left_mult_matrix,
    nilpotent_cone,
    product,
    rewritten_constants,
    structure_flags,
)
from .catalog import CANONICAL_TAGS, canonical_algebra
from .derivations import (
    IllConditioned,
    SingularSpectrum,
    SpectrumCase,
    admissible_mask,
    analyze_spectrum,
    derivation_residual,
    derivation_space,
    find_real_ssnd,
    leibniz_operator,
    mask_residual,
    normalize_spectrum,
    real_eigenbasis,
)
from .linalg import orthonormal_complement, sign_canonical
from .tolerances import TAU_CERT

DEFINITE_TAGS = CANONICAL_TAGS + ("NullAlgebra",)
ALL_TAGS = DEFINITE_TAGS + ("NotInFamily",)

# an algebra is the zero algebra when no constant exceeds this
TAU_NULL = 1e-12


@dataclass(frozen=True)
class InvariantFingerprint:
    """Basis-free invariants separating the four canonical classes."""

    dim_ann: int
    dim_sq: int
    sq_in_ann: bool
    nilcone_kind: str
    induced_form: str  # 'definite' | 'indefinite' | 'degenerate' | 'n/a'
    dim_der: int
    solvable: bool
    nilpotent: bool
    associative: bool
    power_associative: bool


# comparison order for witnesses: most robust invariants first
_WITNESS_FIELDS = (
    "dim_ann",
    "nilcone_kind",
    "induced_form",
    "dim_sq",
    "dim_der",
    "nilpotent",
    "associative",
    "power_associative",
    "solvable",
    "sq_in_ann",
)


@functools.lru_cache(maxsize=256)
def _cone_cached(norm: Algebra) -> NilconeDescriptor:
    """Nilpotent cone keyed on the instance: callers pass the normalized
    form, which is one object per algebra, so all routes share one cone.
    The cone is exact: its lines and planes come from the steady-state
    forms' signature or a singular member of their pencil."""
    return nilpotent_cone(norm)


def _quotient_form(norm: Algebra, sq: Subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, lift_basis, B): products of lifts satisfy u*v = B(u, v) * w.

    Requires Ann and A*A to be lines with A*A inside Ann; w is the
    sign-canonical unit generator of A*A and lift_basis spans a complement.
    """
    w = sign_canonical(sq.basis[0])
    lifts = orthonormal_complement(w[None, :])
    b = np.array(
        [[float(product(norm, lifts[i], lifts[j]) @ w) for j in range(2)] for i in range(2)]
    )
    return w, lifts, b


@functools.lru_cache(maxsize=256)
def fingerprint(alg: Algebra) -> InvariantFingerprint:
    """All invariants at once; cached per algebra instance."""
    norm, _ = alg.normalized()
    ann, sq, sq_in_ann = ideal_structure(norm)
    cone = _cone_cached(norm)
    flags = structure_flags(norm)
    der = derivation_space(norm)

    induced = "n/a"
    if ann.dim == 1 and sq.dim == 1 and sq_in_ann:
        _, _, b = _quotient_form(norm, sq)
        det = float(np.linalg.det(b))
        if det < -1e-9:
            induced = "indefinite"
        elif det > 1e-9:
            induced = "definite"
        else:
            induced = "degenerate"

    return InvariantFingerprint(
        dim_ann=ann.dim,
        dim_sq=sq.dim,
        sq_in_ann=sq_in_ann,
        nilcone_kind=cone.kind,
        induced_form=induced,
        dim_der=der.dim,
        solvable=flags.solvable,
        nilpotent=flags.nilpotent,
        associative=flags.associative,
        power_associative=flags.power_associative,
    )


def canonical_fingerprint(tag: str) -> InvariantFingerprint:
    return fingerprint(canonical_algebra(tag))


def pairwise_noniso_witness(tag_a: str, tag_b: str) -> tuple[str, object, object]:
    """First invariant separating two canonical classes, with both values."""
    fa = canonical_fingerprint(tag_a)
    fb = canonical_fingerprint(tag_b)
    for name in _WITNESS_FIELDS:
        va, vb = getattr(fa, name), getattr(fb, name)
        if va != vb:
            return name, va, vb
    raise ValueError(f"fingerprints of {tag_a} and {tag_b} coincide")


# ---------------------------------------------------------------------------
# results and certificates


@dataclass
class ClassificationResult:
    tag: str                       # one of ALL_TAGS
    certificate: np.ndarray | None
    residual: float | None
    method: str
    fingerprint: InvariantFingerprint | None = None
    derivation: np.ndarray | None = None
    spectrum_case: SpectrumCase | None = None

    @property
    def is_definite(self) -> bool:
        return self.tag in DEFINITE_TAGS


def certificate_residual(alg: Algebra, tag: str, m: np.ndarray) -> float:
    """Entrywise distance of the constants rewritten in basis m from the
    canonical table, before symmetrizing: averaging slots (i, j) and (j, i)
    would hide up to half of an asymmetric error."""
    table = canonical_algebra(tag)
    try:
        got = rewritten_constants(alg, m)
    except SingularBasis:
        return float("inf")
    return float(np.max(np.abs(got - table.c)))


def _certificate_jacobian(alg: Algebra, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(18, 9) Jacobian of m -> m t[i, j] - m_i * m_j in the entries of m."""
    return leibniz_operator(t, np.array([left_mult_matrix(alg, col) for col in m.T]))


def polish_certificate(alg: Algebra, tag: str, m: np.ndarray) -> np.ndarray:
    """Gauss-Newton refinement of a near-certificate, at most eight steps.

    Solves m @ T[i, j] = m_i * m_j (the inverse-free form of the conjugation
    condition) by min-norm least squares; rank deficiency from the continuous
    automorphism group of the target is harmless to the step.
    """
    t = canonical_algebra(tag).c
    m = np.asarray(m, dtype=float).copy()
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    for _ in range(8):
        g = np.concatenate([m @ t[i, j] - product(alg, m[:, i], m[:, j]) for i, j in pairs])
        if float(np.max(np.abs(g))) <= 1e-15 * max(1.0, alg.scale):
            break
        step, *_ = np.linalg.lstsq(_certificate_jacobian(alg, t, m), g, rcond=1e-12)
        if not np.all(np.isfinite(step)):
            break
        m = m - step.reshape(3, 3)
    return m


# ---------------------------------------------------------------------------
# invariant-based recipes (each works on a scale-normalized algebra and the
# subspaces classify dispatched on, and returns certificate columns, or None
# when its preconditions fail)


def _recipe_a2(norm: Algebra, ann: Subspace) -> np.ndarray | None:
    f3 = orthonormal_complement(ann.basis)[0]
    f2 = product(norm, f3, f3)
    if float(np.linalg.norm(f2)) <= 1e-9:
        return None
    f2u = f2 / np.linalg.norm(f2)
    best, best_len = None, 0.0
    for row in ann.basis:
        r = row - (row @ f2u) * f2u
        ln = float(np.linalg.norm(r))
        if ln > best_len:
            best, best_len = r, ln
    if best is None or best_len <= 1e-9:
        return None
    return np.column_stack([best, f2, f3])


def _recipe_a3(qf: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray | None:
    w, lifts, b = qf
    vals, vecs = np.linalg.eigh(b)
    if not (vals[0] < -1e-9 and vals[1] > 1e-9):
        return None
    neg = vecs[:, 0] / np.sqrt(-vals[0])
    pos = vecs[:, 1] / np.sqrt(vals[1])
    f1 = (pos + neg) @ lifts
    f2 = (pos - neg) @ lifts
    f3 = 2.0 * w
    return np.column_stack([f1, f2, f3])


def _recipe_a4(qf: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray | None:
    w, lifts, b = qf
    vals, vecs = np.linalg.eigh(b)
    if vals[0] < 0.0 and vals[1] < 0.0:
        w, b, vals = -w, -b, -vals[::-1]
        vecs = vecs[:, ::-1]
    if not (vals[0] > 1e-9 and vals[1] > 1e-9):
        return None
    f1 = (vecs[:, 0] / np.sqrt(vals[0])) @ lifts
    f2 = (vecs[:, 1] / np.sqrt(vals[1])) @ lifts
    return np.column_stack([f1, f2, w])


def _balance_a1(m: np.ndarray) -> np.ndarray:
    """Equalize column magnitudes using the scaling automorphisms of the
    first canonical table, diag(x, 1/x, x^2); pure conditioning aid."""
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        return m
    logs = np.log(norms)
    a = np.array([1.0, -1.0, 2.0])
    ac = a - a.mean()
    t = -float(ac @ (logs - logs.mean())) / float(ac @ ac)
    x = np.exp(t)
    return m @ np.diag([x, 1.0 / x, x * x])


def _recipe_a1(norm: Algebra, sq: Subspace, cone: NilconeDescriptor) -> list[np.ndarray]:
    """Candidate certificates from the two nilcone lines.

    The line lying inside A*A serves the distinguished slot; the product of
    the two lines rebuilds the remaining basis vector and a final rescale
    pins both nonzero constants to 1.
    """
    if len(cone.lines) != 2 or cone.planes:
        return []
    units = [line.basis[0] for line in cone.lines]
    units.sort(key=lambda u: float(np.linalg.norm(u - sq.project(u))))
    out = []
    for u3, u2 in ((units[0], units[1]), (units[1], units[0])):
        f1 = product(norm, u2, u3)
        f1_norm = float(np.linalg.norm(f1))
        if f1_norm <= 1e-9:
            continue
        f1sq = product(norm, f1, f1)
        cval = float(f1sq @ u3)
        # f1 * f1 is quadratic in f1, so cval is judged against |f1|^2
        if abs(cval) <= 1e-12 * f1_norm ** 2:
            continue
        if float(np.linalg.norm(f1sq - cval * u3)) > 1e-4 * max(1.0, abs(cval)):
            continue
        out.append(_balance_a1(np.column_stack([f1, u2 / cval, cval * u3])))
    return out


def classify(alg: Algebra) -> ClassificationResult:
    """Invariant-based classification with a verified certificate.

    Exact canonical tables short-circuit to an identity certificate; the
    zero tensor reports NullAlgebra; anything the recipes cannot certify
    within TAU_CERT reports NotInFamily together with its full fingerprint
    (positive answers carry the certificate instead, which is stronger).
    """
    if alg.scale <= TAU_NULL:
        return ClassificationResult("NullAlgebra", np.eye(3), alg.scale, "null")
    for tag in CANONICAL_TAGS:
        if np.array_equal(alg.c, canonical_algebra(tag).c):
            return ClassificationResult(tag, np.eye(3), 0.0, "exact-table")

    norm, factor = alg.normalized()
    ann, sq, sq_in_ann = ideal_structure(norm)

    # dispatch on the cheap invariants; the nilpotent cone is only computed
    # on the one branch that needs it
    candidates: list[tuple[str, np.ndarray]] = []
    if ann.dim == 2 and sq.dim == 1:
        m = _recipe_a2(norm, ann)
        if m is not None:
            candidates.append(("A2", m))
    elif ann.dim == 1 and sq.dim == 1 and sq_in_ann:
        qf = _quotient_form(norm, sq)
        for tag, recipe in (("A3", _recipe_a3), ("A4", _recipe_a4)):
            m = recipe(qf)
            if m is not None:
                candidates.append((tag, m))
    elif ann.dim == 0 and sq.dim == 2:
        cone = _cone_cached(norm)
        if cone.kind == "two-lines":
            for m in _recipe_a1(norm, sq, cone):
                candidates.append(("A1", m))

    for tag, m_norm in candidates:
        m = polish_certificate(alg, tag, m_norm / factor)
        res = certificate_residual(alg, tag, m)
        if res <= TAU_CERT:
            return ClassificationResult(tag, m, res, "invariant-recipe")

    return ClassificationResult(
        "NotInFamily", None, None, "invariant-recipe", fingerprint=fingerprint(alg)
    )


# ---------------------------------------------------------------------------
# reduction along a semisimple invertible derivation


def _nonzero(value: float, scale: float) -> bool:
    return abs(value) > 1e-9 * max(1.0, scale)


def _columns(*cols) -> np.ndarray:
    return np.column_stack([np.asarray(c, dtype=float) for c in cols])


def _reduce_spectrum_m1_2(c: np.ndarray, scale: float) -> tuple[str, np.ndarray] | None:
    """Representative (1, -1, 2): only e1*e1 -> e3 and e2*e3 -> e1 survive."""
    p = float(c[0, 0, 2])
    q = float(c[1, 2, 0])
    e1, e2, e3 = np.eye(3)
    if _nonzero(p, scale) and _nonzero(q, scale):
        return "A1", np.diag([1.0 / p, 1.0 / q, 1.0 / p])
    if _nonzero(p, scale):
        return "A2", _columns(e2, p * e3, e1)
    if _nonzero(q, scale):
        return "A3", _columns(e2, e3, q * e1)
    return None


def _reduce_spectrum_1_2(c: np.ndarray, scale: float) -> tuple[str, np.ndarray] | None:
    """Representative (1, 1, 2): a single quadratic form feeds e3.

    Surviving constants: p = c[0,0,2], q = c[1,1,2], r = c[0,1,2]; the class
    is decided by the rank and signature of [[p, r], [r, q]].
    """
    p = float(c[0, 0, 2])
    q = float(c[1, 1, 2])
    r = float(c[0, 1, 2])
    e1, e2, e3 = np.eye(3)
    zp, zq, zr = (not _nonzero(v, scale) for v in (p, q, r))

    if zp and zq and zr:
        return None
    if zp and zq:
        return "A3", _columns(e1, e2, r * e3)
    if zp and zr:
        return "A2", _columns(e1, q * e3, e2)
    if zq and zr:
        return "A2", _columns(e2, p * e3, e1)
    if zp:
        # swap the first two axes, landing in the q = 0 case below
        swap = _columns(e2, e1, e3)
        tag_m = _reduce_case5(q, r)
        return "A3", swap @ tag_m
    if zq:
        return "A3", _reduce_case5(p, r)
    if zr:
        if p * q > 0.0:
            return "A4", _columns(e1, np.sqrt(p / q) * e2, p * e3)
        half = _columns(0.5 * (e1 + e2), 0.5 * (e1 - e2), 0.5 * e3)
        return "A3", _columns(e1, np.sqrt(-p / q) * e2, p * e3) @ half

    # all three nonzero: scale to p' = r' = 1, then split on q' = pq/r^2
    m2 = np.diag([1.0, p / r, p])
    lam2 = p * q / (r * r)
    if abs(lam2 - 1.0) <= 1e-9 * (1.0 + abs(lam2)):
        return "A2", m2 @ _columns(e1 - e2, e3, e1)
    if lam2 < 1.0:
        root = np.sqrt(1.0 - lam2)
        s1 = (-1.0 + root) / lam2
        s2 = (-1.0 - root) / lam2
        m3 = _columns(e1 + s1 * e2, e1 + s2 * e2, (2.0 * (lam2 - 1.0) / lam2) * e3)
        return "A3", m2 @ m3
    m3 = _columns(np.sqrt(lam2 - 1.0) * e1, e1 - e2, (lam2 - 1.0) * e3)
    return "A4", m2 @ m3


def _reduce_case5(p: float, r: float) -> np.ndarray:
    """p, r nonzero, q = 0: normalize both constants, then split the square."""
    e1, e2, e3 = np.eye(3)
    m2 = np.diag([r / p, 1.0, r * r / p])
    m3 = _columns(2.0 * e1 - e2, e2, 2.0 * e3)
    return m2 @ m3


def reduce_with_derivation(alg: Algebra, d: np.ndarray) -> ClassificationResult | None:
    """Classify by rewriting in the eigenbasis of a given derivation.

    ``d`` must be a real-diagonalizable invertible derivation of ``alg``.
    Returns None when the normalized spectrum is not one of the two
    representatives with an implemented reduction (callers then fall back
    to the invariant route); raises on inconsistent input.
    """
    d = np.asarray(d, dtype=float)
    norm, factor = alg.normalized()
    rep = analyze_spectrum(d)
    if not (rep.all_real and rep.semisimple and rep.nonsingular):
        raise ValueError("derivation must have a real nonzero semisimple spectrum")
    if derivation_residual(norm, d) > 1e-7:
        raise ValueError("matrix is not a derivation of the algebra")

    w, v = real_eigenbasis(d, rep)
    case = normalize_spectrum(w)
    perm = list(case.permutation)
    v_perm = v[:, perm]
    reduced = change_of_basis(norm, v_perm)
    mask = admissible_mask(case.lam, case.mu)
    if mask_residual(reduced, mask) > 1e-7:
        raise ValueError("eigenbasis constants violate the diagonal-derivation mask")

    if reduced.scale <= 1e-9:
        return ClassificationResult(
            "NullAlgebra", np.eye(3), alg.scale, "derivation-reduction", spectrum_case=case
        )

    if case.family == 1:
        step = _reduce_spectrum_m1_2(reduced.c, reduced.scale)
    elif case.family == 3:
        step = _reduce_spectrum_1_2(reduced.c, reduced.scale)
    else:
        return None
    if step is None:
        return ClassificationResult(
            "NullAlgebra", np.eye(3), alg.scale, "derivation-reduction", spectrum_case=case
        )

    tag, m_rest = step
    m = (v_perm @ m_rest) / factor
    if tag == "A1":
        m = _balance_a1(m)
    m = polish_certificate(alg, tag, m)
    res = certificate_residual(alg, tag, m)
    if res > TAU_CERT:
        raise IllConditioned(f"reduction certificate residual {res:.2e}")
    return ClassificationResult(
        tag, m, res, "derivation-reduction", derivation=d, spectrum_case=case
    )


def classify_via_derivation(alg: Algebra, seed: int = 0) -> ClassificationResult:
    """Derivation-eigenbasis classification route.

    Searches for a real-diagonalizable invertible derivation; a miss is
    reported as NotInFamily with method 'no-ssnd-found' (the search is not a
    proof of absence).  Spectra without an implemented reduction fall back
    to the invariant route, keeping the derivation for reference.
    """
    if alg.scale <= TAU_NULL:
        return ClassificationResult("NullAlgebra", np.eye(3), alg.scale, "null")
    found = find_real_ssnd(alg, seed)
    if found is None:
        return ClassificationResult("NotInFamily", None, None, "no-ssnd-found")
    d, _rep = found
    try:
        res = reduce_with_derivation(alg, d)
    except (ValueError, SingularSpectrum, SingularBasis, IllConditioned):
        res = None
    if res is not None:
        return res
    fallback = classify(alg)
    fallback.method = "derivation-fallback"
    fallback.derivation = d
    return fallback
