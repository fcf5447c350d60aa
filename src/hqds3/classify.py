"""Classification of commutative 3-d algebras up to isomorphism.

Two independent routes produce the same answer on the classified family:

* ``classify`` computes basis-free invariants (annihilator, square ideal,
  nilpotent cone, derivation dimension, structural flags) and then runs an
  explicit recipe that builds a certificate basis for one of the four
  canonical tables.
* ``classify_via_derivation`` first searches for an invertible
  real-diagonalizable derivation, whose spectral report carries its
  eigenvalues and eigenbasis; the reduction rewrites the algebra in that
  eigenbasis without analysing the derivation again, keeps the structure
  constants its spectrum allows and reads the class off the pattern they
  form.  It never calls the invariant route, so the two routes check each
  other.

Both routes build the certificate of A2, A3 and A4 with one helper, from the
line w that spans every product and annihilates the algebra.

Every positive answer carries a certificate matrix m whose columns express
the canonical basis in the input coordinates: change_of_basis(alg, m)
reproduces the canonical table entrywise within TAU_CERT.  Both routes check
each candidate as built and polish it only when it misses that bound.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .algebra import (
    NAMED_SLOTS,
    Algebra,
    NilconeDescriptor,
    SingularBasis,
    Subspace,
    change_of_basis,
    ideal_structure,
    invariant,
    left_mult_matrix,
    nilpotent_cone,
    product,
    rewritten_constants,
    structure_flags,
)
from .catalog import CANONICAL_TAGS, canonical_algebra
from .derivations import (
    PAIRS,
    RELATIONS,
    SLOT_ARRAY,
    IllConditioned,
    SpectralReport,
    analyze_spectrum,
    derivation_residual,
    derivation_space,
    find_real_ssnd,
    leibniz_operator,
    spectrum_admits,
)
from .linalg import nullspace, rank_and_rowspace, sign_canonical, unit, vector_norm
from .tolerances import TAU_CERT, TAU_RANK

DEFINITE_TAGS = CANONICAL_TAGS + ("NullAlgebra",)


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


_cone_cached = nilpotent_cone  # bench/run.py reads its cache_info(); ROADMAP item 1 deletes it


def _square_line_normal_form(norm: Algebra, w: np.ndarray) -> tuple[str, np.ndarray]:
    """Tag and certificate columns of an algebra whose products are all
    multiples of the unit vector w, which annihilates it.

    On orthonormal lifts of A / <w> the product is u*v = B(u, v) w, and the
    rank and signature of B decide the class: rank one is A2, an indefinite
    B is A3, a definite one A4.  The lifts live in the input frame, so the
    columns are as well conditioned as the algebra allows.
    """
    w = sign_canonical(w)
    lifts = nullspace(w[None, :])
    p = product(norm, lifts[:, None], lifts[None, :])
    b = np.dot(p, w)  # four dot products, as p[i, j] @ w computes each
    vals, vecs = np.linalg.eigh(b)
    lo, hi = vals.tolist()
    tol = 1e-9 * max(abs(lo), abs(hi))
    m = np.empty((3, 3))
    if lo < -tol and hi > tol:
        neg = vecs[:, 0] / math.sqrt(-lo)
        pos = vecs[:, 1] / math.sqrt(hi)
        m[:, 0], m[:, 1], m[:, 2] = (pos + neg) @ lifts, (pos - neg) @ lifts, 2.0 * w
        return "A3", m
    if hi < -tol:
        w, lo, hi, vecs = -w, -hi, -lo, vecs[:, ::-1]
    if lo > tol:
        m[:, 0] = (vecs[:, 0] / math.sqrt(lo)) @ lifts
        m[:, 1] = (vecs[:, 1] / math.sqrt(hi)) @ lifts
        m[:, 2] = w
        return "A4", m
    # rank one: the kernel lift annihilates, the other one squares to big * w
    big = 0 if abs(lo) >= abs(hi) else 1  # the first largest, as np.argmax
    m[:, 0], m[:, 1], m[:, 2] = vecs[:, 1 - big] @ lifts, (lo, hi)[big] * w, vecs[:, big] @ lifts
    return "A2", m


# the induced quotient form of each class the helper above returns
_INDUCED_FORM = {"A2": "degenerate", "A3": "indefinite", "A4": "definite"}


@invariant
def fingerprint(alg: Algebra) -> InvariantFingerprint:
    """All invariants at once, memoized on the normalized algebra like the
    ideal structure, cone, structure flags and derivation space it reads
    (``algebra.invariant``), so both routes, ``verify`` and ``simulate``
    read the same results; only the induced quotient form is computed here.
    """
    ann, sq, sq_in_ann = ideal_structure(alg)
    flags = structure_flags(alg)

    induced = "n/a"
    if ann.dim == 1 and sq.dim == 1 and sq_in_ann:
        induced = _INDUCED_FORM[_square_line_normal_form(alg, sq.basis[0])[0]]

    return InvariantFingerprint(
        dim_ann=ann.dim,
        dim_sq=sq.dim,
        sq_in_ann=sq_in_ann,
        nilcone_kind=nilpotent_cone(alg).kind,
        induced_form=induced,
        dim_der=derivation_space(alg).dim,
        solvable=flags.solvable,
        nilpotent=flags.nilpotent,
        associative=flags.associative,
        power_associative=flags.power_associative,
    )


def pairwise_noniso_witness(tag_a: str, tag_b: str) -> tuple[str, object, object]:
    """First invariant separating two canonical classes, with both values."""
    fa = fingerprint(canonical_algebra(tag_a))
    fb = fingerprint(canonical_algebra(tag_b))
    for name in _WITNESS_FIELDS:
        va, vb = getattr(fa, name), getattr(fb, name)
        if va != vb:
            return name, va, vb
    raise ValueError(f"fingerprints of {tag_a} and {tag_b} coincide")


# ---------------------------------------------------------------------------
# results and certificates


@dataclass
class ClassificationResult:
    tag: str                       # one of DEFINITE_TAGS, or NotInFamily
    certificate: np.ndarray | None
    residual: float | None
    method: str
    fingerprint: InvariantFingerprint | None = None
    ssnd: SpectralReport | None = None  # the report of the SSND the derivation route used

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
    return float(np.abs(got - table.c).max())


def _certificate_jacobian(alg: Algebra, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(18, 9) Jacobian of m -> m t[i, j] - m_i * m_j in the entries of m."""
    return leibniz_operator(t, left_mult_matrix(alg, m.T))


def polish_certificate(alg: Algebra, tag: str, m: np.ndarray) -> np.ndarray:
    """Gauss-Newton refinement of a near-certificate, at most eight steps.

    Only a candidate that misses TAU_CERT as built is polished (``_certify``).
    Solves m @ T[i, j] = m_i * m_j (the inverse-free form of the conjugation
    condition) by min-norm least squares; rank deficiency from the continuous
    automorphism group of the target is harmless to the step.
    """
    t = canonical_algebra(tag).c
    m = np.asarray(m, dtype=float).copy()
    i, j = PAIRS.T
    for _ in range(8):
        # rows in PAIRS order, the row order of the Jacobian
        g = (t[i, j] @ m.T - product(alg, m[:, i].T, m[:, j].T)).ravel()
        if float(np.abs(g).max()) <= 1e-15 * max(1.0, alg.scale):
            break
        step, *_ = np.linalg.lstsq(_certificate_jacobian(alg, t, m), g, rcond=1e-12)
        if not np.isfinite(step).all():
            break
        m = m - step.reshape(3, 3)
    return m


def _certify(alg: Algebra, tag: str, m: np.ndarray) -> tuple[np.ndarray, float]:
    """A candidate certificate and its residual, polished only on a miss.

    A raw candidate within TAU_CERT is returned as it is; otherwise the
    polished one is returned, with its residual, whether or not it passes.
    """
    res = certificate_residual(alg, tag, m)
    if res <= TAU_CERT:
        return m, res
    m = polish_certificate(alg, tag, m)
    return m, certificate_residual(alg, tag, m)


# ---------------------------------------------------------------------------
# the A1 recipe of the invariant route (A2-A4 share _square_line_normal_form)


# the exponents of the scaling automorphism diag(x, 1/x, x^2) of the first
# canonical table, centred on their mean 2/3, and their squared length
_A1_EXPONENTS = np.array([1.0, -1.0, 2.0]) - 2.0 / 3.0
_A1_EXPONENTS_SQ = float(_A1_EXPONENTS @ _A1_EXPONENTS)


def _balance_a1(m: np.ndarray) -> np.ndarray:
    """Equalize column magnitudes using the scaling automorphisms of the
    first canonical table, diag(x, 1/x, x^2); pure conditioning aid."""
    logs = np.log(np.sqrt(np.add.reduce(m * m, axis=0)))  # the column norms, as np.linalg.norm
    l0, l1, l2 = logs.tolist()
    t = -float(_A1_EXPONENTS @ (logs - (l0 + l1 + l2) / 3)) / _A1_EXPONENTS_SQ
    x = np.exp(t)
    return m @ np.diag([x, 1.0 / x, x * x])


def _recipe_a1(norm: Algebra, sq: Subspace, cone: NilconeDescriptor) -> Iterator[np.ndarray]:
    """Candidate certificates from the two nilcone lines, built one at a
    time: the caller stops at the first one that passes.

    The line lying inside A*A serves the distinguished slot; the product of
    the two lines rebuilds the remaining basis vector and a final rescale
    pins both nonzero constants to 1.
    """
    if len(cone.lines) != 2 or cone.planes:
        return
    units = [line.basis[0] for line in cone.lines]
    units.sort(key=lambda u: vector_norm(u - sq.project(u)))
    for u3, u2 in ((units[0], units[1]), (units[1], units[0])):
        f1 = product(norm, u2, u3)
        f1_norm = vector_norm(f1)
        if f1_norm <= 1e-9:
            continue
        f1sq = product(norm, f1, f1)
        cval = float(f1sq @ u3)
        # f1 * f1 is quadratic in f1, so cval is judged against |f1|^2
        if abs(cval) <= 1e-12 * f1_norm ** 2:
            continue
        if vector_norm(f1sq - cval * u3) > 1e-4 * max(1.0, abs(cval)):
            continue
        m = np.empty((3, 3))
        m[:, 0], m[:, 1], m[:, 2] = f1, u2 / cval, cval * u3
        yield _balance_a1(m)


def classify(alg: Algebra) -> ClassificationResult:
    """Invariant-based classification with a verified certificate.

    Exact canonical tables short-circuit to an identity certificate; the
    zero tensor, and only it, reports NullAlgebra, since any other tensor
    is its normalized table in the basis (1/scale) * Id; anything the
    recipes cannot certify within TAU_CERT reports NotInFamily together
    with its full fingerprint (positive answers carry the certificate
    instead, which is stronger).
    A recipe's candidate is polished only when it misses TAU_CERT as built.
    """
    if alg.scale == 0.0:
        return ClassificationResult("NullAlgebra", np.eye(3), 0.0, "null")
    if alg.scale == 1.0:  # every canonical table has scale 1
        for tag in CANONICAL_TAGS:
            if np.array_equal(alg.c, canonical_algebra(tag).c):
                return ClassificationResult(tag, np.eye(3), 0.0, "exact-table")

    norm, factor = alg.normalized()
    ann, sq, sq_in_ann = ideal_structure(norm)

    # dispatch on the cheap invariants; the nilpotent cone is only computed
    # on the one branch that needs it
    candidates: Iterable[tuple[str, np.ndarray]] = ()
    if sq.dim == 1 and sq_in_ann:
        candidates = [_square_line_normal_form(norm, sq.basis[0])]
    elif ann.dim == 0 and sq.dim == 2:
        candidates = (("A1", m) for m in _recipe_a1(norm, sq, nilpotent_cone(norm)))

    for tag, m_norm in candidates:
        m, res = _certify(alg, tag, m_norm / factor)
        if res <= TAU_CERT:
            return ClassificationResult(tag, m, res, "invariant-recipe")

    return ClassificationResult(
        "NotInFamily", None, None, "invariant-recipe", fingerprint=fingerprint(alg)
    )


# ---------------------------------------------------------------------------
# reduction along a semisimple invertible derivation


# the index arrays i, j, k of the 18 named slots, in NAMED_SLOTS order
_SLOTS = tuple(SLOT_ARRAY.T)


def _a1_columns(c: np.ndarray, cut: float) -> np.ndarray | None:
    """Columns e_i/p, e_j/q, e_k/p when the only constants of c above cut
    are e_i e_i = p e_k and e_j e_k = q e_i with i, j, k distinct, else None."""
    support = [slot for slot, x in zip(NAMED_SLOTS.values(), c[_SLOTS].tolist()) if abs(x) > cut]
    if len(support) != 2:
        return None
    (i, i2, k), (a, b, i3) = sorted(support, key=lambda slot: slot[0] != slot[1])
    j = 3 - i - k
    if not (i == i2 == i3 and len({i, j, k}) == 3 and {a, b} == {j, k}):
        return None
    m = np.zeros((3, 3))
    m[i, 0], m[j, 1], m[k, 2] = 1.0 / c[i, i, k], 1.0 / c[j, k, i], 1.0 / c[i, i, k]
    return m


def _snapped_spectrum(w: np.ndarray, eig: Algebra) -> np.ndarray:
    """The spectrum w of a derivation, moved onto d_k = d_i + d_j for every
    constant c[i, j, k] of ``eig``, the algebra in its eigenbasis, above
    1e-7 max(1, scale).

    A numerical derivation meets these relations only up to its residual,
    which may exceed the TAU_RES at which spectrum_admits decides them.  The
    move is the least-squares one, and a move above 1e-6 of the spectrum
    raises.  After it every such constant meets its relation to roundoff, so
    the constants the spectrum forbids are at most 1e-7 max(1, scale).
    """
    a = RELATIONS[np.abs(eig.c[_SLOTS]) > 1e-7 * max(1.0, eig.scale)]
    if not a.size:
        return w
    snapped = w - np.linalg.lstsq(a, a @ w, rcond=None)[0]
    if float(np.abs(snapped - w).max()) > 1e-6 * float(np.abs(w).max()):
        raise ValueError("spectrum is far from the relations its constants impose")
    return snapped


def reduce_with_derivation(alg: Algebra, ssnd: SpectralReport) -> ClassificationResult:
    """Classify by rewriting in the eigenbasis of a given derivation.

    ``ssnd`` is the report of a real-diagonalizable invertible derivation
    d = ssnd.matrix of ``alg``, as find_real_ssnd returns it; a hand-picked
    d goes in as analyze_spectrum(d).  The eigenbasis is the report's, and
    nothing is analysed again here; raises ValueError when the report is
    not real, semisimple and nonsingular, or d is not a derivation.  In the
    eigenbasis, after the spectrum snap, the constants whose relation
    d_k = d_i + d_j the spectrum meets are kept and the rest, eigenbasis
    noise, are zeroed.  The class is read off the kept ones: e_i e_i = p e_k
    with e_j e_k = q e_i is A1; products that are all multiples of one
    vector w that annihilates the algebra are A2, A3 or A4; any other
    pattern is NotInFamily.  NullAlgebra is the
    exact zero tensor, read off the algebra itself, never off the eigenbasis
    rewrite, whose scale an ill-conditioned eigenbasis can shrink.  The
    certificate is polished only when it misses TAU_CERT as built; one that
    misses after the polish too raises IllConditioned.  Never returns None.
    """
    d = ssnd.matrix
    norm, factor = alg.normalized()
    if not (ssnd.all_real and ssnd.semisimple and ssnd.nonsingular):
        raise ValueError("derivation must have a real nonzero semisimple spectrum")
    if derivation_residual(norm, d) > 1e-7:
        raise ValueError("matrix is not a derivation of the algebra")

    v = ssnd.eigenvectors
    eig = change_of_basis(norm, v)
    w = _snapped_spectrum(ssnd.eigenvalues, eig)

    def result(tag, m=None, res=None):
        return ClassificationResult(tag, m, res, "derivation-reduction", ssnd=ssnd)

    if alg.scale == 0.0:
        return result("NullAlgebra", np.eye(3), 0.0)

    i, j, k = SLOT_ARRAY[spectrum_admits(w)].T
    c = np.zeros((3, 3, 3))
    c[i, j, k] = c[j, i, k] = eig.c[i, j, k]
    cut = TAU_RANK * eig.scale
    cols = _a1_columns(c, cut)
    if cols is not None:
        tag, m = "A1", _balance_a1((v @ cols) / factor)
    else:
        rank, rows = rank_and_rowspace(c.reshape(9, 3) / eig.scale)
        if rank != 1 or np.abs(np.einsum("i,ijk->jk", rows[0], c)).max() > cut:
            return result("NotInFamily")
        tag, m = _square_line_normal_form(norm, unit(v @ rows[0]))
        m = m / factor

    m, res = _certify(alg, tag, m)
    if res > TAU_CERT:
        raise IllConditioned(f"reduction certificate residual {res:.2e}")
    return result(tag, m, res)


def classify_via_derivation(alg: Algebra) -> ClassificationResult:
    """Derivation-eigenbasis classification route.

    Searches for a real-diagonalizable invertible derivation; a miss is
    reported as NotInFamily with method 'no-ssnd-found' (the search is not a
    proof of absence).  Otherwise the answer is the reduction's, and a
    reduction that raises is NotInFamily too; the invariant route is never
    consulted.  Every other result carries an SSND's spectral report: the
    search's, or on the zero tensor the identity's, which needs no search.
    """
    if alg.scale == 0.0:
        return ClassificationResult(
            "NullAlgebra", np.eye(3), 0.0, "null", ssnd=analyze_spectrum(np.eye(3))
        )
    ssnd = find_real_ssnd(alg)
    if ssnd is None:
        return ClassificationResult("NotInFamily", None, None, "no-ssnd-found")
    try:
        return reduce_with_derivation(alg, ssnd)
    except (ValueError, IllConditioned):
        return ClassificationResult("NotInFamily", None, None, "derivation-reduction", ssnd=ssnd)
