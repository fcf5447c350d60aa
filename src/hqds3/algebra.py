"""Commutative 3-dimensional algebras given by structure constants.

An algebra is a symmetric tensor c[i, j, k]: the product of basis vectors
e_i * e_j = sum_k c[i, j, k] e_k.  The same tensor read as a quadratic map
x -> x * x is the right-hand side of the associated differential system,
so everything downstream (derivations, classification, dynamics) consumes
the ``Algebra`` defined here.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    contains_vector,
    nullspace,
    orthonormal_complement,
    project_onto,
    rank_and_rowspace,
    sign_canonical,
    unit,
)
from .tolerances import TAU_DEDUP, TAU_RANK, TAU_RES


class SingularBasis(ValueError):
    """Raised when a change-of-basis matrix is numerically singular."""


# Conventional one-letter names for the 18 independent constants of a
# commutative product, keyed to 0-based tensor slots (i, j, k) with i <= j.
NAMED_SLOTS: dict[str, tuple[int, int, int]] = {
    "a": (0, 0, 0), "b": (0, 0, 1), "c": (0, 0, 2),
    "d": (1, 1, 0), "e": (1, 1, 1), "f": (1, 1, 2),
    "g": (2, 2, 0), "h": (2, 2, 1), "j": (2, 2, 2),
    "k": (0, 1, 0), "m": (0, 1, 1), "n": (0, 1, 2),
    "p": (0, 2, 0), "q": (0, 2, 1), "r": (0, 2, 2),
    "s": (1, 2, 0), "t": (1, 2, 1), "v": (1, 2, 2),
}


@dataclass(frozen=True, eq=False)
class Algebra:
    """Structure constants of a commutative algebra on R^3.

    The tensor must satisfy c[i, j, k] == c[j, i, k] exactly; builders that
    start from one-sided data are responsible for writing both slots.  All
    validation (shape, finiteness, symmetry) lives in this constructor.
    Immutability is enforced: the instance holds a read-only private copy of
    the tensor, so its scale and normalized form are computed once.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.c, dtype=float)
        if c.shape != (3, 3, 3):
            raise ValueError(f"structure constants must be 3x3x3, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        asym = c != c.transpose(1, 0, 2)
        if asym.any():
            i, j, k = (int(v) + 1 for v in np.argwhere(asym)[0])
            raise ValueError(
                f"asymmetric constants: c[{i}][{j}][{k}] != c[{j}][{i}][{k}] "
                "(commutativity requires symmetry in the first two indices; fix the input, "
                "it is not symmetrized automatically)"
            )
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @functools.cached_property
    def scale(self) -> float:
        return float(np.max(np.abs(self.c)))

    def normalized(self) -> tuple["Algebra", float]:
        """Rescale constants to unit max magnitude; returns (algebra, factor).

        Scaling constants by t is the change of basis by (1/t) * Id, so it
        preserves every structural invariant used here.  Every call returns
        the same object.
        """
        return self._normalized

    @functools.cached_property
    def _normalized(self) -> tuple["Algebra", float]:
        s = self.scale
        if s == 0.0 or s == 1.0:
            return self, 1.0
        return Algebra(self.c / s), s


def zero_algebra() -> Algebra:
    return Algebra(np.zeros((3, 3, 3)))


def from_products(products: dict[tuple[int, int], object]) -> Algebra:
    """Build an algebra from 1-based basis products, e.g. {(2, 3): (1, 0, 0)}."""
    c = np.zeros((3, 3, 3))
    for (i, j), vec in products.items():
        v = np.asarray(vec, dtype=float)
        c[i - 1, j - 1] = v
        c[j - 1, i - 1] = v
    return Algebra(c)


def from_named(**constants: float) -> Algebra:
    """Build an algebra from the 18 conventional letter names (see NAMED_SLOTS)."""
    c = np.zeros((3, 3, 3))
    for name, value in constants.items():
        if name not in NAMED_SLOTS:
            raise ValueError(f"unknown constant name {name!r}")
        i, j, k = NAMED_SLOTS[name]
        c[i, j, k] = value
        c[j, i, k] = value
    return Algebra(c)


def product(alg: Algebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear product u * v, broadcast over leading axes: stacks of
    vectors give the stack of their products, each row bit-identical to
    the product of that row alone.

    The outer product is symmetrized before contraction so that
    product(alg, u, v) and product(alg, v, u) are bit-identical.
    """
    s = np.asarray(u, dtype=float)[..., :, None] * np.asarray(v, dtype=float)[..., None, :]
    return np.einsum("...ij,ijk->...k", 0.5 * (s + s.swapaxes(-1, -2)), alg.c)


def square_map(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """x * x, the quadratic vector field of the associated system, broadcast
    over leading axes like ``product``."""
    return product(alg, x, x)


def left_mult_matrix(alg: Algebra, v: np.ndarray) -> np.ndarray:
    """Matrix of w -> v * w in the standard basis, broadcast over leading
    axes: a stack of vectors gives the stack of their matrices."""
    return np.einsum("...i,ijk->...kj", np.asarray(v, dtype=float), alg.c)


def rewritten_constants(alg: Algebra, m: np.ndarray) -> np.ndarray:
    """Structure constants in the basis whose vectors are the columns of m,
    as computed: slots (i, j) and (j, i) may differ in their last bits.

    Raises SingularBasis when the smallest singular value of m is at most
    8 eps times its largest, a test no rescaling of m changes, so s * m is
    singular exactly when m is (the certificate of s * table is m / s).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("basis change must be a 3x3 matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if not sv[-1] > 8.0 * np.finfo(float).eps * sv[0]:
        raise SingularBasis("basis change matrix is singular")
    t = np.einsum("ai,bj,abk->ijk", m, m, alg.c)
    return np.linalg.solve(m, t.reshape(9, 3).T).T.reshape(3, 3, 3)


def change_of_basis(alg: Algebra, m: np.ndarray) -> Algebra:
    """The algebra in the basis whose vectors are the columns of m.

    Composes functorially: change_of_basis(alg, m @ n) equals
    change_of_basis(change_of_basis(alg, m), n) up to roundoff.
    """
    new = rewritten_constants(alg, m)
    # kill last-ulp asymmetry introduced by summation order
    return Algebra(0.5 * (new + new.transpose(1, 0, 2)))


# ---------------------------------------------------------------------------
# subspaces


@dataclass
class Subspace:
    """A linear subspace of R^3 stored as orthonormal rows."""

    basis: np.ndarray  # (dim, 3)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def contains(self, v: np.ndarray, rtol: float = 1e-7) -> bool:
        return contains_vector(self.basis, v, rtol)

    def project(self, v: np.ndarray) -> np.ndarray:
        return project_onto(self.basis, v)


def span_of(vectors: np.ndarray) -> Subspace:
    _, rows = rank_and_rowspace(np.atleast_2d(vectors))
    return Subspace(rows)


def annihilator(alg: Algebra) -> Subspace:
    """Ann = {v : v * w = 0 for all w}, the kernel of v -> L_v."""
    norm, _ = alg.normalized()
    # stack the nine linear conditions (v * e_i)_k = 0 over i, k
    rows = norm.c.transpose(1, 2, 0).reshape(9, 3)  # row (i, k): coeffs of v_j
    return Subspace(nullspace(rows))


def square_ideal(alg: Algebra) -> Subspace:
    """A * A, the span of all basis products."""
    norm, _ = alg.normalized()
    prods = [norm.c[i, j] for i in range(3) for j in range(i, 3)]
    return span_of(np.array(prods))


def ideal_structure(alg: Algebra) -> tuple[Subspace, Subspace, bool]:
    """(Ann, A*A, whether A*A is a nonzero subspace of Ann).

    The one place that decides the ideal structure both classification
    routes, the fingerprint and the affine closed form dispatch on.
    """
    ann = annihilator(alg)
    sq = square_ideal(alg)
    return ann, sq, sq.dim > 0 and all(ann.contains(row) for row in sq.basis)


@dataclass
class SubspaceCheck:
    closed: bool
    ideal: bool
    max_closure_residual: float
    max_ideal_residual: float


def subspace_check(alg: Algebra, sub: Subspace) -> SubspaceCheck:
    """Test whether a subspace is a subalgebra (S*S in S) and an ideal (A*S in S),
    each up to a residual of TAU_RES."""
    norm, _ = alg.normalized()

    def escape(prods: np.ndarray) -> float:
        prods = prods.reshape(-1, 3)
        off = prods - prods @ sub.basis.T @ sub.basis
        return float(np.max(np.linalg.norm(off, axis=1), initial=0.0))

    closure = escape(product(norm, sub.basis[:, None], sub.basis[None, :]))
    ideal = max(closure, escape(product(norm, np.eye(3)[:, None], sub.basis[None, :])))
    return SubspaceCheck(
        closed=closure <= TAU_RES,
        ideal=ideal <= TAU_RES,
        max_closure_residual=closure,
        max_ideal_residual=ideal,
    )


# ---------------------------------------------------------------------------
# structural flags


@dataclass
class StructureFlags:
    solvable: bool
    nilpotent: bool
    associative: bool
    power_associative: bool


def _span_products(alg: Algebra, left: Subspace, right: Subspace) -> Subspace:
    return span_of(product(alg, left.basis[:, None], right.basis[None, :]).reshape(-1, 3))


def _series_vanishes(start: Subspace, step) -> bool:
    """Whether one of the first four terms of the series start, step(start), ... is zero."""
    term = start
    for _ in range(3):
        if term.dim == 0:
            return True
        term = step(term)
    return term.dim == 0


def is_solvable(alg: Algebra) -> bool:
    """Whether the derived series A*A, (A*A)*(A*A), ... vanishes (depth 4)."""
    norm, _ = alg.normalized()
    return _series_vanishes(square_ideal(norm), lambda t: _span_products(norm, t, t))


def structure_flags(alg: Algebra) -> StructureFlags:
    """Solvability, nilpotency (series cut off at depth 4), associativity and
    the degree-4 power identity (x*x)*(x*x) == ((x*x)*x)*x, the last two
    decided on coefficients up to TAU_RES, not on sampled points."""
    norm, _ = alg.normalized()
    whole = Subspace(np.eye(3))
    solvable = is_solvable(norm)
    nilpotent = _series_vanishes(square_ideal(norm), lambda t: _span_products(norm, whole, t))

    # (e_i e_j) e_k against e_i (e_j e_k) on all 27 triples at once
    c = norm.c
    assoc = float(np.max(np.abs(np.einsum("ijn,nkm->ijkm", c, c) - np.einsum("jkn,inm->ijkm", c, c))))

    # (x*x)*(x*x) - ((x*x)*x)*x is a quartic map; it vanishes identically iff
    # its coefficient tensor, symmetrized over the four slots of x, is zero
    quartic = np.einsum("abk,cdl,klm->abcdm", c, c, c) - np.einsum("abk,kcn,ndm->abcdm", c, c, c)
    sym = sum(quartic.transpose(*p, 4) for p in itertools.permutations(range(4))) / 24.0
    pa = float(np.max(np.abs(sym)))

    return StructureFlags(
        solvable=solvable,
        nilpotent=nilpotent,
        associative=assoc <= TAU_RES,
        power_associative=pa <= TAU_RES,
    )


# ---------------------------------------------------------------------------
# nilpotent cone


@dataclass
class NilconeDescriptor:
    # origin-only | one-line | two-lines | plane | two-planes | whole-space | other
    kind: str
    lines: list = field(default_factory=list)     # list[Subspace], dim 1
    planes: list = field(default_factory=list)    # list[Subspace], dim 2
    samples: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))


def _component_samples(lines: list, planes: list) -> np.ndarray:
    """Steady-state samples generated from verified cone components."""
    pts: list[np.ndarray] = []
    ts = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    for line in lines:
        pts.extend(t * line.basis[0] for t in ts)
    grid = np.linspace(-1.5, 1.5, 5)
    for plane in planes:
        for a in grid:
            for b in grid:
                if abs(a) + abs(b) < 1e-12:
                    continue
                pts.append(a * plane.basis[0] + b * plane.basis[1])
    if not pts:
        return np.zeros((0, 3))
    return np.array(pts)


# cone kind by (number of lines, number of planes); any other mix is "other"
_KIND_BY_PARTS = {(0, 0): "origin-only", (1, 0): "one-line", (2, 0): "two-lines",
                  (0, 1): "plane", (0, 2): "two-planes"}

# A common zero of multiplicity m is located only to about eps^(1/m), so two
# candidate lines closer than this are one line (multiplicity up to 3), and
# three roots of the pencil's determinant this close are one triple root.
_SAME_LINE = 1e-5
_ROOT_CLUSTER = 1e-4
# det of unit forms at roundoff level: every member of the pencil is singular
_SINGULAR_PENCIL = 1e-14


def _zero_set(w: np.ndarray, v: np.ndarray) -> list[np.ndarray] | None:
    """Zero set of the form sum_i w_i (v[:, i] . x)^2 as a union of subspaces.

    Returns orthonormal row bases: the kernel of a semidefinite form, or the
    two subspaces kernel + span(sqrt|w-| v+ +- sqrt|w+| v-) of a rank-2
    indefinite one.  A nondegenerate indefinite form in three variables
    vanishes on a genuine quadric cone, reported as None.  The forms are
    built from unit forms, so an eigenvalue below an absolute TAU_RANK is
    zero, as in rank_and_rowspace.
    """
    zero = np.abs(w) <= TAU_RANK * max(1.0, float(np.max(np.abs(w))))
    kernel = v[:, zero].T
    pos = np.flatnonzero((w > 0.0) & ~zero)
    neg = np.flatnonzero((w < 0.0) & ~zero)
    if pos.size == 0 or neg.size == 0:
        return [kernel] if kernel.shape[0] else []
    if pos.size + neg.size > 2:
        return None
    p, n = pos[0], neg[0]
    return [
        np.vstack([kernel, unit(np.sqrt(-w[n]) * v[:, p] + s * np.sqrt(w[p]) * v[:, n])])
        for s in (1.0, -1.0)
    ]


def _quadric_cone_samples(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twelve unit points at fixed angles on the cone of a nondegenerate
    indefinite form."""
    scaled = v / np.sqrt(np.abs(w))  # the form is +-1 on each column
    lone = int(np.argmin(np.sign(w) * np.sign(w).sum()))  # the eigenvalue of odd sign
    a, b = (i for i in range(3) if i != lone)
    th = np.arange(12) * (2.0 * np.pi / 12)
    pts = np.cos(th)[:, None] * scaled[:, a] + np.sin(th)[:, None] * scaled[:, b] + scaled[:, lone]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _degenerate_member(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """A unit singular member of the pencil span(f1, f2), at a simple root.

    The pencil is projective, so a root of det may sit at infinity in any
    fixed chart.  The basis (a, b) is rotated first so that the leading
    coefficient det(b) of det(a + t b) is the largest of eight evenly spaced
    members; the roots t are then the eigenvalues of -b^-1 a.  Of the real
    roots, the one farthest in chordal distance from the other two is taken:
    every first-class pencil has a double root, which is only
    sqrt(eps)-accurate, and a real cubic with a double root always has a
    simple one.  Three clustered roots are a triple root; their mean is
    taken.  When every member is singular, any rank-2 member will do.
    """
    th = np.arange(8) * (np.pi / 8)
    members = np.cos(th)[:, None, None] * f1 + np.sin(th)[:, None, None] * f2
    dets = np.abs(np.linalg.det(members))
    if np.max(dets) <= _SINGULAR_PENCIL:  # take the member farthest from rank 1
        return members[np.argmax(np.sort(np.abs(np.linalg.eigvalsh(members)))[:, 1])]
    j = int(np.argmax(dets))
    a, b = -np.sin(th[j]) * f1 + np.cos(th[j]) * f2, members[j]
    roots = -np.linalg.eigvals(np.linalg.solve(b, a))  # det(a + t b) = 0
    hyp = np.sqrt(1.0 + np.abs(roots) ** 2)
    chord = np.abs(roots[:, None] - roots[None, :]) / np.outer(hyp, hyp)
    np.fill_diagonal(chord, np.inf)
    sep = np.where(roots.imag == 0.0, chord.min(axis=1), -1.0)
    best = int(np.argmax(sep))
    t = float(roots[best].real) if sep[best] > _ROOT_CLUSTER else float(np.mean(roots).real)
    return (a + t * b) / np.sqrt(1.0 + t * t)


def _restricted_zeros(forms: np.ndarray, plane: np.ndarray) -> list[np.ndarray] | None:
    """Zero lines of the largest 2x2 restriction of the forms to a plane, a
    superset of their common zeros; None when all restrictions vanish."""
    res = np.einsum("ai,kij,bj->kab", plane, forms, plane)
    sizes = np.linalg.norm(res, axis=(1, 2))
    k = int(np.argmax(sizes))
    if sizes[k] <= TAU_RANK:
        return None
    return [sub[0] @ plane for sub in _zero_set(*np.linalg.eigh(res[k]))]


def nilpotent_cone(alg: Algebra) -> NilconeDescriptor:
    """Describe the steady states {v : v*v = 0} exactly, as lines and planes.

    The set is the common zero set of the quadratic forms Q_k(x) = (x*x)_k,
    and only their span W matters.  With r = dim W, from one SVD:

    * r = 0: the whole space;
    * r = 1: the rank and signature of the one form give a plane, two planes,
      a line, the origin, or a genuine quadric cone ("other");
    * r >= 2: a singular member D of the pencil of the first two basis forms
      (see _degenerate_member) vanishes on one plane, two planes or a line,
      which contain the cone.  Restricted to each of them, every form is a
      2x2 or 1x1 form with a closed-form zero set.  Duplicate lines, and
      lines inside a kept plane, are merged.

    Nothing is sampled or seeded: ``samples`` are points generated on the
    components, for the steady-state checks.
    """
    norm, _ = alg.normalized()

    def residual(u: np.ndarray) -> float:
        return float(np.max(np.abs(square_map(norm, u))))

    r, rows = rank_and_rowspace(norm.c.transpose(2, 0, 1).reshape(3, 9))
    if r == 0:
        return NilconeDescriptor(kind="whole-space", samples=np.vstack([np.eye(3), -np.eye(3)]))
    forms = rows.reshape(r, 3, 3)

    if r == 1:
        w, v = np.linalg.eigh(forms[0])
        parts = _zero_set(w, v)
        if parts is None:
            return NilconeDescriptor(kind="other", samples=_quadric_cone_samples(w, v))
    else:
        w, v = np.linalg.eigh(_degenerate_member(forms[0], forms[1]))
        w[np.argmin(np.abs(w))] = 0.0  # singular by construction
        parts = []
        for sub in _zero_set(w, v):
            zeros = [sub[0]] if sub.shape[0] == 1 else _restricted_zeros(forms, sub)
            if zeros is None:
                parts.append(sub)
                continue
            parts.extend(u[None, :] for u in zeros if residual(u) <= TAU_RES)

    planes = [Subspace(s) for s in parts if s.shape[0] == 2]
    lines: list[Subspace] = []
    for u in sorted((s[0] for s in parts if s.shape[0] == 1), key=residual):
        if not any(k.contains(u, _SAME_LINE) for k in planes + lines):
            lines.append(Subspace(sign_canonical(u)[None, :]))
    kind = _KIND_BY_PARTS.get((len(lines), len(planes)), "other")
    return NilconeDescriptor(
        kind=kind, lines=lines, planes=planes, samples=_component_samples(lines, planes)
    )


# ---------------------------------------------------------------------------
# idempotents


class NonIsolatedIdempotents(ValueError):
    """Raised when v*v = v has a curve of solutions, not isolated points."""


# _MON[d] numbers the monomials of degree d in z = (x1, x2, x3, t); _PLACE[a, i, j, m] is 1
# when z_i z_j m_a = m_m (degrees 2 and 4); _TIMES[m, i] numbers z_i m_m (m of degree 3)
_MON = [{m: n for n, m in enumerate(itertools.combinations_with_replacement(range(4), d))}
        for d in range(5)]
_TIMES = np.array([[_MON[4][tuple(sorted(m + (i,)))] for i in range(4)] for m in _MON[3]])
_PAIR = _TIMES[[[_MON[3][tuple(sorted(a + (i,)))] for i in range(4)] for a in _MON[2]]]
_PLACE = (_PAIR[..., None] == np.arange(35)).astype(float)
_SHIFT = np.array([[0.8136, -0.4621, 0.5873, 0.9218], [-0.3377, 0.7064, 0.2519, -0.6152]])  # h0, h1


def idempotents(alg: Algebra) -> list[np.ndarray]:
    """All real nonzero solutions of v*v = v, deduplicated and sorted
    lexicographically; NonIsolatedIdempotents when they form a curve.

    An idempotent v = v*v lies in A*A, then in (A*A)*(A*A), and so on down
    the derived series, so a solvable algebra (every class A1-A4) has none.
    Otherwise the quadrics (x*x)_k = t x_k meet in 8 points of P^3 if in
    finitely many (Bezout): the origin, the idempotents x/t and nilpotent
    directions (t = 0).  Their degree-4 Macaulay matrix then has an 8-dim
    null space, where multiplication by h1/h0 is an 8 x 8 eigenproblem with
    the roots as eigenvectors (Telen, Mourrain & Van Barel, SIMAX 39, 2018).
    Two curves at infinity have closed forms: x*x = q(x) w gives w/q(w),
    and x*x = l(x) Mx gives u/(mu l(u)) for the eigenpairs (mu, u) of M.

    A root with |t| <= eps |x| is at infinity.  The others enter by their
    real part (a real root of multiplicity m is located only to about
    eps^(1/m)) and take three Newton steps by the pseudoinverse of 2 L_v - I,
    each kept only where it lowers the residual (from an exact multiple root
    a step goes astray).  Nonzero points with |v*v - v| <= TAU_RES
    max(1, |v|)^2 in the normalized constants are kept, most accurate first,
    and the copies of a multiple root collapse to the first of them.
    """
    norm, factor = alg.normalized()
    if is_solvable(norm):
        return []
    x, t = _projective_roots(norm)
    finite = np.abs(t) > np.finfo(float).eps * np.linalg.norm(x, axis=1)
    v = (x[finite] / t[finite, None]).real
    f = square_map(norm, v) - v
    for _ in range(3):
        jac = 2.0 * left_mult_matrix(norm, v) - np.eye(3)
        step = v - (np.linalg.pinv(jac) @ f[:, :, None])[:, :, 0]
        f_step = square_map(norm, step) - step
        better = np.abs(f_step).max(axis=1) < np.abs(f).max(axis=1)
        v[better], f[better] = step[better], f_step[better]
    size = np.linalg.norm(v, axis=1)
    res = np.abs(f).max(axis=1) / np.maximum(1.0, size) ** 2
    order = np.argsort(res)  # of two copies of one root, the more accurate is kept
    ok = order[(res[order] <= TAU_RES) & (size[order] > TAU_DEDUP)]
    found = [w / factor for w in _first_come_distinct(v[ok])]
    return sorted(found, key=lambda w: tuple(np.round(w, 9)))


def _projective_roots(norm: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """Roots (x, t) of (x*x)_k = t x_k, complex in general, x as rows."""
    g = np.pad(norm.c, ((0, 1), (0, 1), (0, 0)))  # (x*x)_k - t x_k = g[i, j, k] z_i z_j
    g[[0, 1, 2], 3, [0, 1, 2]] = -1.0
    null = nullspace(np.einsum("aijm,ijk->akm", _PLACE, g).reshape(30, 35))
    if len(null) == 8:  # h(z) times each monomial of degree 3, in the null space basis
        shifted = np.einsum("hi,mia->hma", _SHIFT, null.T[_TIMES])
        _, vecs = np.linalg.eig(np.linalg.lstsq(shifted[0], shifted[1], rcond=None)[0])
        z = shifted[0][[_MON[3][i, 3, 3] for i in range(4)]] @ vecs  # h0 (t^2 x, t^3)
        return z[:3].T, z[3]
    forms = norm.c.transpose(2, 0, 1).reshape(3, 9)
    r, rows = rank_and_rowspace(forms)
    if r == 1:  # x*x = q(x) w
        w = forms @ rows[0]
        return w[None, :], np.array([w @ rows[0].reshape(3, 3) @ w])
    planes = nilpotent_cone(norm).planes
    if planes:  # x*x = l(x) Mx: a curve when l is not zero on an eigenspace of dim > 1
        ell = orthonormal_complement(planes[0].basis)[0]
        m = 2.0 * left_mult_matrix(norm, ell) - np.outer(square_map(norm, ell), ell)
        mu, u = np.linalg.eig(m)
        spaces = [nullspace(m - lam * np.eye(3)) for lam in mu.real[(mu.imag == 0) & (mu != 0)]]
        if all(len(s) == 1 or np.linalg.norm(s @ ell) <= TAU_RANK for s in spaces):
            return u.T, mu * (u.T @ ell)
    raise NonIsolatedIdempotents(f"non-isolated idempotents: Macaulay nullity {len(null)}, not 8")


def _first_come_distinct(points: np.ndarray) -> list[np.ndarray]:
    """The rows of ``points`` with no earlier kept row within TAU_DEDUP, in
    order: keep the first remaining row v, drop every row within TAU_DEDUP
    max(1, |v|) of it, and repeat."""
    kept: list[np.ndarray] = []
    while len(points):
        kept.append(points[0])
        radius = TAU_DEDUP * max(1.0, float(np.linalg.norm(points[0])))
        points = points[np.linalg.norm(points - points[0], axis=1) > radius]
    return kept


# ---------------------------------------------------------------------------
# residuals


def automorphism_residual(alg: Algebra, m: np.ndarray) -> float:
    """max over basis pairs of |phi(u*v) - phi(u)*phi(v)|, relative."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m)))) ** 2 * max(1.0, alg.scale)
    lhs = np.einsum("ak,ijk->ija", m, alg.c)
    rhs = np.einsum("ai,bj,abk->ijk", m, m, alg.c)
    return float(np.max(np.abs(lhs - rhs))) / scale
