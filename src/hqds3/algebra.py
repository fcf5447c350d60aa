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
    """Bilinear product u * v.

    The outer product is symmetrized before contraction so that
    product(alg, u, v) and product(alg, v, u) are bit-identical.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = 0.5 * (np.outer(u, v) + np.outer(v, u))
    return np.einsum("ij,ijk->k", s, alg.c)


def square_map(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """x * x, the quadratic vector field of the associated system."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,j,ijk->k", x, x, alg.c)


def products_batch(alg: Algebra, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Row-wise u * v for two (n, 3) stacks: each row's outer product u (x) v,
    flattened, times the tensor as a (9, 3) matrix.

    The rows are multiplied as a stack of (1, 9) matrices, not as one (n, 9)
    matrix: a 2-D product may round a row differently for different n, and
    this way a row's product does not depend on the rows beside it.
    """
    outer = us[:, :, None] * vs[:, None, :]
    return (outer.reshape(len(us), 1, 9) @ alg.c.reshape(9, 3))[:, 0]


def squares_batch(alg: Algebra, xs: np.ndarray) -> np.ndarray:
    """Row-wise x * x for a stack of vectors."""
    xs = np.asarray(xs, dtype=float)
    return products_batch(alg, xs, xs)


def left_mult_matrix(alg: Algebra, v: np.ndarray) -> np.ndarray:
    """Matrix of w -> v * w in the standard basis."""
    return np.einsum("i,ijk->kj", np.asarray(v, dtype=float), alg.c)


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

    closure = escape(np.einsum("ai,bj,ijk->abk", sub.basis, sub.basis, norm.c))
    ideal = max(closure, escape(np.einsum("bj,ijk->ibk", sub.basis, norm.c)))
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
    return span_of(np.einsum("ai,bj,ijk->abk", left.basis, right.basis, alg.c).reshape(-1, 3))


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


NILCONE_KINDS = (
    "origin-only",
    "one-line",
    "two-lines",
    "plane",
    "two-planes",
    "whole-space",
    "other",
)


@dataclass
class NilconeDescriptor:
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


# Newton starts: an 11-point lattice per axis over [-2, 2]^3, in units of the
# normalized constants, and the step budget per start
_LATTICE = np.array(list(itertools.product(np.linspace(-2.0, 2.0, 11), repeat=3)))
_NEWTON_STEPS = 40


def idempotents(alg: Algebra) -> list[np.ndarray]:
    """Nonzero solutions of v*v = v: none on a solvable algebra, otherwise
    the isolated ones Newton reaches from a lattice.

    An idempotent v = v*v lies in A*A, hence v = v*v lies in (A*A)*(A*A),
    and so on down the derived series.  When that series vanishes (every
    class A1-A4 is solvable) the answer is exactly empty and no search runs.
    Otherwise Newton runs from the lattice, scaled to the magnitude of the
    constants (idempotents scale inversely with the constants); it may miss
    idempotents far from the lattice.  Results are deduplicated and sorted
    lexicographically.
    """
    norm, factor = alg.normalized()
    if is_solvable(norm):
        return []
    found = [w / factor for w in _lattice_newton(norm)]
    return sorted(found, key=lambda w: tuple(np.round(w, 9)))


def _lattice_newton(norm: Algebra) -> list[np.ndarray]:
    """Distinct nonzero roots of v*v = v reached by damped Newton from the
    lattice.

    The starts are the columns of one (3, n) array, and each iteration is a
    few whole-array operations over the starts still moving: the residual
    v*v - v is a (3, 6) coefficient matrix times the six monomials
    x1^2, x2^2, x3^2, x1 x2, x1 x3, x2 x3; the nine entries of the Jacobian
    2 L(x) - I are one (9, 3) matrix times the starts; and the step solves
    the damped normal equations (J^T J + 1e-12 max(1, tr J^T J) I) d = J^T f
    by the adjugate of the symmetric 3x3.  The damped matrix's eigenvalues
    are at least 1e-12, so its determinant is at least 1e-36.  A start
    leaves the batch once its own residual is <= 1e-14, so every start
    follows the iterates of the full batch until then, and one whose norm
    passes 1e3 restarts from the origin.
    """
    c = norm.c
    # column m of coef multiplies the monomial x_i x_j with (i, j) the m-th
    # of (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2); x*x holds the mixed
    # ones twice
    coef = np.hstack([c[[0, 1, 2], [0, 1, 2]].T, 2.0 * c[[0, 0, 1], [1, 2, 2]].T])
    # row 3k + j holds the coefficients of x_i in J[k, j] = 2 sum_i x_i c[i, j, k]
    jac_of = 2.0 * c.transpose(2, 1, 0).reshape(9, 3)
    v = np.ascontiguousarray(_LATTICE.T)  # each start's last iterate
    active, x = np.arange(v.shape[1]), v
    for _ in range(_NEWTON_STEPS):
        f = coef @ (x[[0, 1, 2, 0, 0, 1]] * x[[0, 1, 2, 1, 2, 2]]) - x
        done = np.abs(f).max(axis=0) <= 1e-14
        if done.any():
            v[:, active[done]] = x[:, done]
            active, x, f = (np.compress(~done, a, axis=-1) for a in (active, x, f))
            if not len(active):
                break
        jac = jac_of @ x
        jac[[0, 4, 8]] -= 1.0
        jac = jac.reshape(3, 3, -1)  # jac[k, a] = dF_k / dx_a, one row per start
        # the six entries of J^T J and the three of J^T f
        g00, g11, g22 = (jac * jac).sum(axis=0)
        g01, g12, g02 = (jac * jac[:, [1, 2, 0]]).sum(axis=0)
        r0, r1, r2 = (jac * f[:, None]).sum(axis=0)
        # damp singular Jacobians relative to J^T J, which reaches ~1e6 near
        # the reset radius where an absolute 1e-12 would be lost to roundoff
        damp = 1e-12 * np.maximum(1.0, g00 + g11 + g22)
        g00, g11, g22 = g00 + damp, g11 + damp, g22 + damp
        # the adjugate, symmetric like the matrix, and the determinant
        a00, a11, a22 = g11 * g22 - g12 * g12, g00 * g22 - g02 * g02, g00 * g11 - g01 * g01
        a01, a02, a12 = g02 * g12 - g01 * g22, g01 * g12 - g02 * g11, g01 * g02 - g00 * g12
        det = g00 * a00 + g01 * a01 + g02 * a02
        x = x - np.stack([
            a00 * r0 + a01 * r1 + a02 * r2,
            a01 * r0 + a11 * r1 + a12 * r2,
            a02 * r0 + a12 * r1 + a22 * r2,
        ]) / det
        x[:, np.linalg.norm(x, axis=0) > 1e3] = 0.0
    v[:, active] = x

    v = v.T
    res = np.max(np.abs(squares_batch(norm, v) - v), axis=1)
    ok = (res <= TAU_RES) & (np.linalg.norm(v, axis=1) > TAU_DEDUP)
    return _first_come_distinct(v[ok])


def _first_come_distinct(points: np.ndarray) -> list[np.ndarray]:
    """The rows of ``points`` with no earlier kept row within TAU_DEDUP, in
    order: keep the first remaining row, drop every row within TAU_DEDUP of
    it, and repeat."""
    kept: list[np.ndarray] = []
    while len(points):
        kept.append(points[0])
        points = points[np.linalg.norm(points - points[0], axis=1) > TAU_DEDUP]
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
