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
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    contains_vector,
    nullspace,
    project_onto,
    rank_and_rowspace,
    sign_canonical,
    unit,
    vector_norm,
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
        if not np.isfinite(c).all():
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
        return float(np.abs(self.c).max())

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

    @functools.cached_property
    def _invariants(self) -> dict:
        """Results of the ``invariant`` functions, keyed by function."""
        return {}


CacheInfo = namedtuple("CacheInfo", "hits misses")


def invariant(fn):
    """Memoize ``fn(alg)``, a function of the normalized tensor alone, on the
    normalized instance, so the memo dies with the algebra.  An algebra and
    its normalized form share one result, so ``fn`` returns it immutable
    (frozen dataclasses, read-only arrays).  The body runs only on the
    normalized form, looked up as ``__wrapped__`` on each call so it can be
    instrumented; ``cache_info()`` gives the calls that skipped it (hits)
    and the calls that ran it (misses).
    """
    counts = [0, 0]  # calls, misses

    @functools.wraps(fn)
    def shared(alg: Algebra):
        norm, _ = alg.normalized()
        memo = norm._invariants
        counts[0] += 1
        if shared not in memo:
            counts[1] += 1
            memo[shared] = shared.__wrapped__(norm)
        return memo[shared]

    shared.cache_info = lambda: CacheInfo(counts[0] - counts[1], counts[1])
    return shared


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


# rewritten_constants' singularity cut on sv_min / sv_max
_SINGULAR_RATIO = 8.0 * np.finfo(float).eps


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
    if not sv[-1] > _SINGULAR_RATIO * sv[0]:
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


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^3 stored as orthonormal rows, in a read-only
    private copy."""

    basis: np.ndarray  # (dim, 3)

    def __post_init__(self) -> None:
        basis = np.array(self.basis, dtype=float)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

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


@invariant
def annihilator(alg: Algebra) -> Subspace:
    """Ann = {v : v * w = 0 for all w}, the kernel of v -> L_v."""
    # stack the nine linear conditions (v * e_i)_k = 0 over i, k
    rows = alg.c.transpose(1, 2, 0).reshape(9, 3)  # row (i, k): coeffs of v_j
    return Subspace(nullspace(rows))


# the pairs (i, j) with i <= j, row by row: the index arrays of np.triu_indices(3)
_UPPER = np.triu_indices(3)


@invariant
def square_ideal(alg: Algebra) -> Subspace:
    """A * A, the span of all basis products."""
    return span_of(alg.c[_UPPER])


@invariant
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


@dataclass(frozen=True)
class StructureFlags:
    solvable: bool
    nilpotent: bool
    associative: bool
    power_associative: bool


def _span_products(alg: Algebra, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the products of the rows of left and right."""
    return rank_and_rowspace(product(alg, left[:, None], right[None, :]).reshape(-1, 3))[1]


_EYE = np.eye(3)


def _series_vanishes(start: np.ndarray, step) -> bool:
    """Whether one of the first four terms of the series start, step(start), ...
    vanishes, each term given by orthonormal rows and lying inside the one
    before it.

    A term with the dimension of the one before is the same subspace, so
    from there on the series is stationary and never vanishes; the loop
    stops at it.  A strictly falling dimension reaches zero within four
    terms, so the cut at depth 4 decides nothing else.
    """
    term = start
    for _ in range(3):
        if not len(term):
            return True
        nxt = step(term)
        if len(nxt) == len(term):
            return False
        term = nxt
    return not len(term)


@invariant
def is_solvable(alg: Algebra) -> bool:
    """Whether the derived series A*A, (A*A)*(A*A), ... vanishes (depth 4)."""
    return _series_vanishes(square_ideal(alg).basis, lambda t: _span_products(alg, t, t))


def _orbit_mean() -> np.ndarray:
    """(15, 81) matrix taking a tensor on four slots of R^3, flattened, to
    its symmetrization: row m is the mean over the index tuples that sort to
    the m-th multiset, which is the mean of the 24 slot permutations there."""
    keys = [tuple(sorted(t)) for t in itertools.product(range(3), repeat=4)]
    multisets = sorted(set(keys))
    hit = np.zeros((len(multisets), len(keys)))
    hit[[multisets.index(key) for key in keys], range(len(keys))] = 1.0
    return hit / hit.sum(axis=1, keepdims=True)


_ORBIT_MEAN = _orbit_mean()


@invariant
def structure_flags(alg: Algebra) -> StructureFlags:
    """Solvability, nilpotency (each series stopped where it turns
    stationary, see _series_vanishes), associativity and the degree-4 power
    identity (x*x)*(x*x) == ((x*x)*x)*x, the last two decided on
    coefficients up to TAU_RES, not on sampled points.

    The coefficient tensors are matrix products of the (9, 3) table
    e_a e_b and the (27, 3) table (e_a e_b) e_c; the quartic is symmetrized
    over its four slots by one product with _ORBIT_MEAN.
    """
    solvable = is_solvable(alg)
    nilpotent = _series_vanishes(square_ideal(alg).basis, lambda t: _span_products(alg, _EYE, t))

    c, c9 = alg.c, alg.c.reshape(3, 9)
    pairs = c.reshape(9, 3)  # row ab: e_a e_b
    triples = pairs @ c9  # row ab, column cm: ((e_a e_b) e_c)_m
    # (e_i e_j) e_k against e_i (e_j e_k) on all 27 triples at once
    assoc = float(np.abs(triples - (pairs @ c).reshape(9, 9)).max())

    # (x*x)*(x*x) - ((x*x)*x)*x is a quartic map; it vanishes identically iff
    # its coefficient tensor, symmetrized over the four slots of x, is zero;
    # both terms as rows abc, columns dm
    quartic = (pairs @ triples.reshape(9, 3, 3)).reshape(27, 9) - triples.reshape(27, 3) @ c9
    pa = float(np.abs(_ORBIT_MEAN @ quartic.reshape(81, 3)).max())

    return StructureFlags(
        solvable=solvable,
        nilpotent=nilpotent,
        associative=assoc <= TAU_RES,
        power_associative=pa <= TAU_RES,
    )


# ---------------------------------------------------------------------------
# nilpotent cone


@dataclass(frozen=True)
class NilconeDescriptor:
    # origin-only | one-line | two-lines | plane | two-planes | whole-space | other
    kind: str
    lines: tuple[Subspace, ...] = ()    # dim 1
    planes: tuple[Subspace, ...] = ()   # dim 2
    samples: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # read-only copy

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.array(self.samples, dtype=float))
        self.samples.setflags(write=False)


# sample coordinates t on a cone line, and (a, b) on a cone plane: the 5 x 5
# grid of [-1.5, 1.5]^2 without its centre
_LINE_T = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])[:, None]
_GRID = np.linspace(-1.5, 1.5, 5)
_PLANE_AB = np.array([(a, b) for a in _GRID for b in _GRID if abs(a) + abs(b) >= 1e-12])


def _component_samples(lines: list, planes: list) -> np.ndarray:
    """Steady-state samples generated from verified cone components: eight
    points on each line, then 24 on each plane."""
    pts = [_LINE_T * line.basis[0] for line in lines]
    pts += [_PLANE_AB[:, :1] * plane.basis[0] + _PLANE_AB[:, 1:] * plane.basis[1]
            for plane in planes]
    return np.concatenate(pts) if pts else np.zeros((0, 3))


# cone kind by (number of lines, number of planes); any other mix is "other"
_KIND_BY_PARTS = {(0, 0): "origin-only", (1, 0): "one-line", (2, 0): "two-lines",
                  (0, 1): "plane", (0, 2): "two-planes"}

# A common zero of multiplicity m is located only to about eps^(1/m), so two
# candidate lines closer than this are one line (multiplicity up to 3), and
# three roots of the pencil's determinant this close are one triple root.
_SAME_LINE = 1e-5
_ROOT_CLUSTER = 1e-4
# Conditioning spreads the copies of a triple zero further, to (kappa eps)^(1/3).
# A candidate within _NEAR_LINE of a kept line, which has the lower residual,
# is that line when their midpoint has at most half the candidate's residual:
# the residual grows quadratically away from a multiple zero, so next to an
# exact copy the midpoint has a quarter of it.  Between two distinct zeros the
# midpoint is off the cone by about their distance times the gradient, and at
# the roundoff floor its residual is about theirs.
_NEAR_LINE = 1e-3
# det of unit forms at roundoff level: every member of the pencil is singular
_SINGULAR_PENCIL = 1e-14


def _zero_set(w: list[float], v: np.ndarray) -> list[np.ndarray] | None:
    """Zero set of the form sum_i w_i (v[:, i] . x)^2 as a union of subspaces,
    for eigenvalues w given as ascending Python floats, as eigh returns them.

    Returns orthonormal row bases: the kernel of a semidefinite form, or the
    two subspaces kernel + span(sqrt|w-| v+ +- sqrt|w+| v-) of a rank-2
    indefinite one.  A nondegenerate indefinite form in three variables
    vanishes on a genuine quadric cone, reported as None.  The forms are
    built from unit forms, so an eigenvalue below an absolute TAU_RANK is
    zero, as in rank_and_rowspace.  The zero eigenvalues of an ascending w
    are a run, so the kernel is a run of columns of v.
    """
    cut = TAU_RANK * max(1.0, max(map(abs, w)))
    zero, pos, neg = [], [], []
    for i, x in enumerate(w):
        if x > cut:
            pos.append(i)
        elif x < -cut:
            neg.append(i)
        elif x == x:  # not NaN
            zero.append(i)
    kernel = v[:, zero[0]:zero[-1] + 1].T.copy() if zero else v[:, :0].T
    if not pos or not neg:
        return [kernel] if zero else []
    if len(pos) + len(neg) > 2:
        return None
    p, n = pos[0], neg[0]
    x, y = math.sqrt(-w[n]) * v[:, p], math.sqrt(w[p]) * v[:, n]
    return [np.concatenate((kernel, unit(x + y)[None])), np.concatenate((kernel, unit(x - y)[None]))]


def _quadric_cone_samples(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twelve unit points at fixed angles on the cone of a nondegenerate
    indefinite form."""
    scaled = v / np.sqrt(np.abs(w))  # the form is +-1 on each column
    lone = int(np.argmin(np.sign(w) * np.sign(w).sum()))  # the eigenvalue of odd sign
    a, b = (i for i in range(3) if i != lone)
    th = np.arange(12) * (2.0 * np.pi / 12)
    pts = np.cos(th)[:, None] * scaled[:, a] + np.sin(th)[:, None] * scaled[:, b] + scaled[:, lone]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# the pencil members cos(th) f1 + sin(th) f2 at th = k pi / 8, k < 8, and
# (cos, sin) of each th as Python floats
_PENCIL_COS = np.cos(np.arange(8) * (np.pi / 8)).reshape(8, 1, 1)
_PENCIL_SIN = np.sin(np.arange(8) * (np.pi / 8)).reshape(8, 1, 1)
_PENCIL_CS = list(zip(_PENCIL_COS.ravel().tolist(), _PENCIL_SIN.ravel().tolist()))


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
    taken.  When every member is singular, any rank-2 member will do.  The
    member and the root are chosen on Python floats.
    """
    members = _PENCIL_COS * f1 + _PENCIL_SIN * f2
    dets = [abs(d) for d in np.linalg.det(members).tolist()]
    j = dets.index(max(dets))  # the first largest, as np.argmax
    if dets[j] <= _SINGULAR_PENCIL:  # take the member farthest from rank 1
        return members[np.argmax(np.sort(np.abs(np.linalg.eigvalsh(members)))[:, 1])]
    cos_j, sin_j = _PENCIL_CS[j]
    a, b = -sin_j * f1 + cos_j * f2, members[j]
    roots = -np.linalg.eigvals(np.linalg.solve(b, a))  # det(a + t b) = 0
    z = roots.tolist()
    hyp = [math.sqrt(1.0 + abs(r) * abs(r)) for r in z]
    c01 = abs(z[0] - z[1]) / (hyp[0] * hyp[1])
    c02 = abs(z[0] - z[2]) / (hyp[0] * hyp[2])
    c12 = abs(z[1] - z[2]) / (hyp[1] * hyp[2])
    sep = [min(c01, c02) if z[0].imag == 0.0 else -1.0,
           min(c01, c12) if z[1].imag == 0.0 else -1.0,
           min(c02, c12) if z[2].imag == 0.0 else -1.0]
    best = sep.index(max(sep))
    t = z[best].real if sep[best] > _ROOT_CLUSTER else float(np.mean(roots).real)
    return (a + t * b) / math.sqrt(1.0 + t * t)


def _restricted_zeros(forms: np.ndarray, planes: list[np.ndarray]) -> list[list[np.ndarray] | None]:
    """For each plane, the zero lines of the largest 2x2 restriction of the
    forms to it, a superset of their common zeros; None for a plane on which
    all restrictions vanish.  One einsum restricts every form to every
    plane, and one eigh diagonalizes all the restrictions."""
    stack = np.array(planes)
    res = np.einsum("pai,kij,pbj->pkab", stack, forms, stack)
    sizes = np.sqrt(np.add.reduce(res * res, axis=(2, 3))).tolist()  # Frobenius, as np.linalg.norm
    w, v = np.linalg.eigh(res)
    w = w.tolist()
    out = []
    for p, (row, plane) in enumerate(zip(sizes, planes)):
        k = row.index(max(row))  # the first largest, as np.argmax
        zeros = None if row[k] <= TAU_RANK else _zero_set(w[p][k], v[p, k])
        out.append(zeros if zeros is None else [sub[0] @ plane for sub in zeros])
    return out


@invariant
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
      2x2 or 1x1 form with a closed-form zero set.  Candidate lines that are
      not zeros of every form are dropped.  Duplicate lines, and lines inside
      a kept plane, are merged, lowest residual first; so are the copies of
      a triple zero that conditioning has spread further apart (_NEAR_LINE).

    Nothing is sampled or seeded: ``samples`` are points generated on the
    components, for the steady-state checks.  One memoized cone serves
    both routes, the fingerprint, ``idempotents`` and ``verify``.  The
    branching runs on Python floats, and the LAPACK calls are one SVD, the
    pencil's det, solve and eigvals, and one eigh each for D and for the
    stacked restrictions.
    """

    def residuals(us: np.ndarray) -> list[float]:
        return np.abs(square_map(alg, us)).max(axis=1).tolist()

    # row k: the form Q_k, read as a view; SVD copies its input either way
    r, rows = rank_and_rowspace(alg.c.reshape(9, 3).T)
    if r == 0:
        return NilconeDescriptor(kind="whole-space", samples=np.vstack([np.eye(3), -np.eye(3)]))
    forms = rows.reshape(r, 3, 3)

    if r == 1:
        w, v = np.linalg.eigh(forms[0])
        parts = _zero_set(w.tolist(), v)
        if parts is None:
            return NilconeDescriptor(kind="other", samples=_quadric_cone_samples(w, v))
        planes = [s for s in parts if len(s) == 2]
        units = [s[0] for s in parts if len(s) == 1]
        units = list(zip(residuals(np.reshape(units, (-1, 3))), units)) if units else []
    else:
        w, v = np.linalg.eigh(_degenerate_member(forms[0], forms[1]))
        w = w.tolist()
        # singular by construction; zeroing the eigenvalue of least modulus
        # keeps w ascending
        w[min(range(3), key=lambda i: abs(w[i]))] = 0.0
        # D vanishes on one line, or on one or two planes, never on both
        parts = _zero_set(w, v)
        if len(parts[0]) == 1:
            planes, candidates = [], [parts[0][0]]
        else:
            zeros = _restricted_zeros(forms, parts)
            planes = [s for s, z in zip(parts, zeros) if z is None]
            candidates = [u for z in zeros if z is not None for u in z]
        units = [(res, u) for res, u in zip(residuals(np.array(candidates)), candidates)
                 if res <= TAU_RES] if candidates else []

    def merges(kept: np.ndarray, u: np.ndarray, res: float) -> bool:
        # u, of residual res, lies in the kept plane or line, or is a spread
        # copy of the kept line (see _NEAR_LINE)
        size = max(1.0, vector_norm(u))
        gap = vector_norm(u - project_onto(kept, u))
        if gap <= _SAME_LINE * size:
            return True
        if gap > _NEAR_LINE * size or len(kept) != 1:
            return False
        mid = unit(u + math.copysign(1.0, float(kept[0] @ u)) * kept[0])
        return residuals(mid[None])[0] <= 0.5 * res

    lines: list[np.ndarray] = []
    # lowest residual first; the stable sort keeps ties in order
    for res, u in sorted(units, key=lambda pair: pair[0]):
        if not any(merges(k, u, res) for k in planes + lines):
            lines.append(sign_canonical(u)[None, :])
    kind = _KIND_BY_PARTS.get((len(lines), len(planes)), "other")
    lines, planes = [Subspace(k) for k in lines], [Subspace(k) for k in planes]
    return NilconeDescriptor(
        kind, tuple(lines), tuple(planes), _component_samples(lines, planes)
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
    # rounded to 9 decimals in Python, which cannot overflow as w * 1e9 can
    return sorted(found, key=lambda w: tuple(round(x, 9) for x in w.tolist()))


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
        ell = nullspace(planes[0].basis)[0]
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
    scale = max(1.0, float(np.abs(m).max())) ** 2 * max(1.0, alg.scale)
    lhs = np.einsum("ak,ijk->ija", m, alg.c)
    rhs = np.einsum("ai,bj,abk->ijk", m, m, alg.c)
    return float(np.abs(lhs - rhs).max()) / scale
